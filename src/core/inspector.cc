#include "core/inspector.h"

#include "core/for_all.h"
#include "core/gatekeeper.h"

namespace rdx::core {

void Inspector::Inspect(CodeFlow& flow, int hook,
                        std::function<void(StatusOr<InspectReport>)> done) {
  // Control-plane bookkeeping to check against.
  std::uint64_t expected_desc = 0;
  std::uint64_t expected_version = 0;
  if (auto it = flow.hooks_.find(hook); it != flow.hooks_.end()) {
    expected_desc = it->second.desc_addr;
    expected_version = it->second.version;
  }

  // Step 1: read the hook slot.
  cp_.RemoteRead(flow, flow.remote_view_.hook_table_addr +
                           static_cast<std::uint64_t>(hook) * 8,
                 8, "hook slot read failed", done,
                 [this, &flow, hook, expected_desc, expected_version,
                  done](Bytes slot) {
    const std::uint64_t desc_addr = LoadLE<std::uint64_t>(slot.data());
    InspectReport report;
    report.hook = hook;
    report.deployed = desc_addr != 0;
    report.desc_matches = desc_addr == expected_desc;
    if (desc_addr == 0) {
      done(report);
      return;
    }

    // Step 2: read the ImageDesc.
    cp_.RemoteRead(flow, desc_addr, kImageDescBytes, "ImageDesc read failed",
                   done, [this, &flow, report, expected_version,
                          done](Bytes desc) mutable {
      auto word = [&](std::uint64_t off) {
        return LoadLE<std::uint64_t>(desc.data() + off);
      };
      const std::uint64_t image_addr = word(kDescImageAddr);
      const std::uint64_t image_len = word(kDescImageLen);
      const std::uint64_t signature = word(kDescSignature);
      report.observed_version = word(kDescVersion);
      report.observed_image_len = image_len;
      report.version_matches = report.observed_version == expected_version;
      if (image_len == 0 || image_len > (64u << 20)) {
        done(report);  // implausible length: checksum_ok stays false
        return;
      }

      // Step 3: read the image bytes and verify.
      cp_.RemoteRead(flow, image_addr, image_len, "image read failed", done,
                     [this, report, signature, done](Bytes image) mutable {
        report.checksum_ok = DecodeImage(image).ok();
        if (cp_.config().signing_key != 0) {
          report.signature_ok = VerifyImageSignature(
              image, cp_.config().signing_key, signature);
        }
        done(report);
      });
    });
  });
}

void Inspector::Sweep(
    CodeFlow& flow,
    std::function<void(StatusOr<std::vector<InspectReport>>)> done) {
  std::vector<int> hooks;
  for (const auto& [hook, deployment] : flow.hooks_) {
    if (deployment.desc_addr != 0) hooks.push_back(hook);
  }
  auto unhealthy = std::make_shared<std::vector<InspectReport>>();
  const bool signing = cp_.config().signing_key != 0;
  ForAll(
      hooks.size(),
      [&](std::size_t i, std::function<void(Status)> hook_done) {
        Inspect(flow, hooks[i],
                [unhealthy, signing, hook_done](StatusOr<InspectReport> r) {
                  if (r.ok() && !r->Healthy(signing)) {
                    unhealthy->push_back(r.value());
                  }
                  hook_done(r.status());
                });
      },
      [unhealthy, done = std::move(done)](Status all) {
        if (!all.ok()) {
          done(all);
        } else {
          done(std::move(*unhealthy));
        }
      });
}

}  // namespace rdx::core
