#include "core/inspector.h"

#include "core/for_all.h"
#include "core/gatekeeper.h"

namespace rdx::core {

sim::Task<StatusOr<InspectReport>> Inspector::Inspect(CodeFlow& flow,
                                                      int hook) {
  // Control-plane bookkeeping to check against.
  std::uint64_t expected_desc = 0;
  std::uint64_t expected_version = 0;
  if (auto it = flow.hooks_.find(hook); it != flow.hooks_.end()) {
    expected_desc = it->second.desc_addr;
    expected_version = it->second.version;
  }

  // Step 1: read the hook slot.
  RDX_CO_ASSIGN_OR_RETURN(
      const Bytes slot,
      co_await cp_.RemoteRead(flow,
                              flow.remote_view_.hook_table_addr +
                                  static_cast<std::uint64_t>(hook) * 8,
                              8, "hook slot read failed"));
  const std::uint64_t desc_addr = LoadLE<std::uint64_t>(slot.data());
  InspectReport report;
  report.hook = hook;
  report.deployed = desc_addr != 0;
  report.desc_matches = desc_addr == expected_desc;
  if (desc_addr == 0) co_return report;

  // Step 2: read the ImageDesc.
  RDX_CO_ASSIGN_OR_RETURN(
      const Bytes desc, co_await cp_.RemoteRead(flow, desc_addr,
                                                kImageDescBytes,
                                                "ImageDesc read failed"));
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
    co_return report;  // implausible length: checksum_ok stays false
  }

  // Step 3: read the image bytes and verify.
  RDX_CO_ASSIGN_OR_RETURN(
      const Bytes image,
      co_await cp_.RemoteRead(flow, image_addr, image_len,
                              "image read failed"));
  report.checksum_ok = DecodeImage(image).ok();
  if (cp_.config().signing_key != 0) {
    report.signature_ok =
        VerifyImageSignature(image, cp_.config().signing_key, signature);
  }
  co_return report;
}

sim::Task<StatusOr<std::vector<InspectReport>>> Inspector::Sweep(
    CodeFlow& flow) {
  std::vector<int> hooks;
  for (const auto& [hook, deployment] : flow.hooks_) {
    if (deployment.desc_addr != 0) hooks.push_back(hook);
  }
  std::vector<InspectReport> unhealthy;
  const bool signing = cp_.config().signing_key != 0;
  auto inspect = [&](std::size_t i) -> sim::Task<Status> {
    RDX_CO_ASSIGN_OR_RETURN(const InspectReport r,
                            co_await Inspect(flow, hooks[i]));
    if (!r.Healthy(signing)) unhealthy.push_back(r);
    co_return OkStatus();
  };
  RDX_CO_RETURN_IF_ERROR(co_await ForAll(hooks.size(), inspect));
  co_return std::move(unhealthy);
}

}  // namespace rdx::core
