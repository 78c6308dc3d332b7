#include "core/inspector.h"

#include <string>

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

Status Inspector::CheckFreeList(const CodeFlow& flow) {
  if (flow.sandbox == nullptr) return OkStatus();
  const rdma::HostMemory& mem = flow.sandbox->node().memory();
  const ControlBlockView& view = flow.remote_view_;
  auto word = [&](std::uint64_t addr) {
    const StatusOr<std::uint64_t> w = mem.ReadU64(addr);
    return w.ok() ? w.value() : 0ull;
  };
  auto violation = [](const CodeFlow::FreeBlock& block, const char* what,
                      std::uint64_t desc) {
    return FailedPrecondition(
        "free block at " + std::to_string(block.addr) + " (" +
        std::to_string(block.bytes) + " bytes) holds desc " +
        std::to_string(desc) + " named by " + what);
  };
  const std::uint64_t brk = word(view.cb_addr + kCbScratchBrk);
  const auto& blocks = flow.free_blocks_;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const CodeFlow::FreeBlock& block = blocks[i];
    auto holds = [&](std::uint64_t desc) {
      return desc != 0 && desc >= block.addr && desc < block.addr + block.bytes;
    };
    if (block.addr < view.scratch_addr || block.addr + block.bytes > brk) {
      return FailedPrecondition("free block at " + std::to_string(block.addr) +
                                " lies outside the allocated scratchpad");
    }
    for (std::size_t j = i + 1; j < blocks.size(); ++j) {
      if (block.addr < blocks[j].addr + blocks[j].bytes &&
          blocks[j].addr < block.addr + block.bytes) {
        return FailedPrecondition("free blocks at " +
                                  std::to_string(block.addr) + " and " +
                                  std::to_string(blocks[j].addr) + " overlap");
      }
    }
    for (const auto& [hook, deployment] : flow.hooks_) {
      if (holds(deployment.desc_addr)) {
        return violation(block, "a committed image", deployment.desc_addr);
      }
      for (const CodeFlow::ImageRegion& past : deployment.desc_history) {
        if (holds(past.desc_addr)) {
          return violation(block, "a history entry", past.desc_addr);
        }
      }
    }
    if (!block.graced) continue;
    for (std::uint64_t hook = 0; hook < view.hook_count; ++hook) {
      const std::uint64_t slot = word(view.hook_table_addr + hook * 8);
      if (holds(slot)) return violation(block, "a hook slot", slot);
      const HealthView health =
          flow.sandbox->ReadLocalHealth(static_cast<int>(hook));
      if (holds(health.visible_desc)) {
        return violation(block, "a published visible_desc",
                         health.visible_desc);
      }
      if (holds(health.last_good_desc)) {
        return violation(block, "a last_good_desc", health.last_good_desc);
      }
    }
  }
  return OkStatus();
}

}  // namespace rdx::core
