// Remote runtime introspection (§5): the control plane re-reads a hook's
// ImageDesc and image bytes over one-sided RDMA and checks them against
// what it believes it deployed — catching in-memory tampering, bit rot,
// or a desync between control-plane bookkeeping and node state, all
// without any data-plane CPU involvement (cf. remote direct memory
// introspection [49]).
#pragma once

#include "core/codeflow.h"

namespace rdx::core {

struct InspectReport {
  int hook = 0;
  // Desc-level checks.
  bool deployed = false;        // hook slot non-zero
  bool desc_matches = false;    // slot points at the desc we committed
  bool version_matches = false; // version equals our bookkeeping
  // Image-level checks.
  bool checksum_ok = false;     // image deserializes (embedded checksum)
  bool signature_ok = false;    // keyed MAC verifies (if signing enabled)
  std::uint64_t observed_version = 0;
  std::uint64_t observed_image_len = 0;

  bool Healthy(bool signing_enabled) const {
    return deployed && desc_matches && version_matches && checksum_ok &&
           (!signing_enabled || signature_ok);
  }
};

class Inspector {
 public:
  explicit Inspector(ControlPlane& cp) : cp_(cp) {}

  // Reads back hook state from the node and cross-checks it.
  sim::Task<StatusOr<InspectReport>> Inspect(CodeFlow& flow, int hook);

  // Sweeps every hook the control plane has deployed on `flow`; reports
  // the unhealthy ones (empty = all good).
  sim::Task<StatusOr<std::vector<InspectReport>>> Sweep(CodeFlow& flow);

  // The scratchpad-reuse invariant (DESIGN.md "Scratchpad reuse"). It
  // reads the sandbox's memory from its own side and posts no verb, so a
  // test or an interleaving explorer can check it between any two events.
  // Every block on `flow`'s free list lies below the scratchpad's bump
  // cursor and overlaps no other block; none holds the desc of an image
  // the flow has committed or keeps as a rollback target; and none that
  // passed its grace check holds the desc a hook slot, a published
  // visible_desc or a last_good_desc names. (A block still waiting for
  // its check may: that is what the check is for.) Returns the first
  // violation as FailedPrecondition.
  static Status CheckFreeList(const CodeFlow& flow);

 private:
  ControlPlane& cp_;
};

}  // namespace rdx::core
