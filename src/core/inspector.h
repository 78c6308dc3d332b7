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

 private:
  ControlPlane& cp_;
};

}  // namespace rdx::core
