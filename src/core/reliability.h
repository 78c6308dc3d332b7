// Self-healing layer over the control plane (§5 resilience). A deploy
// through the RecoveryManager survives QP flaps, lossy links, and node
// crash-and-reboot cycles:
//
//   retry        per-attempt deadline, exponential backoff with
//                deterministic jitter (common/rng.h)
//   reconnect    fresh QP pair + CodeFlow re-handshake (re-reads the
//                control block and symbol table; detects reboots)
//   idempotency  deploys carry a generation (hook version); before a
//                retry the manager probes the remote hook slot, so a
//                commit whose acknowledgement was lost is adopted
//                instead of re-applied — every deploy commits exactly
//                once
//   health       per-node lease from the control plane's last
//                successful completion (ControlPlane::NodeHealthy)
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/codeflow.h"
#include "telemetry/metrics.h"

namespace rdx::core {

struct RetryPolicy {
  // Total attempts = 1 + max_retries.
  int max_retries = 5;
  sim::Duration base_backoff = sim::Micros(20);
  double backoff_multiplier = 2.0;
  // Backoff delays are scaled by a deterministic factor in [1-j, 1+j).
  double jitter = 0.25;
  // An attempt with no verdict after this long counts as failed.
  sim::Duration attempt_deadline = sim::Millis(50);
  // Health lease for Healthy().
  sim::Duration lease = sim::Millis(5);
};

struct RecoveryOutcome {
  int attempts = 1;
  int reconnects = 0;
  // The generation was found already committed on a retry probe (the
  // failure hit after the commit point) and was adopted, not re-applied.
  bool adopted = false;
  std::uint64_t version = 0;  // committed hook version
  sim::Duration elapsed = 0;
};

class RecoveryManager {
 public:
  explicit RecoveryManager(ControlPlane& cp, RetryPolicy policy = {},
                           std::uint64_t seed = 1)
      : cp_(cp), policy_(policy), rng_(seed) {}
  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  // ControlPlane::Inject (an eBPF program or a Wasm filter) with the full
  // recovery treatment. `max_retries` < 0 uses the policy default.
  template <class Source>
  sim::Task<StatusOr<RecoveryOutcome>> DeployReliably(CodeFlow& flow,
                                                      Source src, int hook,
                                                      int max_retries = -1);

  bool Healthy(const CodeFlow& flow) const {
    return cp_.NodeHealthy(flow.node(), policy_.lease);
  }
  const RetryPolicy& policy() const { return policy_; }

 private:
  // One Inject against the attempt deadline: the first verdict wins, and
  // a late completion of a timed-out attempt is dropped.
  template <class Source>
  sim::Task<Status> Attempt(CodeFlow& flow, const Source& src, int hook);
  sim::Duration BackoffDelay(int attempt);

  ControlPlane& cp_;
  RetryPolicy policy_;
  Rng rng_;
};

// Detection thresholds for the agentless guardrail monitor. Deltas are
// per poll interval (between consecutive HealthBlock snapshots).
struct GuardrailPolicy {
  sim::Duration poll_period = sim::Millis(1);
  // A hook whose consecutive_failures reaches this is crash-looping.
  std::uint64_t consecutive_threshold = 4;
  // Trap / fuel-exhaustion deltas per poll that flag a hook even when
  // occasional successes keep resetting the consecutive counter.
  std::uint64_t trap_delta_threshold = 8;
  std::uint64_t fuel_delta_threshold = 8;
  // Quarantine on detection (CAS to last-good + blacklist). When false
  // the monitor only records detections (observe-only mode).
  bool auto_quarantine = true;
};

// One detection → quarantine decision, for tests and telemetry.
struct QuarantineRecord {
  rdma::NodeId node = rdma::kInvalidNode;
  int hook = 0;
  std::string reason;
  std::uint64_t bad_desc = 0;
  std::uint64_t good_desc = 0;
  bool quarantined = false;  // false = already contained locally / observe
  sim::SimTime at = 0;
};

// Agentless health monitor (§5 guardrails): periodically one-sided-READs
// every watched sandbox's HealthBlock array, diffs against the previous
// snapshot, and quarantines misbehaving extensions purely over RDMA —
// the data-plane CPU never runs a byte of monitoring code.
class HealthMonitor {
 public:
  explicit HealthMonitor(ControlPlane& cp, GuardrailPolicy policy = {})
      : cp_(cp), policy_(policy) {}
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  void Watch(CodeFlow& flow);
  // Periodic polling on the event queue (Stop cancels the next tick).
  void Start();
  void Stop();
  bool running() const { return running_; }
  // One sweep over every watched flow; finishes when all health reads
  // (and any resulting quarantines) completed. Gives tests a
  // deterministic poll point.
  sim::Task<void> PollNow();

  const std::vector<QuarantineRecord>& records() const { return records_; }
  std::uint64_t polls() const { return polls_; }
  const GuardrailPolicy& policy() const { return policy_; }

  // Monitor-side counters plus the last harvested HealthBlock snapshot of
  // every watched hook, under "monitor." / "health.node<n>.hook<k>.".
  void ExportMetrics(telemetry::MetricsRegistry& reg) const;

 private:
  struct HookSnapshot {
    HealthView last;
    bool quarantine_inflight = false;
  };
  struct WatchedFlow {
    CodeFlow* flow = nullptr;
    std::vector<HookSnapshot> snapshots;
  };
  // The polling loop Start runs: a tick every poll period, then a poll.
  sim::Task<void> Tick();
  // Both always report OK: an unreachable node is the lease layer's
  // problem, and a failed quarantine is recorded, not raised.
  sim::Task<Status> PollFlow(WatchedFlow& wf);
  sim::Task<Status> Inspect(WatchedFlow& wf, int hook, const HealthView& now);

  ControlPlane& cp_;
  GuardrailPolicy policy_;
  std::vector<WatchedFlow> watched_;
  std::vector<QuarantineRecord> records_;
  std::uint64_t polls_ = 0;
  bool running_ = false;
  sim::EventQueue::EventId next_tick_ = 0;
};

}  // namespace rdx::core
