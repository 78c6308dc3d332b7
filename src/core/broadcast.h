// Collective CodeFlow (rdx_broadcast, §4 "fast and consistent extension
// updates"). A group update is treated as a transaction whose write set
// spans all target hooks: phase 1 *prepares* every node (image + desc in
// the scratchpad, no commit), phase 2 fires all qword commits in
// parallel, and Big Bubble Update (BBU) buffering holds incoming requests
// for the short commit window so no request ever observes mixed logic.
#pragma once

#include <functional>
#include <vector>

#include "core/codeflow.h"

namespace rdx::core {

// Implemented by the data plane (e.g. the mesh's ingress) so a collective
// update can buffer and release requests around the commit point.
class UpdateBarrier {
 public:
  virtual ~UpdateBarrier() = default;
  // Start holding new requests instead of dispatching them.
  virtual void BeginBuffering() = 0;
  // Release held requests (in dependency order) and stop buffering.
  virtual void ReleaseBuffered() = 0;
  virtual std::size_t BufferedCount() const = 0;
};

struct BroadcastResult {
  sim::Duration prepare_time = 0;   // slowest node's prepare
  sim::Duration commit_window = 0;  // first->last commit visibility
  sim::Duration total = 0;
  std::size_t buffered_requests = 0;
  std::size_t nodes = 0;
};

class RecoveryManager;

// One deployment wave of the pipelined fleet deploy: a program bound for
// a hook on every (healthy) node in the group.
struct DeploySpec {
  const bpf::Program* prog = nullptr;
  int hook = 0;
};

struct PipelineOptions {
  // Overlap validate+JIT of wave k+1 with the transfer/commit of wave k.
  // Disabled, each wave runs start to finish before the next compiles —
  // the serial schedule the pipeline is benchmarked against.
  bool pipelined = true;
  // A failed node is quarantined from the remaining waves instead of
  // failing the whole deploy (per-node completion tracking).
  bool isolate_stragglers = true;
  // Optional: quarantined (node, wave) deploys are re-driven in the
  // background through the recovery layer's retry/reconnect machinery;
  // the pipeline result does not wait for them.
  RecoveryManager* recovery = nullptr;
};

struct NodeOutcome {
  rdma::NodeId node = rdma::kInvalidNode;
  Status status;             // first failure; OK if never quarantined
  int failed_wave = -1;      // wave index of the first failure
  std::uint64_t waves_committed = 0;
  bool retried_in_background = false;
};

struct WaveResult {
  int hook = 0;
  bool compile_cache_hit = false;
  sim::Duration compile = 0;   // validate + JIT (0 on artifact-cache hit)
  sim::Duration transfer = 0;  // dispatch + xstate/link/prepare fan-out
  sim::Duration commit = 0;    // CAS commit wave
  std::size_t committed = 0;   // nodes that took this wave
};

struct PipelineResult {
  std::vector<WaveResult> waves;
  std::vector<NodeOutcome> nodes;
  sim::Duration total = 0;
  std::size_t stragglers = 0;  // nodes quarantined during the run
};

// One collective operation over a group of CodeFlows.
class CollectiveCodeFlow {
 public:
  CollectiveCodeFlow(ControlPlane& cp, std::vector<CodeFlow*> group)
      : cp_(cp), group_(std::move(group)) {}

  // Deploys `prog` to `hook` on every node in the group, transactionally.
  // With a non-null `barrier`, requests are buffered across the commit
  // window (BBU), guaranteeing update consistency.
  sim::Task<StatusOr<BroadcastResult>> Broadcast(bpf::Program prog, int hook,
                                                 UpdateBarrier* barrier);

  // Wasm-filter variant: per-node filters (size must equal the group's,
  // none null). Each distinct filter is copied and fingerprinted once,
  // before the task first suspends.
  sim::Task<StatusOr<BroadcastResult>> BroadcastWasm(
      std::vector<const wasm::FilterModule*> filters, int hook,
      UpdateBarrier* barrier);
  void BroadcastWasm(const std::vector<const wasm::FilterModule*>& filters,
                     int hook, UpdateBarrier* barrier,
                     std::function<void(StatusOr<BroadcastResult>)> done) {
    sim::Start(BroadcastWasm(filters, hook, barrier), std::move(done));
  }

  // Pipelined, doorbell-batched fleet deploy. Drives `specs` as a
  // sequence of waves through a two-stage pipeline: while wave k's image
  // streams to every node over doorbell-batched WR chains and its CAS
  // commit wave fans out across the per-node QPs, wave k+1 is already
  // validating + JIT-compiling on the control plane (one artifact per
  // fingerprint, shared by all N targets via the artifact cache). The
  // per-wave dispatch overhead is paid once for the group, not per node.
  // A straggler or faulted node is quarantined from later waves without
  // stalling the healthy fan-out; a compile failure (including a
  // blacklisted fingerprint) fails the whole deploy. Unlike Broadcast
  // there is no BBU barrier: this is the fleet-provisioning path, and
  // per-node visibility is driven by the commits' cc_event flushes. It
  // reports through `done` (not as a task) because a failure reports at
  // once, before the compile still in flight drains.
  void DeployPipelined(const std::vector<DeploySpec>& specs,
                       const PipelineOptions& opts,
                       std::function<void(StatusOr<PipelineResult>)> done);

 private:
  // Shared tail of both broadcasts: phase 1 awaits `prepare(i)`, a
  // StatusOr<PreparedImage> task, on every node; once all hold a
  // PreparedImage, phase 2 commits them in parallel and waits until every
  // sandbox serves the new version. Releases the barrier either way.
  template <class Prepare>
  sim::Task<StatusOr<BroadcastResult>> PrepareAndCommit(
      Prepare& prepare, int hook, UpdateBarrier* barrier, sim::SimTime t0);
  // Body of DeployPipelined. It reports through `done` itself, exactly
  // once: a failure reports at once, and the stage still in flight drains
  // before the pipeline's state goes away.
  sim::Task<void> RunPipeline(
      std::vector<DeploySpec> specs, PipelineOptions opts,
      std::function<void(StatusOr<PipelineResult>)> done);

  // Records a span on the control plane's own pid, one lane per hook.
  void CpSpan(const char* name, int hook, sim::SimTime start,
              sim::Duration dur, const char* args = "");

  ControlPlane& cp_;
  std::vector<CodeFlow*> group_;
};

}  // namespace rdx::core
