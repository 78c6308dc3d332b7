// Declarative cluster-wide extension orchestration — item (1) of the
// paper's future-work list. Operators describe *what* should run where;
// the orchestrator compiles that into CodeFlow operations and executes
// them with the requested rollout strategy and consistency level.
//
// The language is line-oriented ("#" comments):
//
//   extension firewall kind=ebpf hook=0
//   extension tagger   kind=wasm hook=1
//   group frontend nodes=0,1,2
//   group backend  nodes=3,4
//   deploy firewall to=frontend strategy=broadcast consistency=bbu
//   deploy tagger   to=backend  strategy=rolling
//   rollback firewall from=frontend
//   detach tagger from=backend
//
// Strategies: broadcast (collective prepare + parallel commit; with
// consistency=bbu requests are buffered across the commit window),
// rolling (one node at a time, dependency-safe), parallel (all nodes at
// once, eventual consistency — the agent-like mode, for comparison).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/broadcast.h"

namespace rdx::core {

class RecoveryManager;

enum class RolloutStrategy : std::uint8_t { kBroadcast, kRolling, kParallel };
enum class ConsistencyLevel : std::uint8_t { kEventual, kBbu };
enum class ActionKind : std::uint8_t { kDeploy, kRollback, kDetach };
// What a deploy does when a node keeps failing after its retries:
//   abort     stop the plan (default — previous behavior)
//   skip      note the failure, keep deploying to the rest
//   rollback  revert every node this action already updated, then
//             continue with the next action
enum class OnFailure : std::uint8_t { kAbort, kSkip, kRollback };

struct ExtensionDecl {
  std::string name;
  bool is_wasm = false;
  int hook = 0;
};

struct GroupDecl {
  std::string name;
  std::vector<std::size_t> nodes;
};

struct Action {
  ActionKind kind;
  std::string extension;
  std::string group;
  RolloutStrategy strategy = RolloutStrategy::kBroadcast;
  ConsistencyLevel consistency = ConsistencyLevel::kEventual;
  // Per-node retries via the RecoveryManager (0 = plain injection).
  int max_retries = 0;
  OnFailure on_failure = OnFailure::kAbort;
};

struct OrchestrationPlan {
  std::unordered_map<std::string, ExtensionDecl> extensions;
  std::unordered_map<std::string, GroupDecl> groups;
  std::vector<Action> actions;
};

// Parses the DSL. Errors carry the offending line number.
StatusOr<OrchestrationPlan> ParseOrchestration(std::string_view text);

struct OrchestrationReport {
  std::size_t actions_executed = 0;
  // Deploy actions that lost at least one node (on_failure=skip|rollback
  // keeps the plan going; these counters say what it cost).
  std::size_t actions_degraded = 0;
  std::size_t nodes_failed = 0;
  std::size_t nodes_rolled_back = 0;
  sim::Duration total = 0;
  std::vector<std::string> log;  // one human-readable line per action
};

// Binds a plan to a concrete cluster and runs it.
class Orchestrator {
 public:
  explicit Orchestrator(ControlPlane& cp) : cp_(cp) {}

  // Cluster inventory: node index in `group ... nodes=` refers to the
  // order of registration here.
  void RegisterNode(CodeFlow* flow) { flows_.push_back(flow); }
  // Artifact registry (the "filter registry" of §4): programs and
  // filters the plan may reference by name.
  void RegisterProgram(std::string name, bpf::Program prog);
  void RegisterFilter(std::string name, wasm::FilterModule module);

  // Routes deploy actions with max_retries > 0 through the self-healing
  // layer (retry/reconnect/idempotent adoption). Without it, max_retries
  // is ignored and deploys are plain injections.
  void SetRecovery(RecoveryManager* recovery) { recovery_ = recovery; }

  // Static checks without touching the cluster: unknown extension/group
  // references, node indices out of range, hooks out of range.
  Status ValidatePlan(const OrchestrationPlan& plan) const;

  // Executes actions sequentially (each action's nodes in the strategy's
  // order). `barrier` enables consistency=bbu actions to buffer traffic.
  sim::Task<StatusOr<OrchestrationReport>> Execute(OrchestrationPlan plan,
                                                   UpdateBarrier* barrier);

 private:
  using Artifact = std::variant<bpf::Program, wasm::FilterModule>;
  // Runs one action; yields its log line.
  sim::Task<StatusOr<std::string>> RunAction(const OrchestrationPlan& plan,
                                             const Action& action,
                                             UpdateBarrier* barrier,
                                             OrchestrationReport& report);
  // One per-node injection, via the recovery layer when the action asks
  // for retries and SetRecovery() was called.
  template <class Source>
  sim::Task<Status> DeployOne(const Source& src, int hook,
                              const Action& action, CodeFlow& flow);
  // Reverts `hook` on every flow in `nodes` (Rollback, falling back to
  // Detach for nodes with no prior version); yields how many reverted.
  sim::Task<std::size_t> RollbackWave(const std::vector<CodeFlow*>& nodes,
                                      int hook);

  ControlPlane& cp_;
  RecoveryManager* recovery_ = nullptr;
  std::vector<CodeFlow*> flows_;
  // The artifact registry: each name is a program or a filter.
  std::unordered_map<std::string, Artifact> artifacts_;
};

}  // namespace rdx::core
