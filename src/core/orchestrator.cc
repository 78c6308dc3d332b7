#include "core/orchestrator.h"

#include <cstdio>

#include "core/for_all.h"
#include "core/reliability.h"

namespace rdx::core {

namespace {

Status LineError(int line_no, const std::string& msg) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "line %d: %s", line_no, msg.c_str());
  return InvalidArgument(buf);
}

std::vector<std::string> SplitWords(std::string_view line) {
  std::vector<std::string> words;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(
                                  line[i]))) {
      ++i;
    }
    std::size_t j = i;
    while (j < line.size() && !std::isspace(static_cast<unsigned char>(
                                   line[j]))) {
      ++j;
    }
    if (j > i) words.emplace_back(line.substr(i, j - i));
    i = j;
  }
  return words;
}

// Parses "key=value" into (key, value); empty key on mismatch.
std::pair<std::string, std::string> KeyValue(const std::string& word) {
  const std::size_t eq = word.find('=');
  if (eq == std::string::npos || eq == 0) return {"", ""};
  return {word.substr(0, eq), word.substr(eq + 1)};
}

}  // namespace

StatusOr<OrchestrationPlan> ParseOrchestration(std::string_view text) {
  OrchestrationPlan plan;
  int line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t eol = text.find('\n', start);
    std::string_view line = text.substr(
        start,
        eol == std::string_view::npos ? text.size() - start : eol - start);
    start = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    std::vector<std::string> words = SplitWords(line);
    if (words.empty()) continue;

    const std::string& verb = words[0];
    if (verb == "extension") {
      if (words.size() < 2) return LineError(line_no, "extension needs a name");
      ExtensionDecl decl;
      decl.name = words[1];
      for (std::size_t w = 2; w < words.size(); ++w) {
        auto [key, value] = KeyValue(words[w]);
        if (key == "kind") {
          if (value == "ebpf") {
            decl.is_wasm = false;
          } else if (value == "wasm") {
            decl.is_wasm = true;
          } else {
            return LineError(line_no, "kind must be ebpf or wasm");
          }
        } else if (key == "hook") {
          decl.hook = std::atoi(value.c_str());
        } else {
          return LineError(line_no, "unknown extension attribute '" + key +
                                        "'");
        }
      }
      if (plan.extensions.count(decl.name) != 0) {
        return LineError(line_no, "duplicate extension '" + decl.name + "'");
      }
      plan.extensions.emplace(decl.name, std::move(decl));
    } else if (verb == "group") {
      if (words.size() < 3) return LineError(line_no, "group needs nodes=");
      GroupDecl decl;
      decl.name = words[1];
      auto [key, value] = KeyValue(words[2]);
      if (key != "nodes") return LineError(line_no, "group needs nodes=");
      std::size_t pos = 0;
      while (pos < value.size()) {
        std::size_t comma = value.find(',', pos);
        if (comma == std::string::npos) comma = value.size();
        const std::string id = value.substr(pos, comma - pos);
        if (id.empty() ||
            id.find_first_not_of("0123456789") != std::string::npos) {
          return LineError(line_no, "bad node id '" + id + "'");
        }
        decl.nodes.push_back(std::strtoull(id.c_str(), nullptr, 10));
        pos = comma + 1;
      }
      if (decl.nodes.empty()) return LineError(line_no, "empty group");
      if (words.size() > 3) {
        return LineError(line_no,
                         "unknown group attribute '" + words[3] + "'");
      }
      if (plan.groups.count(decl.name) != 0) {
        return LineError(line_no, "duplicate group '" + decl.name + "'");
      }
      plan.groups.emplace(decl.name, std::move(decl));
    } else if (verb == "deploy" || verb == "rollback" || verb == "detach") {
      if (words.size() < 3) {
        return LineError(line_no, verb + " needs an extension and a group");
      }
      Action action;
      action.kind = verb == "deploy"     ? ActionKind::kDeploy
                    : verb == "rollback" ? ActionKind::kRollback
                                         : ActionKind::kDetach;
      action.extension = words[1];
      for (std::size_t w = 2; w < words.size(); ++w) {
        auto [key, value] = KeyValue(words[w]);
        if (key == "to" || key == "from") {
          action.group = value;
        } else if (key == "strategy") {
          if (value == "broadcast") {
            action.strategy = RolloutStrategy::kBroadcast;
          } else if (value == "rolling") {
            action.strategy = RolloutStrategy::kRolling;
          } else if (value == "parallel") {
            action.strategy = RolloutStrategy::kParallel;
          } else {
            return LineError(line_no, "unknown strategy '" + value + "'");
          }
        } else if (key == "consistency") {
          if (value == "bbu") {
            action.consistency = ConsistencyLevel::kBbu;
          } else if (value == "eventual") {
            action.consistency = ConsistencyLevel::kEventual;
          } else {
            return LineError(line_no, "unknown consistency '" + value + "'");
          }
        } else if (key == "max_retries" && verb == "deploy") {
          if (value.empty() ||
              value.find_first_not_of("0123456789") != std::string::npos) {
            return LineError(line_no,
                             "max_retries must be a non-negative integer");
          }
          action.max_retries = std::atoi(value.c_str());
        } else if (key == "on_failure" && verb == "deploy") {
          if (value == "abort") {
            action.on_failure = OnFailure::kAbort;
          } else if (value == "skip") {
            action.on_failure = OnFailure::kSkip;
          } else if (value == "rollback") {
            action.on_failure = OnFailure::kRollback;
          } else {
            return LineError(line_no, "unknown on_failure '" + value + "'");
          }
        } else {
          return LineError(line_no, "unknown attribute '" + key + "'");
        }
      }
      if (action.group.empty()) {
        return LineError(line_no, verb + " needs to=/from= a group");
      }
      plan.actions.push_back(std::move(action));
    } else {
      return LineError(line_no, "unknown directive '" + verb + "'");
    }
  }
  return plan;
}

void Orchestrator::RegisterProgram(std::string name, bpf::Program prog) {
  artifacts_.emplace(std::move(name), std::move(prog));
}

void Orchestrator::RegisterFilter(std::string name,
                                  wasm::FilterModule module) {
  artifacts_.emplace(std::move(name), std::move(module));
}

Status Orchestrator::ValidatePlan(const OrchestrationPlan& plan) const {
  for (const auto& [name, group] : plan.groups) {
    for (std::size_t node : group.nodes) {
      if (node >= flows_.size()) {
        return InvalidArgument("group '" + name + "' references node " +
                               std::to_string(node) + " but only " +
                               std::to_string(flows_.size()) +
                               " nodes are registered");
      }
    }
  }
  for (const Action& action : plan.actions) {
    auto ext = plan.extensions.find(action.extension);
    if (ext == plan.extensions.end()) {
      return InvalidArgument("action references undeclared extension '" +
                             action.extension + "'");
    }
    if (plan.groups.count(action.group) == 0) {
      return InvalidArgument("action references undeclared group '" +
                             action.group + "'");
    }
    if (action.kind == ActionKind::kDeploy) {
      // The registered artifact must be of the declared kind.
      const ExtensionDecl& decl = ext->second;
      auto artifact = artifacts_.find(decl.name);
      if (artifact == artifacts_.end() ||
          std::holds_alternative<wasm::FilterModule>(artifact->second) !=
              decl.is_wasm) {
        return FailedPrecondition(std::string("no ") +
                                  (decl.is_wasm ? "filter" : "program") +
                                  " registered for '" + decl.name + "'");
      }
    }
    // Hook range checks against each target node.
    for (std::size_t node : plan.groups.at(action.group).nodes) {
      const auto hook_count =
          static_cast<int>(flows_.at(node)->remote_view().hook_count);
      if (ext->second.hook < 0 || ext->second.hook >= hook_count) {
        return OutOfRange("hook " + std::to_string(ext->second.hook) +
                          " out of range on node " + std::to_string(node));
      }
    }
  }
  return OkStatus();
}

sim::Task<StatusOr<OrchestrationReport>> Orchestrator::Execute(
    OrchestrationPlan plan, UpdateBarrier* barrier) {
  RDX_CO_RETURN_IF_ERROR(ValidatePlan(plan));
  OrchestrationReport report;
  const sim::SimTime t0 = cp_.events().Now();
  for (const Action& action : plan.actions) {
    const sim::SimTime action_start = cp_.events().Now();
    RDX_CO_ASSIGN_OR_RETURN(
        const std::string what,
        co_await RunAction(plan, action, barrier, report));
    char line[192];
    std::snprintf(line, sizeof(line), "%s (%.1f us)", what.c_str(),
                  sim::ToMicros(cp_.events().Now() - action_start));
    report.log.emplace_back(line);
    ++report.actions_executed;
  }
  report.total = cp_.events().Now() - t0;
  co_return std::move(report);
}

sim::Task<StatusOr<std::string>> Orchestrator::RunAction(
    const OrchestrationPlan& plan, const Action& action,
    UpdateBarrier* barrier, OrchestrationReport& report) {
  const ExtensionDecl& decl = plan.extensions.at(action.extension);
  const GroupDecl& group = plan.groups.at(action.group);

  if (action.kind != ActionKind::kDeploy) {
    const bool rollback = action.kind == ActionKind::kRollback;
    auto revert = [&](std::size_t i) {
      CodeFlow& flow = *flows_[group.nodes[i]];
      return rollback ? cp_.Rollback(flow, decl.hook)
                      : cp_.Detach(flow, decl.hook);
    };
    RDX_CO_RETURN_IF_ERROR(co_await ForAll(group.nodes.size(), revert));
    co_return std::string(rollback ? "rollback " : "detach ") + decl.name +
        " @ " + group.name;
  }

  std::vector<CodeFlow*> targets;
  for (std::size_t node : group.nodes) targets.push_back(flows_[node]);
  const Artifact& artifact = artifacts_.at(decl.name);
  const std::string what = "deploy " + decl.name + " -> " + group.name;

  if (action.strategy == RolloutStrategy::kBroadcast) {
    CollectiveCodeFlow collective(cp_, targets);
    UpdateBarrier* use_barrier =
        action.consistency == ConsistencyLevel::kBbu ? barrier : nullptr;
    if (const auto* module = std::get_if<wasm::FilterModule>(&artifact)) {
      const StatusOr<BroadcastResult> r = co_await collective.BroadcastWasm(
          std::vector<const wasm::FilterModule*>(targets.size(), module),
          decl.hook, use_barrier);
      RDX_CO_RETURN_IF_ERROR(r.status());
    } else {
      const StatusOr<BroadcastResult> r = co_await collective.Broadcast(
          std::get<bpf::Program>(artifact), decl.hook, use_barrier);
      RDX_CO_RETURN_IF_ERROR(r.status());
    }
    co_return what + " [broadcast]";
  }

  // rolling / parallel: per-node injections through DeployOne (which
  // engages the recovery layer when the action asks for retries).
  auto deploy = [&](CodeFlow& flow) {
    return std::visit(
        [&](const auto& src) {
          return DeployOne(src, decl.hook, action, flow);
        },
        artifact);
  };
  std::vector<CodeFlow*> succeeded;
  std::size_t failed = 0;
  Status abort_status;
  const char* tag;
  if (action.strategy == RolloutStrategy::kParallel) {
    tag = " [parallel]";
    auto deploy_one = [&](std::size_t i) -> sim::Task<Status> {
      const Status s = co_await deploy(*targets[i]);
      if (s.ok()) {
        succeeded.push_back(targets[i]);
      } else {
        ++failed;
      }
      co_return s;
    };
    abort_status = co_await ForAll(targets.size(), deploy_one);
  } else {
    // Rolling: strictly one node at a time. abort stops the wave at the
    // first failure; skip/rollback walk the whole group so the policy
    // sees the full picture.
    tag = " [rolling]";
    for (CodeFlow* flow : targets) {
      const Status s = co_await deploy(*flow);
      if (s.ok()) {
        succeeded.push_back(flow);
        continue;
      }
      ++failed;
      if (action.on_failure == OnFailure::kAbort) {
        abort_status = s;
        break;
      }
    }
  }

  // The failure policy, applied to whatever the wave accumulated.
  if (failed == 0) co_return what + tag;
  report.nodes_failed += failed;
  ++report.actions_degraded;
  char buf[96];
  switch (action.on_failure) {
    case OnFailure::kAbort:
      co_return abort_status;
    case OnFailure::kSkip:
      std::snprintf(buf, sizeof(buf), " skipped %zu failed node(s)", failed);
      break;
    case OnFailure::kRollback: {
      const std::size_t reverted = co_await RollbackWave(succeeded, decl.hook);
      report.nodes_rolled_back += reverted;
      std::snprintf(buf, sizeof(buf),
                    " %zu node(s) failed; rolled back %zu", failed, reverted);
      break;
    }
  }
  co_return what + tag + buf;
}

template <class Source>
sim::Task<Status> Orchestrator::DeployOne(const Source& src, int hook,
                                          const Action& action,
                                          CodeFlow& flow) {
  // The recovery layer engages when the action asks for retries.
  if (recovery_ != nullptr && action.max_retries > 0) {
    const StatusOr<RecoveryOutcome> r = co_await recovery_->DeployReliably(
        flow, src, hook, action.max_retries);
    co_return r.status();
  }
  const StatusOr<InjectTrace> r = co_await cp_.Inject(flow, src, hook);
  co_return r.status();
}

sim::Task<std::size_t> Orchestrator::RollbackWave(
    const std::vector<CodeFlow*>& nodes, int hook) {
  std::size_t reverted = 0;
  auto revert = [&](std::size_t i) -> sim::Task<Status> {
    Status s = co_await cp_.Rollback(*nodes[i], hook);
    // First-ever deploy on this hook: no previous version exists, so
    // "revert" means detach.
    if (!s.ok()) s = co_await cp_.Detach(*nodes[i], hook);
    if (s.ok()) ++reverted;
    co_return OkStatus();
  };
  (void)co_await ForAll(nodes.size(), revert);
  co_return reverted;
}

}  // namespace rdx::core
