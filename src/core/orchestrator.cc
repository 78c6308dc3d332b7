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
  programs_.emplace(std::move(name), std::move(prog));
}

void Orchestrator::RegisterFilter(std::string name,
                                  wasm::FilterModule module) {
  filters_.emplace(std::move(name), std::move(module));
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
      const ExtensionDecl& decl = ext->second;
      if (!decl.is_wasm && programs_.count(decl.name) == 0) {
        return FailedPrecondition("no program registered for '" +
                                  decl.name + "'");
      }
      if (decl.is_wasm && filters_.count(decl.name) == 0) {
        return FailedPrecondition("no filter registered for '" + decl.name +
                                  "'");
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

void Orchestrator::Execute(
    const OrchestrationPlan& plan, UpdateBarrier* barrier,
    std::function<void(StatusOr<OrchestrationReport>)> done) {
  Status valid = ValidatePlan(plan);
  if (!valid.ok()) {
    done(valid);
    return;
  }
  auto report = std::make_shared<OrchestrationReport>();
  // Own a copy: the caller's plan need not outlive the async execution.
  auto plan_copy = std::make_shared<const OrchestrationPlan>(plan);
  auto wrapped = [plan_copy, done = std::move(done)](
                     StatusOr<OrchestrationReport> r) { done(std::move(r)); };
  RunAction(*plan_copy, 0, barrier, report, std::move(wrapped),
            cp_.events().Now());
}

void Orchestrator::RunAction(
    const OrchestrationPlan& plan, std::size_t index, UpdateBarrier* barrier,
    std::shared_ptr<OrchestrationReport> report,
    std::function<void(StatusOr<OrchestrationReport>)> done,
    sim::SimTime t0) {
  if (index >= plan.actions.size()) {
    report->total = cp_.events().Now() - t0;
    done(*report);
    return;
  }
  const Action& action = plan.actions[index];
  const ExtensionDecl& decl = plan.extensions.at(action.extension);
  const GroupDecl& group = plan.groups.at(action.group);
  const sim::SimTime action_start = cp_.events().Now();

  auto next = [this, &plan, index, barrier, report, done, t0,
               action_start](const std::string& what, Status s) mutable {
    if (!s.ok()) {
      done(s);
      return;
    }
    char line[192];
    std::snprintf(line, sizeof(line), "%s (%.1f us)", what.c_str(),
                  sim::ToMicros(cp_.events().Now() - action_start));
    report->log.emplace_back(line);
    ++report->actions_executed;
    RunAction(plan, index + 1, barrier, report, std::move(done), t0);
  };

  switch (action.kind) {
    case ActionKind::kDeploy: {
      std::vector<CodeFlow*> targets;
      for (std::size_t node : group.nodes) targets.push_back(flows_[node]);
      const std::string what = "deploy " + decl.name + " -> " + group.name;

      if (action.strategy == RolloutStrategy::kBroadcast) {
        auto collective =
            std::make_shared<CollectiveCodeFlow>(cp_, targets);
        UpdateBarrier* use_barrier =
            action.consistency == ConsistencyLevel::kBbu ? barrier : nullptr;
        auto on_done = [collective, next,
                        what](StatusOr<BroadcastResult> r) mutable {
          next(what + " [broadcast]", r.ok() ? OkStatus() : r.status());
        };
        if (decl.is_wasm) {
          const wasm::FilterModule& module = filters_.at(decl.name);
          std::vector<const wasm::FilterModule*> per_node(targets.size(),
                                                          &module);
          collective->BroadcastWasm(per_node, decl.hook, use_barrier,
                                    std::move(on_done));
        } else {
          collective->Broadcast(programs_.at(decl.name), decl.hook,
                                use_barrier, std::move(on_done));
        }
        return;
      }

      // rolling / parallel: per-node injections through DeployOne (which
      // engages the recovery layer when the action asks for retries).
      auto succeeded = std::make_shared<std::vector<CodeFlow*>>();
      auto failed = std::make_shared<std::size_t>(0);
      const char* tag = action.strategy == RolloutStrategy::kRolling
                            ? " [rolling]"
                            : " [parallel]";
      // Completes the action once its nodes are settled, applying the
      // failure policy to whatever `failed`/`succeeded` accumulated.
      auto settle = [this, next, what, tag, report, succeeded, failed, &decl,
                     &action](Status abort_status) mutable {
        if (*failed == 0) {
          next(what + tag, OkStatus());
          return;
        }
        report->nodes_failed += *failed;
        ++report->actions_degraded;
        switch (action.on_failure) {
          case OnFailure::kAbort:
            next(what + tag, abort_status);
            return;
          case OnFailure::kSkip: {
            char buf[64];
            std::snprintf(buf, sizeof(buf), " skipped %zu failed node(s)",
                          *failed);
            next(what + tag + buf, OkStatus());
            return;
          }
          case OnFailure::kRollback:
            RollbackWave(*succeeded, decl.hook,
                         [next, what, tag, report,
                          failed](std::size_t reverted) mutable {
                           report->nodes_rolled_back += reverted;
                           char buf[96];
                           std::snprintf(buf, sizeof(buf),
                                         " %zu node(s) failed; rolled back "
                                         "%zu",
                                         *failed, reverted);
                           next(what + tag + buf, OkStatus());
                         });
            return;
        }
      };

      if (action.strategy == RolloutStrategy::kParallel) {
        ForAll(
            targets.size(),
            [&](std::size_t i, std::function<void(Status)> node_done) {
              CodeFlow* flow = targets[i];
              DeployOne(decl, action, flow,
                        [flow, succeeded, failed, node_done](Status s) {
                          if (s.ok()) {
                            succeeded->push_back(flow);
                          } else {
                            ++*failed;
                          }
                          node_done(s);
                        });
            },
            settle);
        return;
      }
      // Rolling: strictly one node at a time. abort stops the wave at the
      // first failure; skip/rollback walk the whole group so the policy
      // sees the full picture.
      auto roll = std::make_shared<std::function<void(std::size_t)>>();
      std::weak_ptr<std::function<void(std::size_t)>> weak = roll;
      *roll = [this, targets, &decl, &action, succeeded, failed, settle,
               weak](std::size_t i) mutable {
        auto self = weak.lock();
        if (!self) return;
        if (i >= targets.size()) {
          settle(OkStatus());
          return;
        }
        DeployOne(decl, action, targets[i],
                  [i, targets, succeeded, failed, settle, self,
                   &action](Status s) mutable {
                    if (s.ok()) {
                      succeeded->push_back(targets[i]);
                      (*self)(i + 1);
                      return;
                    }
                    ++*failed;
                    if (action.on_failure == OnFailure::kAbort) {
                      settle(s);
                      return;
                    }
                    (*self)(i + 1);
                  });
      };
      (*roll)(0);
      return;
    }
    case ActionKind::kRollback:
    case ActionKind::kDetach: {
      const bool rollback = action.kind == ActionKind::kRollback;
      const std::string what = std::string(rollback ? "rollback " : "detach ") +
                               decl.name + " @ " + group.name;
      ForAll(
          group.nodes.size(),
          [&](std::size_t i, std::function<void(Status)> node_done) {
            CodeFlow& flow = *flows_[group.nodes[i]];
            if (rollback) {
              cp_.Rollback(flow, decl.hook, std::move(node_done));
            } else {
              cp_.Detach(flow, decl.hook, std::move(node_done));
            }
          },
          [next, what](Status s) mutable { next(what, s); });
      return;
    }
  }
}

void Orchestrator::DeployOne(const ExtensionDecl& decl, const Action& action,
                             CodeFlow* flow,
                             std::function<void(Status)> done) {
  auto deploy = [&](const auto& src) {
    // The recovery layer engages when the action asks for retries.
    if (recovery_ != nullptr && action.max_retries > 0) {
      recovery_->DeployReliably(
          *flow, src, decl.hook,
          [done](StatusOr<RecoveryOutcome> r) { done(r.status()); },
          action.max_retries);
    } else {
      cp_.Inject(*flow, src, decl.hook,
                 [done](StatusOr<InjectTrace> r) { done(r.status()); });
    }
  };
  if (decl.is_wasm) {
    deploy(filters_.at(decl.name));
  } else {
    deploy(programs_.at(decl.name));
  }
}

void Orchestrator::RollbackWave(std::vector<CodeFlow*> nodes, int hook,
                                std::function<void(std::size_t)> done) {
  auto reverted = std::make_shared<std::size_t>(0);
  ForAll(
      nodes.size(),
      [&](std::size_t i, std::function<void(Status)> node_done) {
        CodeFlow* flow = nodes[i];
        auto on_node = [reverted, node_done](Status s) {
          if (s.ok()) ++*reverted;
          node_done(OkStatus());
        };
        cp_.Rollback(*flow, hook,
                     [this, flow, hook, on_node](Status s) mutable {
                       if (s.ok()) {
                         on_node(OkStatus());
                         return;
                       }
                       // First-ever deploy on this hook: no previous
                       // version exists, so "revert" means detach.
                       cp_.Detach(*flow, hook, on_node);
                     });
      },
      [reverted, done = std::move(done)](Status) { done(*reverted); });
}

}  // namespace rdx::core
