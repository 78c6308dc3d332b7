// Shared harness for the figure-reproduction benches: cluster assembly
// (fabric + control plane + sandboxes + agents), run-to-completion
// helpers, and paper-style table printing. Each bench binary regenerates
// one table/figure of the paper (see DESIGN.md's experiment index).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "agent/agent.h"
#include "common/stats.h"
#include "core/broadcast.h"
#include "core/codeflow.h"

namespace rdx::bench {

// Build stamp: bench/CMakeLists.txt passes the current commit via
// -DRDX_GIT_SHA="..."; a tarball build falls back to "unknown".
#ifndef RDX_GIT_SHA
#define RDX_GIT_SHA "unknown"
#endif
inline const char* GitSha() { return RDX_GIT_SHA; }

// RDX_BENCH_SMOKE=1 makes every bench run tiny iteration counts — a
// seconds-long CI pass that exercises every code path without producing
// publication-quality numbers (scripts/check.sh uses it).
inline bool SmokeMode() {
  const char* v = std::getenv("RDX_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

// Full iteration count normally, a tiny one under RDX_BENCH_SMOKE=1.
inline int ScaledIters(int full, int smoke = 2) {
  return SmokeMode() ? smoke : full;
}

// A control-plane node plus N sandbox nodes, with both management paths
// wired: an RDX CodeFlow per node and an agent per node.
struct Cluster {
  sim::EventQueue events;
  std::unique_ptr<rdma::Fabric> fabric;
  rdma::NodeId cp_node = 0;
  std::unique_ptr<core::ControlPlane> cp;
  std::unique_ptr<agent::AgentController> controller;

  struct NodeBundle {
    rdma::Node* node;
    std::unique_ptr<sim::CpuScheduler> cpu;
    std::unique_ptr<core::Sandbox> sandbox;
    std::unique_ptr<agent::NodeAgent> agent;
    core::CodeFlow* flow = nullptr;
  };
  std::vector<NodeBundle> nodes;

  explicit Cluster(int node_count = 1,
                   core::ControlPlaneConfig cp_config = {},
                   agent::AgentConfig agent_config = {},
                   int cores_per_node = 24) {
    fabric = std::make_unique<rdma::Fabric>(events);
    cp_node = fabric->AddNode("control-plane", 128u << 20).id();
    cp = std::make_unique<core::ControlPlane>(events, *fabric, cp_node,
                                              cp_config);
    controller = std::make_unique<agent::AgentController>(events);
    for (int i = 0; i < node_count; ++i) {
      NodeBundle bundle;
      bundle.node = &fabric->AddNode("node" + std::to_string(i), 64u << 20);
      bundle.cpu = std::make_unique<sim::CpuScheduler>(
          events, cores_per_node, agent_config.cost.cpu_hz);
      core::SandboxConfig sandbox_config;
      sandbox_config.seed = 1000 + i;
      // Benches deploy hundreds of MB-scale images per node; keep the
      // scratchpad far from exhaustion so allocation never perturbs the
      // measurement.
      sandbox_config.scratch_bytes = 48u << 20;
      bundle.sandbox = std::make_unique<core::Sandbox>(events, *bundle.node,
                                                       sandbox_config);
      if (!bundle.sandbox->CtxInit().ok()) std::abort();
      auto reg = bundle.sandbox->CtxRegister();
      if (!reg.ok()) std::abort();
      StatusOr<core::CodeFlow*> flow = sim::RunToCompletion(
          events, cp->CreateCodeFlow(*bundle.sandbox, reg.value()));
      events.Run();
      if (!flow.ok()) std::abort();
      bundle.flow = flow.value();
      bundle.agent = std::make_unique<agent::NodeAgent>(
          events, *bundle.sandbox, *bundle.cpu, agent_config);
      controller->RegisterAgent(bundle.agent.get());
      nodes.push_back(std::move(bundle));
    }
  }

  // Runs the event loop until `flag` is set (or the queue drains).
  void RunUntilFlag(const bool& flag) {
    while (!flag && !events.Empty()) events.Step();
  }
};

// The value of a step a bench cannot go on without; aborts on an error.
template <class T>
T Must(StatusOr<T> result) {
  if (!result.ok()) std::abort();
  return std::move(result).value();
}

// ---- table printing ----

inline void PrintHeader(const std::string& title,
                        const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("    reproduces: %s\n", paper_ref.c_str());
}

inline void PrintRow(const std::vector<std::string>& cells) {
  for (const std::string& cell : cells) std::printf("%16s", cell.c_str());
  std::printf("\n");
}

inline std::string Fmt(double v, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

inline std::string FmtInt(std::uint64_t v) { return std::to_string(v); }

// ---- machine-readable output ----
//
// Tiny JSON object builder for the `BENCH_<name>.json {...}` lines the
// sweep scripts grep out of bench stdout. Insertion order is preserved;
// strings are assumed to need no escaping (bench keys/labels only).

class Json {
 public:
  Json& Add(const std::string& key, double v, int decimals = 3) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return Raw(key, buf);
  }
  Json& Add(const std::string& key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Add(const std::string& key, int v) {
    return Raw(key, std::to_string(v));
  }
  Json& Add(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }

  std::string Str() const { return "{" + body_ + "}"; }

 private:
  Json& Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
    return *this;
  }
  std::string body_;
};

// Every BENCH_*.json line carries a provenance stamp: the commit it was
// built from, whether it ran in smoke mode, and (when the caller passes
// its event queue) the final virtual-clock time of the run — enough to
// tell two sweeps apart months later.
inline void PrintBenchJson(const std::string& name, const Json& json,
                           const sim::EventQueue* events = nullptr) {
  Json stamped = json;
  stamped.Add("git_sha", std::string(GitSha()));
  stamped.Add("smoke", SmokeMode() ? 1 : 0);
  if (events != nullptr) {
    stamped.Add("vclock_end_ns", static_cast<std::uint64_t>(events->Now()));
  }
  std::printf("BENCH_%s.json %s\n", name.c_str(), stamped.Str().c_str());
}

}  // namespace rdx::bench
