// Agentless service mesh (§4, first case study): an Istio/Envoy-style
// deployment where Wasm filters are injected into every sidecar by the
// RDX control plane — a filter registry (compile cache), a filter
// dispatcher (link + deploy), and a filter inspector (XState APIs) — with
// the local nodes only executing.
//
// The example runs an 8-service app, injects a rate-limit-style filter
// everywhere, serves traffic, then introspects per-service counters.
#include <cstdio>

#include "core/broadcast.h"
#include "mesh/mesh.h"

using namespace rdx;

int main() {
  sim::EventQueue events;
  rdma::Fabric fabric(events);
  rdma::Node& cp_node = fabric.AddNode("control-plane", 128u << 20);
  core::ControlPlane cp(events, fabric, cp_node.id());

  // An 8-microservice app; each service gets its own node + sidecar.
  mesh::MeshConfig config;
  config.app = mesh::AppSpec::Generate("shop", 8, 2024);
  config.request_rate_per_s = 3000;
  mesh::MeshSim mesh(events, fabric, config);
  std::printf("app '%s': %zu services, traversal depth %zu\n",
              mesh.app().name.c_str(), mesh.app().size(),
              mesh.app().DependencyWaves().size());

  // Bind a CodeFlow to every sidecar.
  std::vector<core::CodeFlow*> flows;
  for (std::size_t i = 0; i < mesh.size(); ++i) {
    auto reg = mesh.sandbox(i).CtxRegister();
    if (!reg.ok()) return 1;
    const StatusOr<core::CodeFlow*> flow = sim::RunToCompletion(
        events, cp.CreateCodeFlow(mesh.sandbox(i), reg.value()));
    events.Run();
    if (!flow.ok()) return 1;
    flows.push_back(flow.value());
  }

  // A hand-built filter: tag every request (set_header) and count it
  // (counter_incr), passing the verdict through.
  wasm::FilterModule filter;
  filter.name = "request-tagger";
  filter.num_locals = 2;
  filter.imports = {{"get_header"}, {"set_header"}, {"counter_incr"}};
  using wasm::WOp;
  filter.code = {
      {WOp::kConst, 0},      {WOp::kConst, 0},
      {WOp::kCallHost, 0},   // local copy of header[0]
      {WOp::kSetLocal, 0},
      {WOp::kConst, 7},      {WOp::kGetLocal, 0},
      {WOp::kCallHost, 1},   // set_header(7, header[0]) - the tag
      {WOp::kDrop, 0},
      {WOp::kConst, 1},      {WOp::kConst, 0},
      {WOp::kCallHost, 2},   // counter_incr(1)
      {WOp::kDrop, 0},
      {WOp::kConst, 1},      {WOp::kReturn, 0},  // accept
  };

  // Inject it into every sidecar with one collective call.
  core::CollectiveCodeFlow group(cp, flows);
  std::vector<const wasm::FilterModule*> filters(mesh.size(), &filter);
  const StatusOr<core::BroadcastResult> r = sim::RunToCompletion(
      events, group.BroadcastWasm(filters, 0, nullptr));
  if (!r.ok()) {
    std::printf("broadcast failed: %s\n", r.status().ToString().c_str());
    return 1;
  }
  std::printf("filter deployed to %zu sidecars; commit window %.1f us\n",
              r->nodes, sim::ToMicros(r->commit_window));
  events.Run();

  // Serve one second of traffic.
  mesh.StartWorkload();
  events.RunUntil(events.Now() + sim::Seconds(1));
  mesh.StopWorkload();
  mesh::MeshMetrics metrics = mesh.TakeMetrics();
  std::printf("served %llu requests (%.0f req/s, p99 latency %.1f us)\n",
              static_cast<unsigned long long>(metrics.completed),
              metrics.CompletionRatePerSec(),
              static_cast<double>(metrics.latency_ns.Percentile(0.99)) / 1e3);

  // Filter inspector: every sidecar executed the filter on every hop.
  std::printf("per-sidecar filter executions:\n");
  for (std::size_t i = 0; i < mesh.size(); ++i) {
    std::printf("  %-12s %llu\n", mesh.app().services[i].name.c_str(),
                static_cast<unsigned long long>(
                    mesh.sandbox(i).stats().executions));
  }
  return 0;
}
