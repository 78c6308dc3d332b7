// Consistent cluster-wide updates (§4, second case study): roll a Wasm
// filter from v1 to v2 across a live 11-service mesh three ways and watch
// what in-flight requests observe:
//   - agent rollout      : eventual consistency, mixed-version requests
//   - rdx_broadcast      : microsecond window, near-zero mixed
//   - rdx_broadcast + BBU: requests buffered across the window — zero
//                          mixed observations, bounded buffering
#include <cstdio>

#include "agent/agent.h"
#include "core/broadcast.h"
#include "mesh/mesh.h"

using namespace rdx;

namespace {

struct Deployment {
  sim::EventQueue events;
  rdma::Fabric fabric{events};
  std::unique_ptr<core::ControlPlane> cp;
  std::unique_ptr<agent::AgentController> controller;
  std::unique_ptr<mesh::MeshSim> mesh;
  std::vector<std::unique_ptr<agent::NodeAgent>> agents;
  std::vector<core::CodeFlow*> flows;

  Deployment() {
    rdma::Node& cp_node = fabric.AddNode("control-plane", 256u << 20);
    cp = std::make_unique<core::ControlPlane>(events, fabric, cp_node.id());
    controller = std::make_unique<agent::AgentController>(events);
    mesh::MeshConfig config;
    config.app = mesh::AppSpec::Generate("payments", 11, 7);
    config.request_rate_per_s = 4000;
    mesh = std::make_unique<mesh::MeshSim>(events, fabric, config);
    for (std::size_t i = 0; i < mesh->size(); ++i) {
      agents.push_back(std::make_unique<agent::NodeAgent>(
          events, mesh->sandbox(i), mesh->cpu(i)));
      controller->RegisterAgent(agents.back().get());
      auto reg = mesh->sandbox(i).CtxRegister();
      StatusOr<core::CodeFlow*> flow = sim::RunToCompletion(
          events, cp->CreateCodeFlow(mesh->sandbox(i), reg.value()));
      events.Run();
      flows.push_back(flow.ok() ? flow.value() : nullptr);
    }
  }

  void InstallV1(const wasm::FilterModule& v1) {
    core::CollectiveCodeFlow group(*cp, flows);
    std::vector<const wasm::FilterModule*> filters(mesh->size(), &v1);
    if (!sim::RunToCompletion(events, group.BroadcastWasm(filters, 0, nullptr))
             .ok()) {
      std::abort();
    }
  }
};

}  // namespace

int main() {
  wasm::FilterModule v1 = wasm::GenerateFilter(300, 1);
  wasm::FilterModule v2 = wasm::GenerateFilter(300, 2);

  // --- agent rollout ---
  {
    Deployment dep;
    dep.InstallV1(v1);
    dep.mesh->StartWorkload();
    dep.events.RunUntil(dep.events.Now() + sim::Millis(100));
    (void)dep.mesh->TakeMetrics();
    const StatusOr<agent::RolloutResult> r = sim::RunToCompletion(
        dep.events,
        dep.controller->Rollout(v2, 0, dep.mesh->app().DependencyWaves()));
    if (!r.ok()) std::abort();
    const double window_ms = sim::ToMillis(r->inconsistency_window);
    dep.events.RunUntil(dep.events.Now() + sim::Millis(100));
    mesh::MeshMetrics metrics = dep.mesh->TakeMetrics();
    std::printf(
        "agent rollout:   window %7.1f ms, %4llu requests saw mixed "
        "versions\n",
        window_ms,
        static_cast<unsigned long long>(metrics.mixed_version));
  }

  // --- rdx_broadcast, with and without BBU ---
  for (bool use_bbu : {false, true}) {
    Deployment dep;
    dep.InstallV1(v1);
    dep.mesh->StartWorkload();
    dep.events.RunUntil(dep.events.Now() + sim::Millis(100));
    (void)dep.mesh->TakeMetrics();
    core::CollectiveCodeFlow group(*dep.cp, dep.flows);
    std::vector<const wasm::FilterModule*> filters(dep.mesh->size(), &v2);
    const StatusOr<core::BroadcastResult> broadcast = sim::RunToCompletion(
        dep.events,
        group.BroadcastWasm(filters, 0, use_bbu ? dep.mesh.get() : nullptr));
    if (!broadcast.ok()) std::abort();
    const core::BroadcastResult& result = broadcast.value();
    dep.events.RunUntil(dep.events.Now() + sim::Millis(100));
    mesh::MeshMetrics metrics = dep.mesh->TakeMetrics();
    std::printf(
        "rdx%s: window %7.1f us, %4llu requests saw mixed versions%s\n",
        use_bbu ? "+bbu        " : " (no buffer)",
        sim::ToMicros(result.commit_window),
        static_cast<unsigned long long>(metrics.mixed_version),
        use_bbu ? (" (" + std::to_string(result.buffered_requests) +
                   " requests buffered)").c_str()
                : "");
  }
  return 0;
}
