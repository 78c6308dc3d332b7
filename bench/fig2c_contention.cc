// Fig 2c: control-path / data-path contention. A microservice app runs
// near CPU saturation while extension updates are injected at increasing
// rates (x-axis: updates per 10 s). With the agent baseline, each update
// spends ms of *node* CPU on validation + compilation, and request
// completion rate collapses; with RDX the same update rate leaves the
// data path untouched.
#include "bench/bench_util.h"
#include "mesh/mesh.h"

using namespace rdx;

namespace {

struct Point {
  double completion_rate;
  double cpu_util;
};

Point RunWindow(bool agent_path, int updates_per_10s, std::uint64_t seed) {
  // Smoke mode shrinks the measurement window (virtual seconds cost real
  // wall time through event count); the shape is meaningless but every
  // path still runs.
  const sim::Duration warmup =
      bench::SmokeMode() ? sim::Millis(50) : sim::Seconds(1);
  const sim::Duration window =
      bench::SmokeMode() ? sim::Millis(200) : sim::Seconds(10);
  sim::EventQueue events;
  rdma::Fabric fabric(events);
  const rdma::NodeId cp_id = fabric.AddNode("cp", 128u << 20).id();
  core::ControlPlane cp(events, fabric, cp_id);

  mesh::MeshConfig config;
  config.app = mesh::AppSpec::Generate("fig2c", 4, 42);
  config.request_rate_per_s = 480;
  config.cores_per_service = 1;
  // Heavier per-hop service demand so one core saturates near the paper's
  // ~500 req/s operating point.
  config.cost.mesh_request_cycles = 6'800'000;  // ~2 ms
  config.seed = seed;
  mesh::MeshSim sim(events, fabric, config);

  // Wire both management paths.
  std::vector<std::unique_ptr<agent::NodeAgent>> agents;
  std::vector<core::CodeFlow*> flows;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    agents.push_back(std::make_unique<agent::NodeAgent>(
        events, sim.sandbox(i), sim.cpu(i), agent::AgentConfig{}));
    auto reg = sim.sandbox(i).CtxRegister();
    flows.push_back(
        sim::RunToCompletion(events,
                             cp.CreateCodeFlow(sim.sandbox(i), reg.value()))
            .value());
    events.Run();
  }

  sim.StartWorkload();
  events.RunUntil(warmup);
  (void)sim.TakeMetrics();

  // Schedule `updates_per_10s` filter updates, spread over the window,
  // round-robin across services.
  // Each update is an app-level rollout: the new filter version reaches
  // every sidecar (as an Istio EnvoyFilter change would).
  const sim::SimTime window_start = events.Now();
  for (int u = 0; u < updates_per_10s; ++u) {
    const sim::SimTime at =
        window_start + window * (u + 1) / (updates_per_10s + 1);
    events.ScheduleAt(at, [&, u] {
      wasm::FilterModule filter = wasm::GenerateFilter(
          5000, static_cast<std::uint64_t>(u + 1));
      for (std::size_t svc = 0; svc < sim.size(); ++svc) {
        if (agent_path) {
          sim::Start(agents[svc]->Load(filter, 0),
                     [](StatusOr<agent::AgentTrace>) {});
        } else {
          sim::Start(cp.Inject(*flows[svc], filter, 0),
                     [](StatusOr<core::InjectTrace>) {});
        }
      }
    });
  }
  events.RunUntil(window_start + window);
  mesh::MeshMetrics metrics = sim.TakeMetrics();
  sim.StopWorkload();

  double util = 0;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    util = std::max(util, sim.cpu(i).Utilization());
  }
  return {metrics.CompletionRatePerSec(), util};
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Fig 2c: request completion vs control-path update rate",
      "Figure 2c (agent contention halves completion near saturation; "
      "agentless RDX stays flat)");
  bench::PrintRow({"upd/10s", "agent_req_s", "rdx_req_s", "agent_cpu"});

  const std::vector<int> kRates = bench::SmokeMode()
                                      ? std::vector<int>{0, 50}
                                      : std::vector<int>{0, 50, 100, 200,
                                                         300, 400};
  for (int rate : kRates) {
    const Point with_agent = RunWindow(/*agent_path=*/true, rate, 7);
    const Point with_rdx = RunWindow(/*agent_path=*/false, rate, 7);
    bench::PrintRow({bench::FmtInt(rate),
                     bench::Fmt(with_agent.completion_rate, 0),
                     bench::Fmt(with_rdx.completion_rate, 0),
                     bench::Fmt(with_agent.cpu_util * 100, 0) + "%"});
  }
  std::printf(
      "\nshape check: the agent line degrades with update rate (toward ~2x "
      "at 400/10s); the RDX line is flat within noise.\n");
  return 0;
}
