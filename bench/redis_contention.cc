// §6 "RDX's benefits": agentless eBPF over RDX improves Redis throughput
// by up to 25.3% over the agent baseline. The agent tax has two parts:
// periodic XState polling (map walks for telemetry) and the CPU burned by
// extension (re)injection — both on the cores that serve GET/SET.
#include "bench/bench_util.h"
#include "bpf/proggen.h"
#include "kvstore/kvstore.h"

using namespace rdx;

namespace {

double RunStore(bool agent_path, std::uint64_t seed) {
  sim::EventQueue events;
  rdma::Fabric fabric(events);
  const rdma::NodeId cp_id = fabric.AddNode("cp", 128u << 20).id();
  core::ControlPlane cp(events, fabric, cp_id);

  rdma::Node& node = fabric.AddNode("redis-node", 64u << 20);
  kvstore::StoreConfig store_config;
  store_config.cores = 1;  // Redis is single-threaded
  store_config.seed = seed;
  kvstore::KvStore store(events, node, store_config);

  agent::AgentConfig agent_config;
  agent_config.state_poll_interval = sim::Millis(20);  // telemetry export
  agent::NodeAgent node_agent(events, store.sandbox(), store.cpu(),
                              agent_config);

  auto reg = store.sandbox().CtxRegister();
  core::CodeFlow* flow =
      sim::RunToCompletion(events,
                           cp.CreateCodeFlow(store.sandbox(), reg.value()))
          .value();
  events.Run();

  // Attach the tracing extension through the path under test.
  bpf::Program prog = bpf::GenerateProgram({.target_insns = 800, .seed = 5});
  if (agent_path) {
    bench::Must(sim::RunToCompletion(events, node_agent.Load(prog, 0)));
  } else {
    bench::Must(sim::RunToCompletion(events, cp.Inject(*flow, prog, 0)));
  }

  // Steady-state taxes: the agent polls XState and periodically reloads
  // updated extensions; RDX does both from the remote control plane.
  if (agent_path) {
    node_agent.StartStatePolling();
  }
  auto churn = std::make_shared<std::function<void(int)>>();
  *churn = [&, churn](int n) {
    events.ScheduleAfter(sim::Millis(250), [&, churn, n] {
      bpf::Program update = bpf::GenerateProgram(
          {.target_insns = 800, .seed = static_cast<std::uint64_t>(n + 10)});
      if (agent_path) {
        sim::Start(node_agent.Load(update, 0),
                   [](StatusOr<agent::AgentTrace>) {});
      } else {
        sim::Start(cp.Inject(*flow, update, 0),
                   [](StatusOr<core::InjectTrace>) {});
      }
      (*churn)(n + 1);
    });
  };
  (*churn)(0);

  kvstore::WorkloadConfig workload_config;
  workload_config.clients = 64;
  kvstore::KvWorkload workload(events, store, workload_config);
  workload.Start();
  // Smoke mode shrinks the virtual measurement window; see fig2c.
  events.RunUntil(events.Now() + (bench::SmokeMode() ? sim::Millis(50)
                                                     : sim::Seconds(1)));
  (void)store.TakeMetrics();
  events.RunUntil(events.Now() + (bench::SmokeMode() ? sim::Millis(300)
                                                     : sim::Seconds(5)));
  kvstore::StoreMetrics metrics = store.TakeMetrics();
  workload.Stop();
  return metrics.ThroughputPerSec();
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Redis-style KV throughput: agent vs agentless (RDX)",
      "Section 6 (agentless eBPF over RDX improves Redis throughput by up "
      "to 25.3%)");
  bench::PrintRow({"mode", "ops_per_s"});
  const double agent_tput = RunStore(/*agent_path=*/true, 3);
  const double rdx_tput = RunStore(/*agent_path=*/false, 3);
  bench::PrintRow({"agent", bench::Fmt(agent_tput, 0)});
  bench::PrintRow({"rdx", bench::Fmt(rdx_tput, 0)});
  std::printf("\nimprovement: +%.1f%% (paper: up to +25.3%%)\n",
              100.0 * (rdx_tput - agent_tput) / agent_tput);
  return 0;
}
