// Fault-rate sweep for the self-healing control plane (§5 resilience):
// deploys extensions through the RecoveryManager while the fault
// injector drops a fraction of all in-flight work requests. Every drop
// errors the victim QP (RETRY_EXC_ERR) and flushes its queue, so each
// faulted deploy exercises the full recovery path: deadline/failure
// detection, QP reconnect + re-handshake, idempotency probe, backoff,
// re-injection. Reported per fault rate: success rate within the retry
// budget and end-to-end deploy latency (p50/p99).
#include "bench/bench_util.h"
#include "bpf/proggen.h"
#include "core/reliability.h"
#include "fault/injector.h"

using namespace rdx;

int main() {
  bench::PrintHeader("Fault recovery: deploy success + latency vs drop rate",
                     "§5 resilience (self-healing deploys under faults)");
  bench::PrintRow(
      {"fault_rate", "deploys", "ok", "p50_us", "p99_us", "max_attempts"});

  const int kNodes = bench::SmokeMode() ? 2 : 4;
  constexpr int kMaxRetries = 8;
  std::vector<double> rates = {0.0, 0.01, 0.05, 0.10};
  if (bench::SmokeMode()) rates = {0.0, 0.05};

  for (double rate : rates) {
    bench::Cluster cluster(kNodes);
    fault::FaultInjector injector(cluster.events, *cluster.fabric);
    if (rate > 0.0) {
      char plan_text[96];
      std::snprintf(plan_text, sizeof(plan_text),
                    "seed 7\ndrop node=* at=0 for=10s p=%.3f", rate);
      auto plan = fault::ParseFaultPlan(plan_text);
      if (!plan.ok() || !injector.Arm(plan.value()).ok()) std::abort();
    }
    core::RecoveryManager recovery(*cluster.cp, {}, /*seed=*/42);

    Histogram latency_ns;
    int ok = 0, total = 0, max_attempts = 0;
    for (int node = 0; node < kNodes; ++node) {
      const auto hook_count =
          static_cast<int>(cluster.nodes[node].sandbox->hook_count());
      for (int hook = 0; hook < hook_count; ++hook) {
        bpf::Program prog = bpf::GenerateProgram(
            {.target_insns = 1300,
             .seed = static_cast<std::uint64_t>(total + 1)});
        ++total;
        const StatusOr<core::RecoveryOutcome> r = sim::RunToCompletion(
            cluster.events,
            recovery.DeployReliably(*cluster.nodes[node].flow, prog, hook,
                                    kMaxRetries));
        if (r.ok()) {
          ++ok;
          latency_ns.Add(static_cast<std::uint64_t>(r->elapsed));
          if (r->attempts > max_attempts) max_attempts = r->attempts;
        }
      }
    }

    const double success = total ? static_cast<double>(ok) / total : 0.0;
    const double p50_us = latency_ns.Percentile(0.5) / 1000.0;
    const double p99_us = latency_ns.Percentile(0.99) / 1000.0;
    bench::PrintRow({bench::Fmt(rate, 2), bench::FmtInt(total),
                     bench::FmtInt(ok), bench::Fmt(p50_us, 1),
                     bench::Fmt(p99_us, 1), bench::FmtInt(max_attempts)});
    bench::PrintBenchJson("fault_recovery",
                          bench::Json()
                              .Add("fault_rate", rate)
                              .Add("deploys", static_cast<std::uint64_t>(total))
                              .Add("success_rate", success)
                              .Add("p50_us", p50_us, 1)
                              .Add("p99_us", p99_us, 1)
                              .Add("max_attempts", max_attempts),
                          &cluster.events);
  }
  std::printf(
      "\nshape check: success stays at/near 100%% through 10%% drop rate "
      "(the retry budget absorbs faults); p99 grows with the rate as "
      "reconnect + backoff rounds stack up.\n");
  return 0;
}
