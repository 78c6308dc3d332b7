// rdxbench: end-to-end and per-layer benchmark of the RDX simulator.
//
//   rdxbench --workload <kv_ebpf|fleet_deploy|mesh_wasm> --seed <n>
//            --seconds <s> --trace <0|1> [--sha <build id>]
//
// Set-up (cluster build, handshakes, first attach) is timed on its own
// several times; then repetitions, each a fresh set-up and the workload's
// fixed amount of virtual work (the window), run until --seconds of host
// time have passed. setup_s is the median set-up, host_wall_s the fastest
// window: on a shared host, interference only ever slows a window down,
// and it comes in episodes that can cover most of a run, so the fastest
// repetition is the steadiest measure of the work's own cost. Virtual
// metrics come from the first repetition, and every later one must
// reproduce them exactly. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}; --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "replay.h"

namespace rdxbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string sha = "unknown";
};

struct Metric {
  const char* name;
  const char* unit;
};

// Per-layer metrics of the traced run, reported for every workload; a
// layer the workload does not exercise reads 0 (see rdxbench/README.md).
constexpr Metric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.event_self_host_ns", "ns"},
    {"sim.event_engine_host_ns", "ns"},
    {"sim.cpu_submit_host_ns", "ns"},
    {"sim.cpu_util.data", "ratio"},
    {"sim.cpu_util.cp", "ratio"},
    {"sim.cpu_active_mean", "count"},
    {"bpf.exec_insns_per_req", "count"},
    {"bpf.exec_host_ns_per_insn", "ns"},
    {"bpf.verify_host_ns_per_insn", "ns"},
    {"bpf.jit_host_ns_per_insn", "ns"},
    {"bpf.image_decode_host_ns_per_kb", "ns"},
    {"core.ebpf_prepare_host_ns_per_kb", "ns"},
    {"core.wasm_prepare_host_ns_per_kb", "ns"},
    {"wasm.exec_host_ns_per_insn", "ns"},
    {"wasm.compile_host_ns_per_insn", "ns"},
    {"rdma.wrs", "count"},
    {"rdma.doorbells", "count"},
    {"rdma.chained_wrs", "count"},
    {"rdma.inline_wrs", "count"},
    {"rdma.unsignaled_wrs", "count"},
    {"rdma.coalesced_cqes", "count"},
    {"rdma.bytes_written", "bytes"},
    {"rdma.failures", "count"},
    {"rdma.mtt_hit_ratio", "ratio"},
    {"rdma.wr_p50_ns", "ns"},
    {"rdma.wr_p99_ns", "ns"},
    {"rdma.wr_host_ns", "ns"},
    {"core.inject.validate_us", "us"},
    {"core.inject.jit_us", "us"},
    {"core.inject.xstate_us", "us"},
    {"core.inject.link_us", "us"},
    {"core.inject.transfer_us", "us"},
    {"core.inject.commit_us", "us"},
    {"core.inject.dispatch_us", "us"},
    {"core.pipeline.compile_us", "us"},
    {"core.pipeline.transfer_us", "us"},
    {"core.pipeline.commit_us", "us"},
    {"core.artifact_hit_ratio", "ratio"},
    {"core.broadcast.prepare_us", "us"},
    {"core.broadcast.commit_window_us", "us"},
    {"core.broadcast.buffered", "count"},
    {"core.xstate_dump_us", "us"},
    {"core.cp_call_host_ns", "ns"},
    {"core.sandbox.executions", "count"},
    {"core.sandbox.refreshes", "count"},
    {"core.sandbox.torn", "count"},
    {"core.sandbox.reclaimed_bytes", "bytes"},
    {"core.scratch_used_frac", "ratio"},
    {"kvstore.execute_host_ns", "ns"},
    {"kvstore.hit_ratio", "ratio"},
    {"kvstore.ext_failures", "count"},
    {"mesh.buffered_peak", "count"},
    {"mesh.mixed_version", "count"},
    {"mesh.failed", "count"},
    {"telemetry.ring_emits", "count"},
    {"telemetry.harvest_events", "count"},
    {"telemetry.harvest_loss_ratio", "ratio"},
    {"attr.sim_frac", "ratio"},
    {"attr.bpf_frac", "ratio"},
    {"attr.wasm_frac", "ratio"},
    {"attr.rdma_frac", "ratio"},
    {"attr.core_frac", "ratio"},
    {"attr.kvstore_frac", "ratio"},
    {"attr.telemetry_frac", "ratio"},
    {"attr.harness_frac", "ratio"},
    {"attr.residual_frac", "ratio"},
    {"trace.host_wall_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

// A run needs this many samples for its percentiles to mean something.
constexpr std::size_t kMinRequests = 1000;
constexpr std::size_t kMinDeploys = 100;
// setup_s is the median of at least this many set-ups, taking at least
// this much host time together.
constexpr std::size_t kMinSetups = 9;
constexpr double kMinSetupSeconds = 0.25;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "rdxbench: %s\nusage: rdxbench --workload "
               "<kv_ebpf|fleet_deploy|mesh_wasm> --seed <n> --seconds <s> "
               "--trace <0|1> [--sha <build id>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0 && args.seconds <= 600)) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--sha") {
      args.sha = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "kv_ebpf") return MakeKvEbpf(seed);
  if (name == "fleet_deploy") return MakeFleetDeploy(seed);
  if (name == "mesh_wasm") return MakeMeshWasm(seed);
  return nullptr;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The end-to-end virtual metrics of one repetition, in BENCHMARK.json
// order.
std::vector<std::pair<Metric, double>> VirtualMetrics(const Outcome& o) {
  const double seconds = o.window_ns / 1e9;
  return {
      {{"v_req_per_s", "req/s"},
       seconds > 0 ? static_cast<double>(o.requests) / seconds : 0},
      {{"v_req_p50_us", "us"}, Quantile(o.request_ns, 0.50) / 1e3},
      {{"v_req_p99_us", "us"}, Quantile(o.request_ns, 0.99) / 1e3},
      {{"v_deploy_p50_us", "us"}, Quantile(o.deploy_ns, 0.50) / 1e3},
      {{"v_deploy_p90_us", "us"}, Quantile(o.deploy_ns, 0.90) / 1e3},
      {{"v_visible_p50_us", "us"}, Quantile(o.visible_ns, 0.50) / 1e3},
  };
}

// Everything a repetition computed on the virtual clock, printed with all
// digits: two runs with one seed must produce the same string.
std::string VirtualDigest(const Outcome& o) {
  std::string s = "{\"attempted\": " + std::to_string(o.attempted) +
                  ", \"failed\": " + std::to_string(o.failed);
  for (const auto& [metric, value] : VirtualMetrics(o)) {
    s += ", \"" + std::string(metric.name) + "\": " + Num(value);
  }
  for (const auto& [name, value] : o.layer) {
    s += ", \"" + name + "\": " + Num(value);
  }
  return s + "}";
}

// Output checks every run makes on top of the workload's own.
void CheckSampleSizes(Outcome& o) {
  if (o.request_ns.size() < kMinRequests) {
    o.errors.push_back("only " + std::to_string(o.request_ns.size()) +
                       " requests completed in the window");
  }
  if (o.deploy_ns.size() < kMinDeploys) {
    o.errors.push_back("only " + std::to_string(o.deploy_ns.size()) +
                       " deploys completed");
  }
}

struct Rep {
  double wall_s = 0;
  Outcome outcome;
};

Rep RunRep(const Workload& workload, Spans* spans) {
  Rep rep;
  std::unique_ptr<Rig> rig = workload.Setup(spans);
  if (spans != nullptr) spans->ResetTotals();
  const auto start = HostClock::now();
  rig->Measure();
  rep.wall_s = SecondsSince(start);
  rep.outcome = rig->Finish();
  CheckSampleSizes(rep.outcome);
  return rep;
}

void PrintResult(const Args& args, const Outcome& first, bool nondeterministic,
                 const std::vector<std::pair<Metric, double>>& metrics,
                 std::size_t reps) {
  std::printf("rdxbench workload=%s seed=%llu sha=%s nproc=%ld optimized=%d "
              "reps=%zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.sha.c_str(),
              sysconf(_SC_NPROCESSORS_ONLN),
#if defined(__OPTIMIZE__) && defined(NDEBUG)
              1,
#else
              0,
#endif
              reps);
  std::printf("virtual %s\n", VirtualDigest(first).c_str());
  for (const std::string& error : first.errors) {
    std::printf("error: %s\n", error.c_str());
  }
  if (nondeterministic) {
    std::printf("error: a repetition with the same seed produced different "
                "virtual results\n");
  }
  const bool correct = first.errors.empty() && !nondeterministic;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].first.name,
                Num(metrics[i].second).c_str(), metrics[i].first.unit);
  }
  std::printf("}}\n");
}

int RunEndToEnd(const Args& args, const Workload& workload) {
  const auto run_start = HostClock::now();
  // setup_s comes from set-ups of their own, all made before any window
  // runs: set-ups that follow a window find the heap in another state and
  // take a different time.
  std::vector<double> setup_s;
  double setup_total = 0;
  while (setup_s.size() < kMinSetups ||
         (setup_total < kMinSetupSeconds && setup_s.size() < 1000)) {
    const auto start = HostClock::now();
    std::unique_ptr<Rig> rig = workload.Setup(nullptr);
    setup_s.push_back(SecondsSince(start));
    setup_total += setup_s.back();
  }

  std::vector<double> wall_s;
  Outcome first;
  std::string digest;
  bool nondeterministic = false;
  do {
    Rep rep = RunRep(workload, nullptr);
    wall_s.push_back(rep.wall_s);
    const std::string d = VirtualDigest(rep.outcome);
    if (wall_s.size() == 1) {
      first = std::move(rep.outcome);
      digest = d;
    } else if (d != digest) {
      nondeterministic = true;
    }
  } while (SecondsSince(run_start) < args.seconds);

  std::vector<std::pair<Metric, double>> metrics = {
      {{"setup_s", "s"}, Quantile(setup_s, 0.5)},
      {{"host_wall_s", "s"}, *std::min_element(wall_s.begin(), wall_s.end())},
      {{"host_rss_mb", "MB"}, PeakRssMb()},
  };
  for (const auto& m : VirtualMetrics(first)) metrics.push_back(m);
  PrintResult(args, first, nondeterministic, metrics, wall_s.size());
  return 0;
}

// The traced run: untraced and traced repetitions alternate until
// --seconds have passed; the first traced one supplies the spans and
// counters, the fastest of each kind give the tracing overhead.
int RunTraced(const Args& args, const Workload& workload) {
  const auto run_start = HostClock::now();
  std::vector<double> plain_wall, traced_wall;
  Spans spans;
  Spans scratch_spans;
  Outcome first;
  std::string digest;
  bool nondeterministic = false;
  do {
    plain_wall.push_back(RunRep(workload, nullptr).wall_s);
    Spans* recorder = traced_wall.empty() ? &spans : &scratch_spans;
    Rep rep = RunRep(workload, recorder);
    traced_wall.push_back(rep.wall_s);
    const std::string d = VirtualDigest(rep.outcome);
    if (traced_wall.size() == 1) {
      first = std::move(rep.outcome);
      digest = d;
    } else if (d != digest) {
      nondeterministic = true;
    }
  } while (SecondsSince(run_start) < args.seconds);

  const UnitCosts unit = MeasureUnitCosts(first.corpus, args.seed);
  const WorkCounts& work = first.work;
  std::map<std::string, double> l = first.layer;
  const double wall = traced_wall.front();
  const auto& step = spans.total(Layer::kSim);
  const auto& core = spans.total(Layer::kCore);
  const auto& kv = spans.total(Layer::kKvstore);
  const auto& tel = spans.total(Layer::kTelemetry);
  auto per = [](double total, double count) {
    return count > 0 ? total / count : 0;
  };
  l["sim.event_self_host_ns"] =
      per(step.self_host_ns, static_cast<double>(step.count));
  l["sim.event_engine_host_ns"] = unit.event_ns;
  l["sim.cpu_submit_host_ns"] = unit.cpu_submit_ns;
  l["bpf.exec_insns_per_req"] = unit.bpf_exec_insns_per_call;
  l["bpf.exec_host_ns_per_insn"] = unit.bpf_exec_ns_per_insn;
  l["bpf.verify_host_ns_per_insn"] = unit.bpf_verify_ns_per_insn;
  l["bpf.jit_host_ns_per_insn"] = unit.bpf_jit_ns_per_insn;
  l["bpf.image_decode_host_ns_per_kb"] = unit.bpf_decode_ns_per_kb;
  l["core.ebpf_prepare_host_ns_per_kb"] = unit.ebpf_prepare_ns_per_kb;
  l["core.wasm_prepare_host_ns_per_kb"] = unit.wasm_prepare_ns_per_kb;
  l["wasm.exec_host_ns_per_insn"] = unit.wasm_exec_ns_per_insn;
  l["wasm.compile_host_ns_per_insn"] = unit.wasm_compile_ns_per_insn;
  l["rdma.wr_host_ns"] = unit.rdma_wr_ns;
  l["core.cp_call_host_ns"] =
      per(core.host_ns + tel.host_ns, static_cast<double>(core.count + tel.count));
  l["kvstore.execute_host_ns"] = per(kv.host_ns, static_cast<double>(kv.count));

  // Attribution of the traced window's host time, in ns. The bpf
  // execution estimate is carved out of the KvStore::Execute spans it ran
  // inside; everything else the replays price ran inside event handlers.
  const double bpf_exec = work.bpf_exec_calls * unit.bpf_exec_insns_per_call *
                          unit.bpf_exec_ns_per_insn;
  const double share[] = {
      /*sim=*/work.cpu_submits * unit.cpu_submit_ns +
          static_cast<double>(step.count) * unit.event_ns,
      /*bpf=*/bpf_exec + work.bpf_verified_insns * unit.bpf_verify_ns_per_insn +
          work.bpf_jitted_insns * unit.bpf_jit_ns_per_insn +
          work.bpf_decoded_kb * unit.bpf_decode_ns_per_kb,
      /*wasm=*/work.wasm_exec_calls * unit.wasm_exec_insns_per_call *
              unit.wasm_exec_ns_per_insn +
          work.wasm_compiled_insns * unit.wasm_compile_ns_per_insn,
      /*rdma=*/work.wrs * unit.rdma_wr_ns,
      /*core=*/core.self_host_ns +
          work.ebpf_prepared_kb * unit.ebpf_prepare_ns_per_kb +
          work.wasm_prepared_kb * unit.wasm_prepare_ns_per_kb,
      /*kvstore=*/std::max(0.0, kv.self_host_ns - bpf_exec),
      /*telemetry=*/tel.self_host_ns,
      /*harness=*/spans.total(Layer::kHarness).self_host_ns,
  };
  const char* names[] = {"sim",  "bpf",     "wasm",      "rdma",
                         "core", "kvstore", "telemetry", "harness"};
  double explained = 0;
  for (std::size_t i = 0; i < std::size(share); ++i) {
    l[std::string("attr.") + names[i] + "_frac"] = share[i] / (wall * 1e9);
    explained += share[i];
  }
  l["attr.residual_frac"] = 1.0 - explained / (wall * 1e9);
  const double fastest_traced =
      *std::min_element(traced_wall.begin(), traced_wall.end());
  l["trace.host_wall_s"] = fastest_traced;
  l["trace.overhead_frac"] =
      fastest_traced / *std::min_element(plain_wall.begin(), plain_wall.end()) -
      1.0;

  std::vector<std::pair<Metric, double>> metrics;
  for (const Metric& m : kPerLayer) {
    auto it = l.find(m.name);
    metrics.push_back({m, it == l.end() ? 0.0 : it->second});
  }
  PrintResult(args, first, nondeterministic, metrics, traced_wall.size());
  return 0;
}

}  // namespace
}  // namespace rdxbench

int main(int argc, char** argv) {
  using namespace rdxbench;
  const Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) Usage(("unknown workload " + args.workload).c_str());
  const std::string refusal = workload->CheckBudget();
  if (!refusal.empty()) {
    std::fprintf(stderr, "rdxbench: refusing to start: %s\n", refusal.c_str());
    return 3;
  }
  return args.trace ? RunTraced(args, *workload) : RunEndToEnd(args, *workload);
}
