// mesh_wasm: the 8-service MeshSim app of the mesh_improvement experiment,
// open loop at 470 req/s with ~2 ms of CPU per hop on two cores per
// service, and a 300-1000 insn Wasm filter on every hop. Every 80 ms the
// control plane broadcasts a never-seen filter version with BroadcastWasm,
// with the mesh as the Big Bubble Update barrier.
//
// This is the Wasm twin of the eBPF path on both planes, the only open
// loop and the only workload where several nodes contend for CPU. Each
// service is 47% busy, and the requests the barrier holds while a
// broadcast prepares are released together, so queueing shows in the
// tail. With one core per service (94% busy) the latency percentiles of
// one seed differ from the next by about 20%; so do they with the
// 2000-5000 insn filters of mesh_improvement, whose ~6.5 ms prepare
// phase keeps the barrier closed long enough to dominate latency.
#include <algorithm>
#include <cmath>
#include <string>

#include "common/rng.h"
#include "mesh/mesh.h"
#include "scrape.h"
#include "wasm/filter.h"

namespace rdxbench {
namespace {

namespace sim = rdx::sim;
namespace core = rdx::core;
namespace mesh = rdx::mesh;
using rdx::StatusOr;

constexpr int kServices = 8;
constexpr double kRequestRate = 470;
constexpr int kCoresPerService = 2;
constexpr std::uint64_t kHopCycles = 6'800'000;  // ~2 ms at 3.4 GHz
constexpr int kHook = 0;                         // MeshConfig::wasm_hook
constexpr int kBroadcasts = 400;
constexpr sim::Duration kBroadcastPeriod = sim::Millis(80);
constexpr sim::Duration kWindow = kBroadcasts * kBroadcastPeriod;
constexpr sim::Duration kWarmup = sim::Millis(200);
constexpr std::size_t kMinFilterInsns = 300;
constexpr std::size_t kMaxFilterInsns = 1'000;

struct MeshPlan {
  // Filter per broadcast; [0] is the first attach, done in set-up.
  std::vector<rdx::wasm::FilterModule> filters;
  std::vector<std::uint64_t> filter_seeds;
  std::vector<std::uint64_t> image_bytes;
  std::uint64_t arrival_seed = 0;
};

class MeshRig final : public Rig {
 public:
  MeshRig(const MeshPlan& plan, Spans* spans)
      : plan_(plan), spans_(spans), mesh_(events_, fabric_, Config(plan)) {
    if (spans_ != nullptr) spans_->Bind(events_);
    const rdx::rdma::NodeId cp_id = fabric_.AddNode("cp", 128u << 20).id();
    cp_ = std::make_unique<core::ControlPlane>(events_, fabric_, cp_id);
    if (spans_ != nullptr) cp_->SetTracer(&timeline_);
    flows_.assign(kServices, nullptr);
    for (int i = 0; i < kServices; ++i) {
      auto reg = mesh_.sandbox(i).CtxRegister();
      if (!reg.ok()) {
        out_.errors.push_back("CtxRegister failed");
        return;
      }
      cp_->CreateCodeFlow(mesh_.sandbox(i), reg.value(),
                          [this, i](StatusOr<core::CodeFlow*> flow) {
                            if (flow.ok()) flows_[i] = flow.value();
                            ++connected_;
                          });
    }
    loop_.RunUntilDone([this] { return connected_ == kServices; },
                       sim::Seconds(1));
    for (core::CodeFlow* flow : flows_) {
      if (flow == nullptr) {
        out_.errors.push_back("CodeFlow handshakes failed");
        flows_.clear();
        return;
      }
    }
    group_ = std::make_unique<core::CollectiveCodeFlow>(*cp_, flows_);
    Broadcast(0);
    if (!loop_.RunUntilDone([this] { return pending_ == 0; },
                            sim::Seconds(1))) {
      out_.errors.push_back("first attach never became visible");
    }
  }

  // The window opens with kWarmup of traffic whose requests are not
  // sampled, so the queues are in steady state when sampling starts.
  void Measure() override {
    if (!out_.errors.empty()) return;
    mesh_.StartWorkload();
    loop_.RunFor(kWarmup);
    (void)mesh_.TakeMetrics();
    fabric_start_ = ReadFabric(fabric_);
    for (int i = 0; i < kServices; ++i) {
      executions_start_ += mesh_.sandbox(i).stats().executions;
    }
    const std::uint64_t steps0 = loop_.steps();
    const sim::SimTime start = events_.Now();
    window_end_ = start + kWindow;
    // Each request's latency is exact: a snapshot taken right after the
    // event that completed it holds one sample (or a few, if one event
    // finished several hops' requests at once).
    loop_.Observe([this] {
      const mesh::MeshMetrics& live = mesh_.PeekMetrics();
      if (live.completed + live.failed + live.issued == 0) return true;
      Absorb(mesh_.TakeMetrics());
      return true;
    });
    for (int i = 1; i <= kBroadcasts; ++i) {
      events_.ScheduleAt(start + (2 * i - 1) * kBroadcastPeriod / 2,
                         [this, i] { Broadcast(i); });
    }
    loop_.RunFor(kWindow);
    mesh_.StopWorkload();
    out_.layer["sim.events"] = static_cast<double>(loop_.steps() - steps0);
    if (!loop_.RunUntilDone([this] { return pending_ == 0; },
                            sim::Seconds(1))) {
      out_.failed += static_cast<std::uint64_t>(pending_);
      out_.errors.push_back(std::to_string(pending_) +
                            " broadcasts never became visible");
    }
  }

  Outcome Finish() override {
    out_.window_ns = static_cast<double>(kWindow);
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      CheckVersion(mesh_.sandbox(i), kHook, flows_[i]->HookVersion(kHook),
                   out_);
      if (flows_[i]->HookVersion(kHook) != 1 + kBroadcasts) {
        out_.errors.push_back("service " + std::to_string(i) +
                              " missed broadcasts");
      }
    }
    // Mixed-version requests are reported, not failed: MeshSim's barrier
    // holds only new arrivals, so every request mid-path when a commit
    // lands sees two versions.
    out_.failed += failed_requests_;
    auto& l = out_.layer;
    double util = 0;
    for (int i = 0; i < kServices; ++i) util += mesh_.cpu(i).Utilization();
    l["sim.cpu_util.data"] = util / kServices;
    l["sim.cpu_active_mean"] =
        active_samples_ > 0 ? active_sum_ / active_samples_ : 0;
    l["core.broadcast.prepare_us"] = Mean(prepare_us_);
    l["core.broadcast.commit_window_us"] = Mean(commit_window_us_);
    l["core.broadcast.buffered"] = Mean(buffered_);
    l["mesh.buffered_peak"] = static_cast<double>(buffered_peak_);
    l["mesh.mixed_version"] = static_cast<double>(mixed_version_);
    l["mesh.failed"] = static_cast<double>(failed_requests_);
    ScrapeFabric(fabric_, fabric_start_, out_);
    std::vector<core::Sandbox*> all;
    for (int i = 0; i < kServices; ++i) all.push_back(&mesh_.sandbox(i));
    ScrapeSandboxes(all, out_);
    ScrapeControlPlane(*cp_, out_);

    WorkCounts& w = out_.work;
    double executions = 0;
    for (core::Sandbox* sandbox : all) {
      executions += static_cast<double>(sandbox->stats().executions);
    }
    w.wasm_exec_calls = executions - static_cast<double>(executions_start_);
    w.cpu_submits = w.wasm_exec_calls;  // one CpuScheduler::Submit per hop
    for (std::size_t i = 1; i < plan_.filters.size(); ++i) {
      w.wasm_compiled_insns += static_cast<double>(plan_.filters[i].size());
      w.wasm_prepared_kb +=
          kServices * static_cast<double>(plan_.image_bytes[i]) / 1024.0;
    }
    out_.corpus.wasm_seeds = plan_.filter_seeds;
    for (const auto& filter : plan_.filters) {
      out_.corpus.wasm_sizes.push_back(filter.size());
    }
    out_.corpus.mean_active_tasks = l["sim.cpu_active_mean"];
    return std::move(out_);
  }

 private:
  static mesh::MeshConfig Config(const MeshPlan& plan) {
    mesh::MeshConfig config;
    config.app = mesh::AppSpec::Generate("mesh65", kServices, 77);
    config.request_rate_per_s = kRequestRate;
    config.cores_per_service = kCoresPerService;
    config.cost.mesh_request_cycles = kHopCycles;
    config.seed = plan.arrival_seed;
    return config;
  }

  // Folds one MeshMetrics snapshot into the run's totals.
  void Absorb(const mesh::MeshMetrics& m) {
    const sim::SimTime now = events_.Now();
    if (now <= window_end_) {
      out_.attempted += m.issued;
      out_.requests += m.completed;
      failed_requests_ += m.failed;
      mixed_version_ += m.mixed_version;
    }
    buffered_peak_ = std::max(buffered_peak_, m.buffered_peak);
    if (m.completed == 0 || now > window_end_) return;
    const auto& h = m.latency_ns;
    out_.request_ns.push_back(static_cast<double>(h.min()));
    if (m.completed >= 2) out_.request_ns.push_back(static_cast<double>(h.max()));
    if (m.completed > 2) {
      // Only min, max and the sum are exact; spread the rest evenly.
      const double rest = h.mean() * static_cast<double>(m.completed) -
                          static_cast<double>(h.min() + h.max());
      for (std::uint64_t k = 2; k < m.completed; ++k) {
        out_.request_ns.push_back(rest / static_cast<double>(m.completed - 2));
      }
    }
    for (int i = 0; i < kServices; ++i) {
      active_sum_ += mesh_.cpu(i).ActiveTasks();
    }
    active_samples_ += kServices;
  }

  // Broadcasts filter `i` to every service's Wasm hook through the BBU
  // barrier, and watches each service until it executes the new version.
  void Broadcast(int i) {
    const bool measured = i > 0;
    const sim::SimTime start = events_.Now();
    auto left = std::make_shared<int>(kServices);
    pending_ += 2;  // commit + visibility everywhere
    for (int s = 0; s < kServices; ++s) {
      WatchVisible(loop_, mesh_.sandbox(s), kHook,
                   flows_[s]->HookVersion(kHook) + 1,
                   [this, start, measured, left] {
                     if (--*left > 0) return;
                     --pending_;
                     if (measured) {
                       out_.visible_ns.push_back(
                           static_cast<double>(events_.Now() - start));
                     }
                   });
    }
    if (measured) ++out_.attempted;
    std::vector<const rdx::wasm::FilterModule*> filters(
        kServices, &plan_.filters[static_cast<std::size_t>(i)]);
    ScopedSpan span(spans_, Layer::kCore);
    group_->BroadcastWasm(
        filters, kHook, &mesh_,
        [this, start, measured](StatusOr<core::BroadcastResult> r) {
          --pending_;
          if (!r.ok()) {
            if (measured) ++out_.failed;
            out_.errors.push_back("broadcast failed: " + r.status().ToString());
            return;
          }
          if (!measured) return;
          out_.deploy_ns.push_back(static_cast<double>(events_.Now() - start));
          prepare_us_.push_back(static_cast<double>(r->prepare_time) / 1e3);
          commit_window_us_.push_back(static_cast<double>(r->commit_window) /
                                      1e3);
          buffered_.push_back(static_cast<double>(r->buffered_requests));
        });
  }

  const MeshPlan& plan_;
  Spans* spans_;
  sim::EventQueue events_;
  rdx::rdma::Fabric fabric_{events_};
  mesh::MeshSim mesh_;
  std::unique_ptr<core::ControlPlane> cp_;
  std::vector<core::CodeFlow*> flows_;
  int connected_ = 0;  // handshakes finished, successful or not
  std::unique_ptr<core::CollectiveCodeFlow> group_;
  rdx::telemetry::Tracer timeline_{events_};
  Loop loop_{events_, spans_};
  int pending_ = 0;
  sim::SimTime window_end_ = 0;
  FabricCounters fabric_start_;
  std::uint64_t executions_start_ = 0;
  std::uint64_t failed_requests_ = 0;
  std::uint64_t mixed_version_ = 0;
  std::uint64_t buffered_peak_ = 0;
  double active_sum_ = 0;
  double active_samples_ = 0;
  std::vector<double> prepare_us_;
  std::vector<double> commit_window_us_;
  std::vector<double> buffered_;
  Outcome out_;
};

class MeshWasm final : public Workload {
 public:
  explicit MeshWasm(std::uint64_t seed) {
    rdx::Rng rng(SubSeed(seed, 0));
    plan_.arrival_seed = SubSeed(seed, 1);
    const double span = static_cast<double>(kMaxFilterInsns) / kMinFilterInsns;
    for (int i = 0; i <= kBroadcasts; ++i) {
      const std::uint64_t s = SubSeed(seed, 100 + static_cast<std::uint64_t>(i));
      // The first attach (set-up) uses the range's geometric middle so
      // that setup_s does not follow the seed.
      const double draw = i == 0 ? 0.5 : rng.NextDouble();
      const auto insns = static_cast<std::size_t>(
          static_cast<double>(kMinFilterInsns) * std::pow(span, draw));
      plan_.filters.push_back(rdx::wasm::GenerateFilter(insns, s));
      plan_.filter_seeds.push_back(s);
      auto image = rdx::wasm::CompileFilter(plan_.filters.back());
      plan_.image_bytes.push_back(image.ok() ? image->Serialize().size() : 0);
    }
  }

  std::string CheckBudget() const override {
    // MeshSim boots its sandboxes with the default scratchpad.
    const std::uint64_t scratch = core::SandboxConfig{}.scratch_bytes;
    std::uint64_t planned = 64 << 10;  // filter metadata
    for (std::uint64_t bytes : plan_.image_bytes) {
      if (bytes == 0) return "a filter does not compile";
      planned += ScratchRegionBytes(bytes);
    }
    if (planned > scratch) {
      return "mesh_wasm plans " + std::to_string(planned) +
             " scratchpad bytes per service but each sandbox has " +
             std::to_string(scratch);
    }
    return "";
  }

  std::unique_ptr<Rig> Setup(Spans* spans) const override {
    return std::make_unique<MeshRig>(plan_, spans);
  }

 private:
  MeshPlan plan_;
};

}  // namespace

std::unique_ptr<Workload> MakeMeshWasm(std::uint64_t seed) {
  return std::make_unique<MeshWasm>(seed);
}

}  // namespace rdxbench
