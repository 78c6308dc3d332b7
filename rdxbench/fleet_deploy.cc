// fleet_deploy: a control plane and 32 sandbox nodes with no data-plane
// traffic, driven by a closed-loop stream of 4-wave
// CollectiveCodeFlow::DeployPipelined rollouts (the next rollout starts
// once the previous one is committed and visible everywhere). Program
// sizes come from the small end of Fig 4a's range. Every rollout opens
// with a wave that carries a never-seen program (verify + JIT); the other
// three redeploy seeded picks among the 8 most recent programs, which hit
// the artifact cache. A fixed mix keeps the per-install latencies
// unimodal, so their percentiles do not jump between seeds; picking among
// recent programs keeps any one program from dominating the bytes moved.
//
// This is the write-heavy side of rdma (doorbell chains, MTT, wire) plus
// control-plane verify/JIT and the pipeline bookkeeping. No hook ever
// executes, so a change to bpf execution should move nothing here.
//
// With no data plane, a "request" is one node's install of one wave: its
// latency runs from the rollout call until that node's CPU executes the
// new version.
#include <algorithm>
#include <cmath>
#include <string>

#include "bpf/jit.h"
#include "bpf/proggen.h"
#include "common/rng.h"
#include "core/broadcast.h"
#include "scrape.h"

namespace rdxbench {
namespace {

namespace sim = rdx::sim;
namespace core = rdx::core;
using rdx::StatusOr;

constexpr int kNodes = 32;
constexpr int kWaves = 4;
constexpr int kRollouts = 100;
constexpr std::size_t kMinInsns = 1'300;
constexpr std::size_t kMaxInsns = 2'600;
constexpr std::size_t kRecentPrograms = 8;
constexpr std::uint64_t kScratchBytes = 16u << 20;
constexpr sim::Duration kRolloutLimit = sim::Seconds(1);

struct FleetPlan {
  std::vector<rdx::bpf::Program> pool;
  std::vector<std::uint64_t> pool_seeds;
  std::vector<std::uint64_t> image_bytes;
  // Pool index per (rollout, wave); rollout 0 is the first attach.
  std::vector<std::array<std::size_t, kWaves>> rollouts;
  std::vector<std::array<bool, kWaves>> first_use;
};

class FleetRig final : public Rig {
 public:
  FleetRig(const FleetPlan& plan, Spans* spans) : plan_(plan), spans_(spans) {
    if (spans_ != nullptr) spans_->Bind(events_);
    const rdx::rdma::NodeId cp_id = fabric_.AddNode("cp", 128u << 20).id();
    cp_ = std::make_unique<core::ControlPlane>(events_, fabric_, cp_id);
    if (spans_ != nullptr) cp_->SetTracer(&timeline_);
    core::SandboxConfig config;
    config.scratch_bytes = kScratchBytes;
    flows_.assign(kNodes, nullptr);
    for (int i = 0; i < kNodes; ++i) {
      rdx::rdma::Node& node = fabric_.AddNode("node" + std::to_string(i),
                                              kScratchBytes + (4u << 20));
      config.seed = 1000 + static_cast<std::uint64_t>(i);
      sandboxes_.push_back(
          std::make_unique<core::Sandbox>(events_, node, config));
      core::Sandbox& sandbox = *sandboxes_.back();
      if (!sandbox.CtxInit().ok()) {
        out_.errors.push_back("CtxInit failed");
        return;
      }
      auto reg = sandbox.CtxRegister();
      if (!reg.ok()) {
        out_.errors.push_back("CtxRegister failed");
        return;
      }
      cp_->CreateCodeFlow(sandbox, reg.value(),
                          [this, i](StatusOr<core::CodeFlow*> flow) {
                            if (flow.ok()) flows_[i] = flow.value();
                            ++connected_;
                          });
    }
    loop_.RunUntilDone([this] { return connected_ == kNodes; },
                       sim::Seconds(1));
    for (core::CodeFlow* flow : flows_) {
      if (flow == nullptr) {
        out_.errors.push_back("CodeFlow handshakes failed");
        flows_.clear();
        return;
      }
    }
    group_ = std::make_unique<core::CollectiveCodeFlow>(*cp_, flows_);
    Rollout(0);
  }

  void Measure() override {
    if (!out_.errors.empty()) return;
    fabric_start_ = ReadFabric(fabric_);
    const std::uint64_t steps0 = loop_.steps();
    const sim::SimTime start = events_.Now();
    for (int r = 1; r <= kRollouts && out_.errors.empty(); ++r) Rollout(r);
    out_.window_ns = static_cast<double>(events_.Now() - start);
    out_.layer["sim.events"] = static_cast<double>(loop_.steps() - steps0);
  }

  Outcome Finish() override {
    if (flows_.size() == kNodes) {
      for (int i = 0; i < kNodes; ++i) {
        for (int w = 0; w < kWaves; ++w) {
          CheckVersion(*sandboxes_[i], w, flows_[i]->HookVersion(w), out_);
          if (flows_[i]->HookVersion(w) != 1 + kRollouts) {
            out_.errors.push_back("node " + std::to_string(i) +
                                  " missed rollouts");
            break;
          }
        }
      }
    }
    auto& l = out_.layer;
    l["sim.cpu_active_mean"] =
        active_samples_ > 0 ? active_sum_ / active_samples_ : 0;
    const char* names[3] = {"compile", "transfer", "commit"};
    for (int p = 0; p < 3; ++p) {
      l[std::string("core.pipeline.") + names[p] + "_us"] = Mean(phase_us_[p]);
    }
    ScrapeFabric(fabric_, fabric_start_, out_);
    std::vector<core::Sandbox*> all;
    for (auto& sandbox : sandboxes_) all.push_back(sandbox.get());
    ScrapeSandboxes(all, out_);
    ScrapeControlPlane(*cp_, out_);

    WorkCounts& w = out_.work;
    for (std::size_t r = 1; r < plan_.rollouts.size(); ++r) {
      for (int k = 0; k < kWaves; ++k) {
        w.ebpf_prepared_kb +=
            kNodes * static_cast<double>(plan_.image_bytes[plan_.rollouts[r][k]]) /
            1024.0;
        if (!plan_.first_use[r][k]) continue;
        const double insns = static_cast<double>(
            plan_.pool[plan_.rollouts[r][k]].insns.size());
        w.bpf_verified_insns += insns;
        w.bpf_jitted_insns += insns;
      }
    }
    out_.corpus.ebpf_seeds = plan_.pool_seeds;
    for (const auto& prog : plan_.pool) {
      out_.corpus.ebpf_sizes.push_back(prog.insns.size());
    }
    out_.corpus.mean_active_tasks = l["sim.cpu_active_mean"];
    return std::move(out_);
  }

 private:
  // One rollout: a 4-wave pipelined deploy to every node, run until it is
  // committed and every node's CPU executes every new version.
  void Rollout(int r) {
    const bool measured = r > 0;
    std::vector<core::DeploySpec> specs;
    for (int k = 0; k < kWaves; ++k) {
      specs.push_back({&plan_.pool[plan_.rollouts[r][k]], k});
    }
    const sim::SimTime start = events_.Now();
    auto installs_left = std::make_shared<int>(kNodes * kWaves);
    for (int i = 0; i < kNodes; ++i) {
      for (int k = 0; k < kWaves; ++k) {
        WatchVisible(loop_, *sandboxes_[i], k, flows_[i]->HookVersion(k) + 1,
                     [this, start, measured, installs_left] {
                       --*installs_left;
                       if (!measured) return;
                       const double ns =
                           static_cast<double>(events_.Now() - start);
                       out_.request_ns.push_back(ns);
                       ++out_.requests;
                       active_sum_ += cp_->cpu().ActiveTasks();
                       ++active_samples_;
                       if (*installs_left == 0) out_.visible_ns.push_back(ns);
                     });
      }
    }
    auto done = std::make_shared<bool>(false);
    if (measured) out_.attempted += 1 + kNodes * kWaves;
    {
      ScopedSpan span(spans_, Layer::kCore);
      group_->DeployPipelined(
          specs, core::PipelineOptions{},
          [this, start, measured, done](StatusOr<core::PipelineResult> r) {
            *done = true;
            if (!r.ok()) {
              if (measured) ++out_.failed;
              out_.errors.push_back("rollout failed: " + r.status().ToString());
              return;
            }
            if (!measured) return;
            out_.deploy_ns.push_back(
                static_cast<double>(events_.Now() - start));
            out_.failed += r->stragglers;
            for (const core::WaveResult& wave : r->waves) {
              phase_us_[0].push_back(static_cast<double>(wave.compile) / 1e3);
              phase_us_[1].push_back(static_cast<double>(wave.transfer) / 1e3);
              phase_us_[2].push_back(static_cast<double>(wave.commit) / 1e3);
            }
          });
    }
    if (!loop_.RunUntilDone([&] { return *done && *installs_left == 0; },
                            kRolloutLimit)) {
      if (measured) out_.failed += static_cast<std::uint64_t>(*installs_left);
      out_.errors.push_back("rollout " + std::to_string(r) +
                            " did not become visible everywhere");
    }
  }

  const FleetPlan& plan_;
  Spans* spans_;
  sim::EventQueue events_;
  rdx::rdma::Fabric fabric_{events_};
  std::unique_ptr<core::ControlPlane> cp_;
  std::vector<std::unique_ptr<core::Sandbox>> sandboxes_;
  std::vector<core::CodeFlow*> flows_;
  int connected_ = 0;  // handshakes finished, successful or not
  std::unique_ptr<core::CollectiveCodeFlow> group_;
  rdx::telemetry::Tracer timeline_{events_};
  Loop loop_{events_, spans_};
  FabricCounters fabric_start_;
  std::vector<double> phase_us_[3];
  double active_sum_ = 0;
  double active_samples_ = 0;
  Outcome out_;
};

class FleetDeploy final : public Workload {
 public:
  explicit FleetDeploy(std::uint64_t seed) {
    rdx::Rng rng(SubSeed(seed, 0));
    bool first_attach = true;
    auto add_program = [&] {
      const std::uint64_t s = SubSeed(seed, 100 + plan_.pool.size());
      // Log-uniform sizes: as many small programs as large ones.
      const double span = static_cast<double>(kMaxInsns) / kMinInsns;
      // The first attach (set-up) uses the range's geometric middle so
      // that setup_s does not follow the seed.
      const double draw = first_attach ? 0.5 : rng.NextDouble();
      const auto insns = static_cast<std::size_t>(
          static_cast<double>(kMinInsns) * std::pow(span, draw));
      plan_.pool.push_back(
          rdx::bpf::GenerateProgram({.target_insns = insns, .seed = s}));
      plan_.pool_seeds.push_back(s);
      auto image = rdx::bpf::JitCompiler().Compile(plan_.pool.back());
      plan_.image_bytes.push_back(image.ok() ? image->Serialize().size() : 0);
      return plan_.pool.size() - 1;
    };
    for (int r = 0; r <= kRollouts; ++r) {
      first_attach = r == 0;
      std::array<std::size_t, kWaves> waves{};
      std::array<bool, kWaves> fresh{};
      for (int k = 0; k < kWaves; ++k) {
        fresh[k] = r == 0 || k == 0;
        const std::size_t recent =
            std::min(plan_.pool.size(), kRecentPrograms);
        waves[k] = fresh[k] ? add_program()
                            : plan_.pool.size() - 1 - rng.NextBounded(recent);
      }
      plan_.rollouts.push_back(waves);
      plan_.first_use.push_back(fresh);
    }
  }

  std::string CheckBudget() const override {
    std::uint64_t planned = 64 << 10;  // program maps and their metadata
    for (const auto& waves : plan_.rollouts) {
      for (std::size_t p : waves) {
        if (plan_.image_bytes[p] == 0) return "a pool program does not compile";
        planned += ScratchRegionBytes(plan_.image_bytes[p]);
      }
    }
    if (planned > kScratchBytes) {
      return "fleet_deploy plans " + std::to_string(planned) +
             " scratchpad bytes per node but each sandbox has " +
             std::to_string(kScratchBytes);
    }
    return "";
  }

  std::unique_ptr<Rig> Setup(Spans* spans) const override {
    return std::make_unique<FleetRig>(plan_, spans);
  }

 private:
  FleetPlan plan_;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetDeploy(std::uint64_t seed) {
  return std::make_unique<FleetDeploy>(seed);
}

}  // namespace rdxbench
