// kv_ebpf: one Redis-like KvStore node (1 core) serving 64 closed-loop
// clients, with an ~800-insn eBPF hook on every command. Every 2 ms
// (longer than the slowest inject, so deploys never overlap) the control
// plane redeploys the hook from a seeded pool (30% never-seen programs,
// the rest repeats that hit the artifact cache), dumps the hook's map and
// harvests the trace ring.
//
// Host time here is bpf execution, the sandbox memory path and the CPU
// scheduler; the fabric carries only small READs and the deploy WRITEs.
#include <string>
#include <unordered_map>

#include "bpf/jit.h"
#include "bpf/proggen.h"
#include "common/rng.h"
#include "kvstore/kvstore.h"
#include "scrape.h"

namespace rdxbench {
namespace {

namespace sim = rdx::sim;
namespace core = rdx::core;
namespace kvstore = rdx::kvstore;
using rdx::StatusOr;

constexpr int kClients = 64;
constexpr std::uint64_t kKeySpace = 10'000;
constexpr double kZipfSkew = 0.99;
constexpr double kGetFraction = 0.8;
constexpr std::size_t kValueBytes = 64;
constexpr int kHook = 0;
constexpr int kDeploys = 100;
constexpr sim::Duration kDeployPeriod = sim::Millis(2);
constexpr sim::Duration kWindow = kDeploys * kDeployPeriod;
constexpr double kNewProgramShare = 0.3;
constexpr std::size_t kCorpusContexts = 4096;

struct KvPlan {
  std::vector<rdx::bpf::Program> pool;
  std::vector<std::uint64_t> pool_seeds;
  std::vector<std::uint64_t> image_bytes;  // serialized JIT image per program
  // Pool index per deploy; [0] is the first attach, done in set-up.
  std::vector<std::size_t> schedule;
  std::vector<bool> first_use;  // deploy i brings a never-seen program
  std::uint64_t command_seed = 0;
};

class KvRig final : public Rig {
 public:
  KvRig(const KvPlan& plan, Spans* spans)
      : plan_(plan), spans_(spans), commands_(plan.command_seed) {
    if (spans_ != nullptr) spans_->Bind(events_);
    const rdx::rdma::NodeId cp_id = fabric_.AddNode("cp", 128u << 20).id();
    cp_ = std::make_unique<core::ControlPlane>(events_, fabric_, cp_id);
    if (spans_ != nullptr) cp_->SetTracer(&timeline_);
    rdx::rdma::Node& node = fabric_.AddNode("kv", 64u << 20);
    kvstore::StoreConfig config;
    config.cores = 1;
    config.seed = plan.command_seed;
    store_ = std::make_unique<kvstore::KvStore>(events_, node, config);

    auto reg = store_->sandbox().CtxRegister();
    if (!reg.ok()) {
      Fail("CtxRegister: " + reg.status().ToString());
      return;
    }
    bool connected = false;
    cp_->CreateCodeFlow(store_->sandbox(), reg.value(),
                        [this, &connected](StatusOr<core::CodeFlow*> flow) {
                          if (flow.ok()) flow_ = flow.value();
                          connected = true;
                        });
    loop_.RunUntilFlag(connected);
    if (flow_ == nullptr) {
      Fail("CreateCodeFlow failed");
      return;
    }

    bool attached = false;
    cp_->InjectExtension(*flow_, plan_.pool[plan_.schedule[0]], kHook,
                         [this, &attached](StatusOr<core::InjectTrace> r) {
                           if (!r.ok()) Fail("first attach failed");
                           attached = true;
                         });
    loop_.RunUntilFlag(attached);
    if (flow_->xstates().empty()) {
      Fail("hook program has no map");
      return;
    }
    xstate_addr_ = flow_->xstates().begin()->second;
  }

  void Measure() override {
    if (!out_.errors.empty()) return;
    (void)store_->TakeMetrics();
    fabric_start_ = ReadFabric(fabric_);
    executions_start_ = store_->sandbox().stats().executions;
    steps_start_ = loop_.steps();
    const sim::SimTime start = events_.Now();
    window_end_ = start + kWindow;
    for (int i = 1; i <= kDeploys; ++i) {
      events_.ScheduleAt(start + (2 * i - 1) * kDeployPeriod / 2,
                         [this, i] { Deploy(static_cast<std::size_t>(i)); });
    }
    events_.ScheduleAt(window_end_, [this] { issuing_ = false; });
    issuing_ = true;
    for (int client = 0; client < kClients; ++client) Issue();
    loop_.RunFor(kWindow);
    steps_window_ = loop_.steps() - steps_start_;
    if (!loop_.RunUntilDone([this] { return pending_ == 0; },
                            sim::Millis(100))) {
      out_.failed += static_cast<std::uint64_t>(pending_);
      out_.errors.push_back(std::to_string(pending_) +
                            " control-plane operations never completed");
    }
  }

  Outcome Finish() override {
    out_.window_ns = static_cast<double>(kWindow);
    const core::Sandbox& sandbox = store_->sandbox();
    if (flow_ != nullptr) {
      CheckVersion(sandbox, kHook, flow_->HookVersion(kHook), out_);
      if (flow_->HookVersion(kHook) != 1 + kDeploys) {
        out_.errors.push_back("only " +
                              std::to_string(flow_->HookVersion(kHook)) +
                              " hook versions committed");
      }
    }
    const kvstore::StoreMetrics store = store_->TakeMetrics();
    out_.failed += store.extension_failures;

    auto& l = out_.layer;
    l["sim.events"] = static_cast<double>(steps_window_);
    l["sim.cpu_util.data"] = store_->cpu().Utilization();
    l["sim.cpu_active_mean"] = active_samples_ > 0
                                   ? active_sum_ / active_samples_
                                   : 0;
    const double lookups = static_cast<double>(store.hits + store.misses);
    l["kvstore.hit_ratio"] =
        lookups > 0 ? static_cast<double>(store.hits) / lookups : 0;
    l["kvstore.ext_failures"] = static_cast<double>(store.extension_failures);
    std::vector<double> phase[7];
    for (const core::InjectTrace& t : injects_) {
      const sim::Duration parts[6] = {t.validate, t.jit,      t.xstate,
                                      t.link,     t.transfer, t.commit};
      sim::Duration sum = 0;
      for (int p = 0; p < 6; ++p) {
        phase[p].push_back(static_cast<double>(parts[p]) / 1e3);
        sum += parts[p];
      }
      phase[6].push_back(static_cast<double>(t.total - sum) / 1e3);
    }
    const char* names[7] = {"validate", "jit",    "xstate",  "link",
                            "transfer", "commit", "dispatch"};
    for (int p = 0; p < 7; ++p) {
      l[std::string("core.inject.") + names[p] + "_us"] = Mean(phase[p]);
    }
    l["core.xstate_dump_us"] = Quantile(dump_us_, 0.5);
    const rdx::telemetry::HarvestStats& h = collector_.stats();
    l["telemetry.harvest_events"] = static_cast<double>(h.events);
    const double seen = static_cast<double>(h.events + h.overwritten + h.torn);
    l["telemetry.harvest_loss_ratio"] =
        seen > 0 ? static_cast<double>(h.overwritten + h.torn) / seen : 0;
    ScrapeFabric(fabric_, fabric_start_, out_);
    ScrapeSandboxes({&store_->sandbox()}, out_);
    ScrapeControlPlane(*cp_, out_);

    WorkCounts& w = out_.work;
    w.bpf_exec_calls =
        static_cast<double>(sandbox.stats().executions - executions_start_);
    w.cpu_submits = static_cast<double>(issued_);
    for (std::size_t i = 1; i < plan_.schedule.size(); ++i) {
      const std::size_t p = plan_.schedule[i];
      // Every deploy is decoded once by the sandbox on its first
      // execution; only never-seen programs are verified and compiled.
      w.bpf_decoded_kb += static_cast<double>(plan_.image_bytes[p]) / 1024.0;
      w.ebpf_prepared_kb += static_cast<double>(plan_.image_bytes[p]) / 1024.0;
      if (plan_.first_use[i]) {
        w.bpf_verified_insns += static_cast<double>(plan_.pool[p].insns.size());
        w.bpf_jitted_insns += static_cast<double>(plan_.pool[p].insns.size());
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
  void Fail(const std::string& why) { out_.errors.push_back(why); }

  kvstore::Command NextCommand() {
    kvstore::Command command;
    command.key = "key:" + std::to_string(commands_.NextZipf(kKeySpace,
                                                             kZipfSkew));
    if (commands_.NextBool(kGetFraction)) {
      command.type = kvstore::CommandType::kGet;
    } else {
      command.type = kvstore::CommandType::kSet;
      command.value.resize(kValueBytes);
      for (char& c : command.value) {
        c = static_cast<char>('a' + commands_.NextBounded(26));
      }
    }
    return command;
  }

  // One closed-loop client step: issue, and on the reply check it against
  // the shadow map and issue the next command.
  void Issue() {
    if (!issuing_) return;
    kvstore::Command command = NextCommand();
    if (out_.corpus.kv_contexts.size() < kCorpusContexts) {
      // The ctx KvStore::Execute hands the hook: key hash + command type.
      std::array<std::uint8_t, 16> ctx{};
      rdx::StoreLE(ctx.data(),
                   rdx::Fnv1a64(rdx::ByteSpan(
                       reinterpret_cast<const std::uint8_t*>(command.key.data()),
                       command.key.size())));
      ctx[8] = static_cast<std::uint8_t>(command.type);
      out_.corpus.kv_contexts.push_back(ctx);
    }
    ++issued_;
    ++out_.attempted;
    const sim::SimTime start = events_.Now();
    ScopedSpan span(spans_, Layer::kKvstore);
    store_->Execute(command, [this, start, type = command.type,
                              key = command.key, value = command.value](
                                 StatusOr<std::string> reply) mutable {
      OnReply(start, type, std::move(key), std::move(value), reply);
      Issue();
    });
  }

  void OnReply(sim::SimTime start, kvstore::CommandType type, std::string key,
               std::string value, const StatusOr<std::string>& reply) {
    const sim::SimTime now = events_.Now();
    if (now <= window_end_) {
      ++out_.requests;
      out_.request_ns.push_back(static_cast<double>(now - start));
    }
    active_sum_ += store_->cpu().ActiveTasks();
    ++active_samples_;
    if (!reply.ok()) {
      ++out_.failed;
      return;
    }
    if (type == kvstore::CommandType::kSet) {
      shadow_[std::move(key)] = std::move(value);
      return;
    }
    auto it = shadow_.find(key);
    const std::string expected = it == shadow_.end() ? "" : it->second;
    if (reply.value() != expected) {
      ++out_.failed;
      if (out_.errors.size() < 8) {
        out_.errors.push_back("GET " + key + " returned a stale value");
      }
    }
  }

  // Redeploys the hook, dumps its map and harvests the trace ring.
  void Deploy(std::size_t i) {
    const rdx::bpf::Program& prog = plan_.pool[plan_.schedule[i]];
    const sim::SimTime start = events_.Now();
    pending_ += 2;  // commit + visibility
    ++out_.attempted;
    WatchVisible(loop_, store_->sandbox(), kHook,
                 flow_->HookVersion(kHook) + 1, [this, start] {
                   out_.visible_ns.push_back(
                       static_cast<double>(events_.Now() - start));
                   --pending_;
                 });
    {
      ScopedSpan span(spans_, Layer::kCore);
      cp_->InjectExtension(*flow_, prog, kHook,
                           [this, start](StatusOr<core::InjectTrace> r) {
                             --pending_;
                             if (!r.ok()) {
                               ++out_.failed;
                               return;
                             }
                             out_.deploy_ns.push_back(
                                 static_cast<double>(events_.Now() - start));
                             injects_.push_back(r.value());
                           });
    }
    ++pending_;
    ++out_.attempted;
    {
      ScopedSpan span(spans_, Layer::kCore);
      cp_->XStateDump(
          *flow_, xstate_addr_,
          [this, start](StatusOr<std::vector<std::pair<rdx::Bytes, rdx::Bytes>>>
                            r) {
            --pending_;
            if (!r.ok()) {
              ++out_.failed;
              return;
            }
            dump_us_.push_back(static_cast<double>(events_.Now() - start) /
                               1e3);
          });
    }
    ++pending_;
    ++out_.attempted;
    ScopedSpan span(spans_, Layer::kTelemetry);
    cp_->HarvestTrace(*flow_, collector_, [this](rdx::Status s) {
      --pending_;
      if (!s.ok()) ++out_.failed;
      // Harvested events land on the timeline; only the counts matter.
      if (spans_ == nullptr) timeline_.Clear();
    });
  }

  const KvPlan& plan_;
  Spans* spans_;
  sim::EventQueue events_;
  rdx::rdma::Fabric fabric_{events_};
  std::unique_ptr<core::ControlPlane> cp_;
  std::unique_ptr<kvstore::KvStore> store_;
  core::CodeFlow* flow_ = nullptr;
  std::uint64_t xstate_addr_ = 0;
  rdx::telemetry::Tracer timeline_{events_};
  rdx::telemetry::Collector collector_{timeline_};
  Loop loop_{events_, spans_};
  rdx::Rng commands_;
  std::unordered_map<std::string, std::string> shadow_;
  bool issuing_ = false;
  sim::SimTime window_end_ = 0;
  int pending_ = 0;
  std::uint64_t issued_ = 0;
  double active_sum_ = 0;
  double active_samples_ = 0;
  FabricCounters fabric_start_;
  std::uint64_t executions_start_ = 0;
  std::uint64_t steps_start_ = 0;
  std::uint64_t steps_window_ = 0;
  std::vector<core::InjectTrace> injects_;
  std::vector<double> dump_us_;
  Outcome out_;
};

class KvEbpf final : public Workload {
 public:
  explicit KvEbpf(std::uint64_t seed) {
    rdx::Rng rng(SubSeed(seed, 0));
    plan_.command_seed = SubSeed(seed, 1);
    // The first attach (set-up) has a fixed size so that setup_s does not
    // follow the seed; later programs have 760-840 insns.
    auto add_program = [&] {
      const std::uint64_t s = SubSeed(seed, 100 + plan_.pool.size());
      const std::size_t insns =
          plan_.pool.empty() ? 800 : 760 + rng.NextBounded(81);
      plan_.pool.push_back(
          rdx::bpf::GenerateProgram({.target_insns = insns, .seed = s}));
      plan_.pool_seeds.push_back(s);
      auto image = rdx::bpf::JitCompiler().Compile(plan_.pool.back());
      plan_.image_bytes.push_back(image.ok() ? image->Serialize().size() : 0);
      return plan_.pool.size() - 1;
    };
    plan_.schedule.push_back(add_program());
    plan_.first_use.push_back(true);
    for (int i = 1; i <= kDeploys; ++i) {
      const bool fresh = rng.NextBool(kNewProgramShare);
      plan_.schedule.push_back(fresh ? add_program()
                                     : rng.NextBounded(plan_.pool.size()));
      plan_.first_use.push_back(fresh);
    }
  }

  std::string CheckBudget() const override {
    // KvStore boots its sandbox with the default scratchpad.
    const std::uint64_t scratch = core::SandboxConfig{}.scratch_bytes;
    std::uint64_t planned = 64 << 10;  // the hook's map and its metadata
    for (std::size_t p : plan_.schedule) {
      if (plan_.image_bytes[p] == 0) return "a pool program does not compile";
      planned += ScratchRegionBytes(plan_.image_bytes[p]);
    }
    if (planned > scratch) {
      return "kv_ebpf plans " + std::to_string(planned) +
             " scratchpad bytes per node but the sandbox has " +
             std::to_string(scratch);
    }
    return "";
  }

  std::unique_ptr<Rig> Setup(Spans* spans) const override {
    return std::make_unique<KvRig>(plan_, spans);
  }

 private:
  KvPlan plan_;
};

}  // namespace

std::unique_ptr<Workload> MakeKvEbpf(std::uint64_t seed) {
  return std::make_unique<KvEbpf>(seed);
}

}  // namespace rdxbench
