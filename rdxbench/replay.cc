#include "replay.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "bpf/jit.h"
#include "bpf/proggen.h"
#include "bpf/verifier.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "core/codeflow.h"
#include "mesh/mesh.h"
#include "sim/cpu.h"
#include "wasm/filter.h"

namespace rdxbench {
namespace {

namespace sim = rdx::sim;
namespace core = rdx::core;
namespace rdma = rdx::rdma;

// Each replay repeats its pass until this much host time has accumulated.
constexpr double kReplaySeconds = 0.03;
// Caps on the recorded inputs a replay walks.
constexpr std::size_t kMaxPrograms = 16;
constexpr std::size_t kMaxExecPrograms = 4;

// Runs `pass` (which returns the units of work it did) until
// kReplaySeconds have passed; returns host ns per unit.
template <typename Pass>
double NsPerUnit(Pass pass) {
  double units = 0;
  const auto start = HostClock::now();
  double elapsed = 0;
  do {
    units += pass();
    elapsed = SecondsSince(start);
  } while (elapsed < kReplaySeconds);
  return units > 0 ? elapsed * 1e9 / units : 0;
}

std::vector<rdx::bpf::Program> Programs(const ReplayCorpus& corpus,
                                        std::uint64_t seed) {
  std::vector<rdx::bpf::Program> out;
  for (std::size_t i = 0; i < corpus.ebpf_seeds.size() && i < kMaxPrograms;
       ++i) {
    out.push_back(rdx::bpf::GenerateProgram(
        {.target_insns = corpus.ebpf_sizes[i], .seed = corpus.ebpf_seeds[i]}));
  }
  for (std::uint64_t i = 0; out.size() < kMaxExecPrograms; ++i) {
    out.push_back(rdx::bpf::GenerateProgram(
        {.target_insns = 800, .seed = SubSeed(seed, 9000 + i)}));
  }
  return out;
}

std::vector<rdx::wasm::FilterModule> Filters(const ReplayCorpus& corpus,
                                             std::uint64_t seed) {
  std::vector<rdx::wasm::FilterModule> out;
  for (std::size_t i = 0; i < corpus.wasm_seeds.size() && i < kMaxPrograms;
       ++i) {
    out.push_back(
        rdx::wasm::GenerateFilter(corpus.wasm_sizes[i], corpus.wasm_seeds[i]));
  }
  for (std::uint64_t i = 0; out.size() < kMaxExecPrograms; ++i) {
    out.push_back(rdx::wasm::GenerateFilter(3000, SubSeed(seed, 9500 + i)));
  }
  return out;
}

// A control plane and one sandbox on a private fabric: the execution
// replays attach each recorded program to hook 0 and call the sandbox's
// execute path directly.
class PrivateSandbox {
 public:
  PrivateSandbox() {
    const rdma::NodeId cp_id = fabric_.AddNode("cp", 64u << 20).id();
    cp_ = std::make_unique<core::ControlPlane>(events_, fabric_, cp_id);
    rdma::Node& node = fabric_.AddNode("node", 64u << 20);
    core::SandboxConfig config;
    config.scratch_bytes = 32u << 20;
    sandbox_ = std::make_unique<core::Sandbox>(events_, node, config);
    if (!sandbox_->CtxInit().ok()) return;
    auto reg = sandbox_->CtxRegister();
    if (!reg.ok()) return;
    cp_->CreateCodeFlow(*sandbox_, reg.value(),
                        [this](rdx::StatusOr<core::CodeFlow*> flow) {
                          if (flow.ok()) flow_ = flow.value();
                        });
    events_.Run();
  }

  bool Attach(const rdx::bpf::Program& prog) {
    if (flow_ == nullptr) return false;
    bool ok = false;
    cp_->InjectExtension(*flow_, prog, 0,
                         [&ok](rdx::StatusOr<core::InjectTrace> r) {
                           ok = r.ok();
                         });
    events_.Run();
    return ok;
  }

  bool Attach(const rdx::wasm::FilterModule& filter) {
    if (flow_ == nullptr) return false;
    bool ok = false;
    cp_->InjectWasmFilter(*flow_, filter, 0,
                          [&ok](rdx::StatusOr<core::InjectTrace> r) {
                            ok = r.ok();
                          });
    events_.Run();
    return ok;
  }

  core::Sandbox& sandbox() { return *sandbox_; }

 private:
  sim::EventQueue events_;
  rdma::Fabric fabric_{events_};
  std::unique_ptr<core::ControlPlane> cp_;
  std::unique_ptr<core::Sandbox> sandbox_;
  core::CodeFlow* flow_ = nullptr;
};

void ReplaySim(const ReplayCorpus& corpus, UnitCosts& out) {
  {
    sim::EventQueue events;
    // A standing backlog, so the heap has the depth of a live run.
    for (int i = 0; i < 1024; ++i) {
      events.ScheduleAt(sim::Seconds(1000) + i, [] {});
    }
    out.event_ns = NsPerUnit([&] {
      for (int i = 0; i < 1000; ++i) {
        events.ScheduleAfter(1, [] {});
        events.Step();
      }
      return 1000.0;
    });
  }
  sim::EventQueue events;
  sim::CpuScheduler cpu(events, 1, 3.4e9);
  const auto occupancy =
      static_cast<int>(std::lround(std::max(0.0, corpus.mean_active_tasks)));
  for (int i = 0; i < occupancy; ++i) cpu.Submit(1ull << 50, [] {});
  constexpr int kBatch = 8;
  double submit_s = 0;
  double submits = 0;
  const auto start = HostClock::now();
  while (SecondsSince(start) < kReplaySeconds) {
    sim::CpuScheduler::TaskId ids[kBatch];
    const auto t0 = HostClock::now();
    for (auto& id : ids) id = cpu.Submit(1'000'000, [] {});
    submit_s += SecondsSince(t0);
    for (auto id : ids) cpu.Abort(id);
    submits += kBatch;
  }
  out.cpu_submit_ns = submit_s * 1e9 / submits;
}

void ReplayBpf(const ReplayCorpus& corpus, std::uint64_t seed,
               UnitCosts& out) {
  const std::vector<rdx::bpf::Program> programs = Programs(corpus, seed);
  double insns = 0;
  for (const auto& prog : programs) insns += static_cast<double>(prog.size());
  const rdx::bpf::Verifier verifier;
  out.bpf_verify_ns_per_insn = NsPerUnit([&] {
    for (const auto& prog : programs) {
      if (!verifier.Verify(prog).ok()) return 0.0;
    }
    return insns;
  });
  const rdx::bpf::JitCompiler jit;
  std::vector<rdx::bpf::JitImage> compiled;
  out.bpf_jit_ns_per_insn = NsPerUnit([&] {
    compiled.clear();
    for (const auto& prog : programs) {
      auto image = jit.Compile(prog);
      if (!image.ok()) return 0.0;
      compiled.push_back(std::move(image.value()));
    }
    return insns;
  });
  std::vector<rdx::Bytes> images;
  double kb = 0;
  for (const auto& image : compiled) {
    images.push_back(image.Serialize());
    kb += static_cast<double>(images.back().size()) / 1024;
  }
  out.ebpf_prepare_ns_per_kb = NsPerUnit([&] {
    std::size_t bytes = 0;
    for (const auto& image : compiled) {
      const rdx::bpf::JitImage linked = image;
      bytes += linked.Serialize().size();
    }
    return static_cast<double>(bytes) / 1024;
  });
  out.bpf_decode_ns_per_kb = NsPerUnit([&] {
    for (const auto& image : images) {
      if (!rdx::bpf::JitImage::Deserialize(image).ok()) return 0.0;
    }
    return kb;
  });

  // Hook contexts: the run's own, else seeded ones of the same shape.
  std::vector<std::array<std::uint8_t, 16>> contexts = corpus.kv_contexts;
  rdx::Rng rng(SubSeed(seed, 9900));
  while (contexts.size() < 1024) {
    std::array<std::uint8_t, 16> ctx{};
    rdx::StoreLE(ctx.data(), rng.NextU64());
    ctx[8] = static_cast<std::uint8_t>(rng.NextBounded(2));
    contexts.push_back(ctx);
  }
  double exec_ns = 0, exec_insns = 0, calls = 0;
  for (std::size_t p = 0; p < programs.size() && p < kMaxExecPrograms; ++p) {
    PrivateSandbox rig;
    if (!rig.Attach(programs[p])) continue;
    double pass_insns = 0;
    // The first call decodes the image; keep it out of the timing.
    (void)rig.sandbox().ExecuteHook(0, rdx::ByteSpan(contexts[0].data(), 16));
    const double ns_per_call = NsPerUnit([&] {
      pass_insns = 0;
      for (const auto& ctx : contexts) {
        auto r = rig.sandbox().ExecuteHook(0, rdx::ByteSpan(ctx.data(), 16));
        if (r.ok()) pass_insns += static_cast<double>(r->insns_executed);
      }
      return static_cast<double>(contexts.size());
    });
    exec_ns += ns_per_call * static_cast<double>(contexts.size());
    exec_insns += pass_insns;
    calls += static_cast<double>(contexts.size());
  }
  out.bpf_exec_ns_per_insn = exec_insns > 0 ? exec_ns / exec_insns : 0;
  out.bpf_exec_insns_per_call = calls > 0 ? exec_insns / calls : 0;
}

void ReplayWasm(const ReplayCorpus& corpus, std::uint64_t seed,
                UnitCosts& out) {
  const std::vector<rdx::wasm::FilterModule> filters = Filters(corpus, seed);
  double insns = 0;
  for (const auto& filter : filters) insns += static_cast<double>(filter.size());
  std::vector<rdx::wasm::WasmImage> compiled;
  out.wasm_compile_ns_per_insn = NsPerUnit([&] {
    compiled.clear();
    for (const auto& filter : filters) {
      if (!rdx::wasm::ValidateFilter(filter).ok()) return 0.0;
      auto image = rdx::wasm::CompileFilter(filter);
      if (!image.ok()) return 0.0;
      compiled.push_back(std::move(image.value()));
    }
    return insns;
  });
  out.wasm_prepare_ns_per_kb = NsPerUnit([&] {
    std::size_t bytes = 0;
    for (const auto& image : compiled) {
      const rdx::wasm::WasmImage linked = image;
      bytes += linked.Serialize().size();
    }
    return static_cast<double>(bytes) / 1024;
  });
  constexpr int kCalls = 256;
  double exec_ns = 0, exec_insns = 0, calls = 0;
  for (std::size_t f = 0; f < filters.size() && f < kMaxExecPrograms; ++f) {
    PrivateSandbox rig;
    if (!rig.Attach(filters[f])) continue;
    rdx::mesh::SidecarHost host;
    (void)rig.sandbox().ExecuteWasmHook(0, host);
    double pass_insns = 0;
    const double ns_per_call = NsPerUnit([&] {
      pass_insns = 0;
      for (int i = 0; i < kCalls; ++i) {
        host.BeginRequest(static_cast<std::uint64_t>(i));
        auto r = rig.sandbox().ExecuteWasmHook(0, host);
        if (r.ok()) pass_insns += static_cast<double>(r->insns_executed);
      }
      return static_cast<double>(kCalls);
    });
    exec_ns += ns_per_call * kCalls;
    exec_insns += pass_insns;
    calls += kCalls;
  }
  out.wasm_exec_ns_per_insn = exec_insns > 0 ? exec_ns / exec_insns : 0;
  out.wasm_exec_insns_per_call = calls > 0 ? exec_insns / calls : 0;
}

// Posts chains of WRITEs shaped like the run's mix (bytes per WR, WRs per
// doorbell) between two nodes of a private fabric, and runs each chain to
// completion.
void ReplayRdma(const ReplayCorpus& corpus, UnitCosts& out) {
  constexpr std::uint64_t kRegion = 1u << 20;
  const auto bytes = static_cast<std::uint32_t>(std::clamp(
      corpus.write_bytes_per_wr, 8.0, static_cast<double>(kRegion)));
  const auto chain = static_cast<std::size_t>(
      std::clamp(std::lround(corpus.wrs_per_doorbell), 1L, 64L));
  sim::EventQueue events;
  rdma::Fabric fabric(events);
  rdma::Node& a = fabric.AddNode("a", 4 * kRegion);
  rdma::Node& b = fabric.AddNode("b", 4 * kRegion);
  auto src = a.memory().Allocate(kRegion);
  auto dst = b.memory().Allocate(kRegion);
  if (!src.ok() || !dst.ok()) return;
  auto src_mr = a.memory().Register(src.value(), kRegion,
                                    rdma::kAccessLocalWrite);
  auto dst_mr = b.memory().Register(
      dst.value(), kRegion, rdma::kAccessLocalWrite | rdma::kAccessRemoteWrite);
  if (!src_mr.ok() || !dst_mr.ok()) return;
  rdma::CompletionQueue& cq_a = fabric.CreateCq(a.id());
  rdma::CompletionQueue& cq_b = fabric.CreateCq(b.id());
  rdma::QueuePair& qp_a = fabric.CreateQp(a.id(), cq_a, cq_a);
  rdma::QueuePair& qp_b = fabric.CreateQp(b.id(), cq_b, cq_b);
  if (!fabric.Connect(qp_a, qp_b).ok()) return;
  std::vector<rdma::SendWr> wrs(chain);
  for (std::size_t i = 0; i < chain; ++i) {
    wrs[i].wr_id = i;
    wrs[i].opcode = rdma::Opcode::kWrite;
    wrs[i].local = {src.value(), bytes, src_mr->lkey};
    wrs[i].remote_addr = dst.value();
    wrs[i].rkey = dst_mr->rkey;
  }
  out.rdma_wr_ns = NsPerUnit([&] {
    const rdx::Status posted =
        chain == 1 ? qp_a.PostSend(wrs[0]) : qp_a.PostSendChain(wrs);
    if (!posted.ok()) return 0.0;
    events.Run();
    while (!cq_a.Poll(64).empty()) {
    }
    return static_cast<double>(chain);
  });
}

}  // namespace

UnitCosts MeasureUnitCosts(const ReplayCorpus& corpus, std::uint64_t seed) {
  UnitCosts out;
  ReplaySim(corpus, out);
  ReplayBpf(corpus, seed, out);
  ReplayWasm(corpus, seed, out);
  ReplayRdma(corpus, out);
  return out;
}

}  // namespace rdxbench
