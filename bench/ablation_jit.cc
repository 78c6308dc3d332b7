// Ablation (DESIGN.md): threaded-code JIT vs reference interpreter —
// real wall-clock dispatch cost, measured with google-benchmark — for
// eBPF programs and for Wasm filters lowered onto the same executor. Also
// covers the image wire codec, whose cost sits on the control-plane path.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "bpf/exec.h"
#include "bpf/interpreter.h"
#include "bpf/jit.h"
#include "bpf/proggen.h"
#include "bpf/verifier.h"
#include "wasm/filter.h"

namespace rdx::bpf {
namespace {

struct Env {
  VectorMemory mem{1 << 20};
  Rng rng{7};
  RuntimeContext rt;
  ExecOptions opts;
  std::vector<Insn> resolved;
  JitImage image;

  explicit Env(std::size_t insns, std::uint64_t seed = 3) {
    rt.mem = &mem;
    rt.rng = &rng;
    opts.ctx_addr = mem.Allocate(256).value();
    opts.ctx_len = 256;
    opts.stack_addr = mem.Allocate(kStackSize).value();

    Program prog = GenerateProgram({.target_insns = insns, .seed = seed});
    const MapSpec& spec = prog.maps[0];
    const std::uint64_t map_addr =
        mem.Allocate(MapRequiredBytes(spec), 8).value();
    MapView view(mem.SpanAt(map_addr, MapRequiredBytes(spec)).value());
    if (!view.Init(spec).ok()) std::abort();
    rt.maps.emplace(map_addr, spec);

    resolved = prog.insns;
    for (std::size_t i = 0; i < resolved.size(); ++i) {
      if (resolved[i].IsLdImm64() && resolved[i].src_reg == kPseudoMapFd) {
        resolved[i].src_reg = 0;
        resolved[i].imm = static_cast<std::int32_t>(map_addr & 0xffffffff);
        resolved[i + 1].imm = static_cast<std::int32_t>(map_addr >> 32);
      }
    }
    auto compiled = JitCompiler().Compile(prog);
    if (!compiled.ok()) std::abort();
    image = std::move(compiled).value();
    for (const Relocation& reloc : image.relocs) {
      if (reloc.kind == RelocKind::kMapAddress) {
        image.code[reloc.index].imm64 = map_addr;
      }
    }
    if (!image.MakeRunnable().ok()) std::abort();
  }
};

void BM_Interpreter(benchmark::State& state) {
  Env env(static_cast<std::size_t>(state.range(0)));
  std::uint64_t insns = 0;
  for (auto _ : state) {
    auto result = Interpret(env.resolved, env.rt, env.opts);
    if (!result.ok()) state.SkipWithError("interpreter failed");
    insns += result->insns_executed;
    benchmark::DoNotOptimize(result->r0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(insns));
}
BENCHMARK(BM_Interpreter)->Arg(1000)->Arg(10000);

void BM_JitThreadedCode(benchmark::State& state) {
  Env env(static_cast<std::size_t>(state.range(0)));
  std::uint64_t insns = 0;
  for (auto _ : state) {
    auto result = RunJit(env.image, env.rt, env.opts);
    if (!result.ok()) state.SkipWithError("jit failed");
    insns += result->insns_executed;
    benchmark::DoNotOptimize(result->r0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(insns));
}
BENCHMARK(BM_JitThreadedCode)->Arg(1000)->Arg(10000);

// Sixteen distinct programs run round-robin: the branch-predictor pressure
// a sandbox sees across redeploys, where no single op sequence repeats
// long enough to be learned.
void BM_JitRotating(benchmark::State& state) {
  std::vector<std::unique_ptr<Env>> envs;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    envs.push_back(
        std::make_unique<Env>(static_cast<std::size_t>(state.range(0)), seed));
  }
  std::uint64_t insns = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    Env& env = *envs[next];
    next = (next + 1) % envs.size();
    auto result = RunJit(env.image, env.rt, env.opts);
    if (!result.ok()) state.SkipWithError("jit failed");
    insns += result->insns_executed;
    benchmark::DoNotOptimize(result->r0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(insns));
}
BENCHMARK(BM_JitRotating)->Arg(800);

void BM_ImageSerialize(benchmark::State& state) {
  Env env(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    Bytes wire = env.image.Serialize();
    bytes += wire.size();
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ImageSerialize)->Arg(1300)->Arg(95000);

void BM_ImageDeserialize(benchmark::State& state) {
  Env env(static_cast<std::size_t>(state.range(0)));
  const Bytes wire = env.image.Serialize();
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto image = JitImage::Deserialize(wire);
    if (!image.ok()) state.SkipWithError("deserialize failed");
    bytes += wire.size();
    benchmark::DoNotOptimize(image->code.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ImageDeserialize)->Arg(1300)->Arg(95000);

void BM_Verifier(benchmark::State& state) {
  Program prog = GenerateProgram(
      {.target_insns = static_cast<std::size_t>(state.range(0)), .seed = 3});
  Verifier verifier;
  for (auto _ : state) {
    Status s = verifier.Verify(prog);
    if (!s.ok()) state.SkipWithError("verification failed");
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Verifier)->Arg(1300)->Arg(11000)->Arg(95000);

}  // namespace
}  // namespace rdx::bpf

namespace rdx::wasm {
namespace {

// A sidecar-like host: a header table behind get/set, a counter, a log.
class BenchHost final : public WasmHost {
 public:
  StatusOr<std::uint64_t> CallHost(std::int32_t host_fn, std::uint64_t arg0,
                                   std::uint64_t arg1) override {
    switch (host_fn) {
      case 0: return headers_[arg0 & 15];
      case 1: headers_[arg0 & 15] = arg1; return 0ull;
      case 2: return counter_ += arg0;
      default: return 0ull;
    }
  }

 private:
  std::uint64_t headers_[16] = {};
  std::uint64_t counter_ = 0;
};

// A generated filter, linked to BenchHost's table and made runnable.
WasmImage LinkedFilter(std::size_t insns) {
  const FilterModule module = GenerateFilter(insns, 3);
  auto image = CompileFilter(module);
  if (!image.ok()) std::abort();
  for (WasmReloc& reloc : image->relocs) {
    for (std::size_t i = 0; i < module.imports.size(); ++i) {
      if (module.imports[i].name == reloc.import_name) {
        reloc.resolved_host_fn = static_cast<std::int32_t>(i);
      }
    }
  }
  if (!image->MakeRunnable().ok()) std::abort();
  return std::move(image).value();
}

template <auto kRun>
void BM_Wasm(benchmark::State& state) {
  const WasmImage image = LinkedFilter(static_cast<std::size_t>(state.range(0)));
  BenchHost host;
  std::uint64_t insns = 0;
  for (auto _ : state) {
    auto result = kRun(image, host, 1u << 20);
    if (!result.ok()) state.SkipWithError("wasm run failed");
    insns += result->insns_executed;
    benchmark::DoNotOptimize(result->verdict);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(insns));
}

void BM_WasmOracle(benchmark::State& state) { BM_Wasm<RunFilter>(state); }
BENCHMARK(BM_WasmOracle)->Arg(1000);

void BM_WasmLowered(benchmark::State& state) { BM_Wasm<RunLowered>(state); }
BENCHMARK(BM_WasmLowered)->Arg(1000);

// The Wasm twin of the eBPF image codec pair: what the control plane pays
// per linked wire, and what every sandbox pays per hook load.
void BM_WasmImageSerialize(benchmark::State& state) {
  const WasmImage image =
      LinkedFilter(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    Bytes wire = image.Serialize();
    bytes += wire.size();
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WasmImageSerialize)->Arg(1000);

void BM_WasmImageDeserialize(benchmark::State& state) {
  const Bytes wire =
      LinkedFilter(static_cast<std::size_t>(state.range(0))).Serialize();
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto image = WasmImage::Deserialize(wire);
    if (!image.ok()) state.SkipWithError("deserialize failed");
    bytes += wire.size();
    benchmark::DoNotOptimize(image->code.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WasmImageDeserialize)->Arg(1000);

}  // namespace
}  // namespace rdx::wasm

// Hand-rolled main so RDX_BENCH_SMOKE=1 (scripts/check.sh) shrinks every
// measurement to a token run, matching the other benches' smoke mode.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  char min_time[] = "--benchmark_min_time=0.01";
  const char* smoke = std::getenv("RDX_BENCH_SMOKE");
  if (smoke != nullptr && smoke[0] != '\0' &&
      !(smoke[0] == '0' && smoke[1] == '\0')) {
    args.push_back(min_time);
  }
  int arg_count = static_cast<int>(args.size());
  benchmark::Initialize(&arg_count, args.data());
  benchmark::AddCustomContext("rdx_build_type", RDX_BUILD_TYPE);
  if (benchmark::ReportUnrecognizedArguments(arg_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
