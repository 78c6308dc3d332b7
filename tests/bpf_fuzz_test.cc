// Differential fuzz oracle: the interpreter is the reference, and the JIT
// must agree with it on r0, insns_executed (virtual CPU time), every byte
// of memory and the exact error status. Inputs are seeded random programs
// over the whole supported ISA — all 13 ALU ops and all 11 branch
// conditions in 64/32-bit and K/X forms, 1/2/4/8-byte loads and stores,
// both byte-swap directions, operands with high bits set, helper calls and
// the odd wild access — plus the generated stress programs and rogue
// programs run at the exact fuel boundary.
#include <gtest/gtest.h>

#include <string>

#include "bpf/interpreter.h"
#include "bpf/jit.h"
#include "bpf/proggen.h"

namespace rdx::bpf {
namespace {

constexpr std::uint64_t kMemBytes = 1 << 16;
constexpr std::uint64_t kCtxBytes = 256;

// One engine's machine: memory with ctx, stack and the program's maps at
// addresses that depend only on the program, so two machines built for
// the same program and seed start byte-identical.
struct Machine {
  VectorMemory mem{kMemBytes};
  Rng rng{99};
  RuntimeContext rt;
  ExecOptions opts;
  std::vector<std::uint64_t> map_addrs;

  Machine(const Program& prog, std::uint64_t ctx_seed, std::uint64_t limit) {
    rt.mem = &mem;
    rt.rng = &rng;
    rt.ktime_ns = [] { return 0x123456789abcull; };
    rt.processor_id = 3;
    opts.ctx_addr = mem.Allocate(kCtxBytes).value();
    opts.ctx_len = kCtxBytes;
    opts.stack_addr = mem.Allocate(kStackSize).value();
    opts.insn_limit = limit;
    Rng fill(ctx_seed);
    MutableByteSpan ctx = mem.SpanAt(opts.ctx_addr, kCtxBytes).value();
    for (std::uint8_t& b : ctx) b = static_cast<std::uint8_t>(fill.NextU64());
    for (const MapSpec& spec : prog.maps) {
      const std::uint64_t addr =
          mem.Allocate(MapRequiredBytes(spec), 8).value();
      EXPECT_TRUE(
          MapView(mem.SpanAt(addr, MapRequiredBytes(spec)).value())
              .Init(spec)
              .ok());
      rt.maps.emplace(addr, spec);
      map_addrs.push_back(addr);
    }
  }

  Bytes Snapshot() {
    MutableByteSpan all = mem.SpanAt(mem.base(), kMemBytes).value();
    return Bytes(all.begin(), all.end());
  }
};

// Runs `prog` on both engines from identical machines and checks that
// every observable outcome agrees.
void ExpectEnginesAgree(const Program& prog, std::uint64_t ctx_seed,
                        std::uint64_t limit, const std::string& what) {
  Machine interp_m(prog, ctx_seed, limit);
  std::vector<Insn> resolved = prog.insns;
  for (std::size_t i = 0; i < resolved.size(); ++i) {
    if (resolved[i].IsLdImm64() && resolved[i].src_reg == kPseudoMapFd) {
      const std::uint64_t addr = interp_m.map_addrs.at(resolved[i].imm);
      resolved[i].src_reg = 0;
      resolved[i].imm = static_cast<std::int32_t>(addr & 0xffffffff);
      resolved[i + 1].imm = static_cast<std::int32_t>(addr >> 32);
    }
  }
  auto want = Interpret(resolved, interp_m.rt, interp_m.opts);

  Machine jit_m(prog, ctx_seed, limit);
  auto image = JitCompiler().Compile(prog);
  ASSERT_TRUE(image.ok()) << what << ": " << image.status().ToString();
  for (const Relocation& reloc : image->relocs) {
    if (reloc.kind == RelocKind::kMapAddress) {
      image->code[reloc.index].imm64 = jit_m.map_addrs.at(reloc.symbol);
    }
  }
  ASSERT_TRUE(image->MakeRunnable().ok()) << what;
  auto got = RunJit(*image, jit_m.rt, jit_m.opts);

  ASSERT_EQ(want.ok(), got.ok())
      << what << ": interpreter " << want.status().ToString() << ", jit "
      << got.status().ToString();
  if (want.ok()) {
    EXPECT_EQ(want->r0, got->r0) << what;
    EXPECT_EQ(want->insns_executed, got->insns_executed) << what;
  } else {
    EXPECT_EQ(want.status(), got.status()) << what;
  }
  EXPECT_EQ(interp_m.rt.trace_count, jit_m.rt.trace_count) << what;
  EXPECT_TRUE(interp_m.Snapshot() == jit_m.Snapshot())
      << what << ": memory differs";
}

// ---- random programs over the whole ISA ----

constexpr int kScalars[] = {0, 2, 3, 4, 5, 7, 8, 9};
constexpr int kCtxBase = 6;  // r6 = r1 in the prologue; never written
constexpr std::uint8_t kAluOps[] = {
    kAluAdd, kAluSub, kAluMul, kAluDiv, kAluOr,  kAluAnd, kAluLsh,
    kAluRsh, kAluNeg, kAluMod, kAluXor, kAluMov, kAluArsh};
constexpr std::uint8_t kConds[] = {kJmpJeq,  kJmpJgt, kJmpJge,  kJmpJset,
                                   kJmpJne,  kJmpJsgt, kJmpJsge, kJmpJlt,
                                   kJmpJle,  kJmpJslt, kJmpJsle};
constexpr std::uint8_t kSizes[] = {kSizeB, kSizeH, kSizeW, kSizeDw};
constexpr std::int32_t kHelpers[] = {kHelperKtimeGetNs, kHelperTracePrintk,
                                     kHelperGetPrandomU32,
                                     kHelperGetSmpProcessorId};

// Values that stress width, sign and divide-by-zero edges, including a
// divisor whose low 32 bits are zero.
std::uint64_t EdgeValue(Rng& rng) {
  static constexpr std::uint64_t kEdges[] = {
      0,           1,           ~0ull,       0x7fffffffull, 0x80000000ull,
      0xffffffffull, 1ull << 32, 0x8000000000000000ull, 31, 32, 63, 64};
  return rng.NextBool(0.5) ? kEdges[rng.NextBounded(std::size(kEdges))]
                           : rng.NextU64();
}

int Scalar(Rng& rng) { return kScalars[rng.NextBounded(std::size(kScalars))]; }

int SizeBytes(std::uint8_t size) {
  switch (size) {
    case kSizeB: return 1;
    case kSizeH: return 2;
    case kSizeW: return 4;
  }
  return 8;
}

// A memory operand: ctx or stack, in bounds and size-aligned; or, rarely,
// a scalar register whose value is almost surely outside memory.
struct MemOperand {
  int base;
  std::int16_t off;
};
MemOperand PickMem(Rng& rng, int bytes) {
  if (rng.NextBounded(100) == 0) return {Scalar(rng), 0};
  if (rng.NextBool(0.5)) {
    return {kCtxBase, static_cast<std::int16_t>(
                          bytes * rng.NextBounded(kCtxBytes / bytes))};
  }
  return {kFrameReg, static_cast<std::int16_t>(
                         -bytes * (1 + static_cast<int>(rng.NextBounded(
                                           kStackSize / bytes))))};
}

Program RandomProgram(std::uint64_t seed, std::size_t body) {
  Rng rng(seed);
  Program prog;
  prog.name = "fuzz_" + std::to_string(seed);
  std::vector<Insn>& out = prog.insns;
  out.push_back(MovReg(kCtxBase, 1));
  for (int r : kScalars) {
    auto [lo, hi] = LoadImm64(r, EdgeValue(rng));
    out.push_back(lo);
    out.push_back(hi);
  }
  const std::size_t exit_at = out.size() + body;
  while (out.size() < exit_at) {
    const std::size_t left = exit_at - out.size() - 1;
    const std::uint64_t roll = rng.NextBounded(100);
    const auto imm = static_cast<std::int32_t>(EdgeValue(rng));
    if (roll < 40) {
      const std::uint8_t op = kAluOps[rng.NextBounded(std::size(kAluOps))];
      const bool is64 = rng.NextBool(0.5);
      out.push_back(rng.NextBool(0.5)
                        ? AluReg(op, Scalar(rng), Scalar(rng), is64)
                        : AluImm(op, Scalar(rng), imm, is64));
    } else if (roll < 60) {
      const std::uint8_t cond = kConds[rng.NextBounded(std::size(kConds))];
      const auto off = static_cast<std::int16_t>(
          rng.NextBounded(std::min<std::size_t>(left, 8) + 1));
      const int dst = Scalar(rng);
      const int src = Scalar(rng);
      switch (rng.NextBounded(4)) {
        case 0: out.push_back(JmpImm(cond, dst, imm, off)); break;
        case 1: out.push_back(JmpReg(cond, dst, src, off)); break;
        case 2: out.push_back(Jmp32Imm(cond, dst, imm, off)); break;
        default: out.push_back(Jmp32Reg(cond, dst, src, off)); break;
      }
    } else if (roll < 63) {
      out.push_back(Jump(static_cast<std::int16_t>(
          rng.NextBounded(std::min<std::size_t>(left, 4) + 1))));
    } else if (roll < 70) {
      static constexpr int kWidths[] = {16, 32, 64};
      out.push_back(Endian(Scalar(rng), kWidths[rng.NextBounded(3)],
                           rng.NextBool(0.5)));
    } else if (roll < 97) {
      const std::uint8_t size = kSizes[rng.NextBounded(std::size(kSizes))];
      const MemOperand m = PickMem(rng, SizeBytes(size));
      switch (rng.NextBounded(3)) {
        case 0: out.push_back(LoadMem(size, Scalar(rng), m.base, m.off)); break;
        case 1: out.push_back(StoreMemImm(size, m.base, m.off, imm)); break;
        default:
          out.push_back(StoreMemReg(size, m.base, Scalar(rng), m.off));
          break;
      }
    } else {
      out.push_back(Call(kHelpers[rng.NextBounded(std::size(kHelpers))]));
    }
  }
  out.push_back(Exit());
  return prog;
}

TEST(DifferentialFuzz, RandomProgramsOverTheWholeIsa) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const Program prog = RandomProgram(seed, 16 + seed % 97);
    ExpectEnginesAgree(prog, seed, 1u << 20, "seed " + std::to_string(seed));
  }
}

TEST(DifferentialFuzz, RandomProgramsCutByFuel) {
  // Branches skip ahead, so a program's executed length is below its size;
  // limits spread over that range cut runs at arbitrary points.
  for (std::uint64_t seed = 1000; seed < 1100; ++seed) {
    const Program prog = RandomProgram(seed, 64);
    const std::uint64_t limit = 1 + seed % prog.insns.size();
    ExpectEnginesAgree(prog, seed, limit,
                       "seed " + std::to_string(seed) + " limit " +
                           std::to_string(limit));
  }
}

TEST(DifferentialFuzz, GeneratedStressPrograms) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Program prog =
        GenerateProgram({.target_insns = 300 + 400 * seed, .seed = seed});
    ExpectEnginesAgree(prog, seed, 1u << 20, "stress seed " +
                                                 std::to_string(seed));
  }
}

TEST(DifferentialFuzz, RoguesAtTheExactFuelBoundary) {
  // kFuelBurn is straight-line, so it executes exactly its length: it
  // completes with that much fuel and fails with one instruction less.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::size_t len = 200 * seed + 17;
    const Program burn = GenerateRogueProgram(
        {.kind = RogueKind::kFuelBurn, .seed = seed, .target_insns = len});
    ASSERT_EQ(burn.insns.size(), len);
    for (std::uint64_t limit : {len - 1, len, len + 1}) {
      ExpectEnginesAgree(burn, seed, limit,
                         "fuel burn len " + std::to_string(len) + " limit " +
                             std::to_string(limit));
    }
  }
  const Program trap =
      GenerateRogueProgram({.kind = RogueKind::kTrapLoop, .seed = 1});
  for (std::uint64_t limit : {trap.insns.size() - 3, trap.insns.size(),
                              std::uint64_t{1} << 20}) {
    ExpectEnginesAgree(trap, 1, limit,
                       "trap loop limit " + std::to_string(limit));
  }
}

}  // namespace
}  // namespace rdx::bpf
