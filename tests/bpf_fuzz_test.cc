// Differential fuzz oracle: the interpreter is the reference, and the JIT
// must agree with it on r0, insns_executed (virtual CPU time), every byte
// of memory and the exact error status. Inputs are seeded random programs
// over the whole supported ISA — all 13 ALU ops and all 11 branch
// conditions in 64/32-bit and K/X forms, 1/2/4/8-byte loads and stores,
// both byte-swap directions, operands with high bits set, helper calls and
// the odd wild access — plus map-helper programs run against rewritten map
// headers, the generated stress programs and rogue programs run at the
// exact fuel boundary.
#include <gtest/gtest.h>

#include <functional>
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
// every observable outcome agrees. With `rounds` > 1 it runs again on the
// same machines, and before each later run `between(machine, round)`
// changes both machines alike.
void ExpectEnginesAgree(
    const Program& prog, std::uint64_t ctx_seed, std::uint64_t limit,
    const std::string& what, int rounds = 1,
    const std::function<void(Machine&, int)>& between = nullptr) {
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

  Machine jit_m(prog, ctx_seed, limit);
  auto image = JitCompiler().Compile(prog);
  ASSERT_TRUE(image.ok()) << what << ": " << image.status().ToString();
  for (const Relocation& reloc : image->relocs) {
    if (reloc.kind == RelocKind::kMapAddress) {
      image->code[reloc.index].imm64 = jit_m.map_addrs.at(reloc.symbol);
    }
  }
  ASSERT_TRUE(image->MakeRunnable().ok()) << what;

  for (int round = 0; round < rounds; ++round) {
    const std::string run = what + " round " + std::to_string(round);
    if (round > 0) {
      between(interp_m, round);
      between(jit_m, round);
    }
    auto want = Interpret(resolved, interp_m.rt, interp_m.opts);
    auto got = RunJit(*image, jit_m.rt, jit_m.opts);
    ASSERT_EQ(want.ok(), got.ok())
        << run << ": interpreter " << want.status().ToString() << ", jit "
        << got.status().ToString();
    if (want.ok()) {
      EXPECT_EQ(want->r0, got->r0) << run;
      EXPECT_EQ(want->insns_executed, got->insns_executed) << run;
    } else {
      EXPECT_EQ(want.status(), got.status()) << run;
    }
    EXPECT_EQ(interp_m.rt.trace_count, jit_m.rt.trace_count) << run;
    ASSERT_TRUE(interp_m.Snapshot() == jit_m.Snapshot())
        << run << ": memory differs";
  }
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

// ---- map helper calls ----

// Two array maps and a hash map. Their handles are stored at the bottom of
// the stack in the prologue (handle k at kHandleSlot + 8k), so the body
// needs no two-slot LD_IMM64 a random forward jump could land inside.
const std::vector<MapSpec> kFuzzMaps = {
    {"arr8", MapType::kArray, 4, 8, 16},
    {"arr16", MapType::kArray, 4, 16, 4},
    {"hash", MapType::kHash, 8, 8, 8},
};
constexpr std::int16_t kHandleSlot = -kStackSize;
constexpr std::int16_t kKeySlot = -8;
constexpr std::int16_t kValueSlot = -32;  // 16 bytes
constexpr std::int16_t kResultSlot = -40;  // xor of every call's r0

constexpr std::int32_t kHelperOf[] = {kHelperMapLookupElem,
                                      kHelperMapUpdateElem,
                                      kHelperMapDeleteElem};

// A header word and a value for it: the spec's own value, off by one
// either way, zero, values far past the storage, and for an array's
// value size the whole data region and one byte more, so that one slot
// ends exactly at, or one byte past, the storage.
std::pair<std::int16_t, std::uint32_t> HeaderRewrite(Rng& rng,
                                                     const MapSpec& spec) {
  const auto data = static_cast<std::uint32_t>(MapRequiredBytes(spec) -
                                               kMapHeaderBytes);
  switch (rng.NextBounded(5)) {
    case 0: {
      static constexpr std::uint32_t kMagics[] = {kMapMagic, kMapMagic ^ 1, 0};
      return {kMapOffMagic, kMagics[rng.NextBounded(3)]};
    }
    case 1:
      return {kMapOffType, static_cast<std::uint32_t>(rng.NextBounded(4))};
    case 2: {
      static constexpr std::uint32_t kKeySizes[] = {4, 8, 2, 0, 5};
      return {kMapOffKeySize, kKeySizes[rng.NextBounded(5)]};
    }
    case 3: {
      const std::uint32_t sizes[] = {data, data + 1, spec.value_size,
                                     spec.value_size - 1, spec.value_size + 1,
                                     0};
      return {kMapOffValueSize, sizes[rng.NextBool(0.5) ? rng.NextBounded(2)
                                                        : rng.NextBounded(6)]};
    }
    default: {
      const std::uint32_t entries[] = {spec.max_entries, spec.max_entries - 1,
                                       spec.max_entries + 1, 0, 1000,
                                       0xffffffffu};
      return {kMapOffMaxEntries, entries[rng.NextBounded(6)]};
    }
  }
}

// A key for `spec`: array indices in range, the first and last, at and
// past the end, and far out; hash keys from a small space, so lookups hit
// and updates fill it. Index 0 is the slot a value size rewritten to the
// whole data region (plus one) puts right at the storage's end.
std::int32_t RandomKey(Rng& rng, const MapSpec& spec) {
  if (spec.type == MapType::kHash) {
    return static_cast<std::int32_t>(rng.NextBounded(12));
  }
  const auto n = static_cast<std::int32_t>(spec.max_entries);
  const std::int32_t keys[] = {0, 0, n - 1, n, n + 1, -1, 1000};
  return rng.NextBool(0.5)
             ? static_cast<std::int32_t>(rng.NextBounded(spec.max_entries))
             : keys[rng.NextBounded(std::size(keys))];
}

// r<reg> = a pointer for a helper's key or value: mostly a stack slot
// freshly written; else into ctx, into the map's own storage (r1), or
// outside memory altogether.
void PointerArg(Rng& rng, std::vector<Insn>& out, int reg,
                std::int16_t slot, std::uint64_t map_bytes,
                const std::function<void()>& fill_slot) {
  const std::uint64_t roll = rng.NextBounded(40);
  if (roll < 4) {
    out.push_back(MovReg(reg, kCtxBase));
    out.push_back(AluImm(kAluAdd, reg, static_cast<std::int32_t>(
                                           rng.NextBounded(kCtxBytes))));
  } else if (roll < 8) {
    out.push_back(MovReg(reg, 1));
    out.push_back(AluImm(kAluAdd, reg, static_cast<std::int32_t>(
                                           rng.NextBounded(map_bytes + 16))));
  } else if (roll < 9) {
    out.push_back(MovImm(reg, rng.NextBool(0.5) ? 16 : -8));
  } else {
    fill_slot();
    out.push_back(MovReg(reg, kFrameReg));
    out.push_back(AluImm(kAluAdd, reg, slot));
  }
}

// One map helper call (lookup, update or delete) on a random map, or a
// rewrite of one of its header words in the middle of the run.
void EmitMapCall(Rng& rng, std::vector<Insn>& out) {
  const std::size_t slot = rng.NextBounded(kFuzzMaps.size());
  const MapSpec& spec = kFuzzMaps[slot];
  const std::uint64_t map_bytes = MapRequiredBytes(spec);
  out.push_back(LoadMem(kSizeDw, 1, kFrameReg,
                        static_cast<std::int16_t>(kHandleSlot + 8 * slot)));
  // Now and then a handle that names no registered map.
  switch (rng.NextBounded(100)) {
    case 0: out.push_back(AluImm(kAluAdd, 1, 8)); break;
    case 1: out.push_back(MovReg(1, kCtxBase)); break;
    case 2: out.push_back(MovReg(1, Scalar(rng))); break;
  }
  if (rng.NextBounded(30) == 0) {
    const auto [word, value] = HeaderRewrite(rng, spec);
    out.push_back(StoreMemImm(kSizeW, 1, word,
                              static_cast<std::int32_t>(value)));
    return;
  }
  const std::uint64_t roll = rng.NextBounded(100);
  const std::int32_t helper = kHelperOf[roll < 45 ? 0 : roll < 85 ? 1 : 2];
  PointerArg(rng, out, 2, kKeySlot, map_bytes, [&] {
    out.push_back(StoreMemImm(spec.key_size == 8 ? kSizeDw : kSizeW,
                              kFrameReg, kKeySlot, RandomKey(rng, spec)));
  });
  if (helper == kHelperMapUpdateElem) {
    PointerArg(rng, out, 3, kValueSlot, map_bytes, [&] {
      for (std::int16_t off : {0, 8}) {
        out.push_back(StoreMemImm(kSizeDw, kFrameReg, kValueSlot + off,
                                  static_cast<std::int32_t>(EdgeValue(rng))));
      }
    });
  }
  out.push_back(Call(helper));
  // Fold r0 into memory, so every call's result is compared, not just the
  // last one's.
  out.push_back(LoadMem(kSizeDw, 7, kFrameReg, kResultSlot));
  out.push_back(AluReg(kAluXor, 7, 0));
  out.push_back(StoreMemReg(kSizeDw, kFrameReg, 7, kResultSlot));
  if (helper == kHelperMapLookupElem && rng.NextBool(0.5)) {
    // Use the value: read it, then write part of it.
    out.push_back(JmpImm(kJmpJeq, 0, 0, 2));
    out.push_back(LoadMem(kSizeDw, 7, 0, 0));
    out.push_back(StoreMemImm(kSizeW, 0, 4,
                              static_cast<std::int32_t>(EdgeValue(rng))));
  }
}

// Header rewrites between runs: one or two words of random maps in `m`,
// the same ones for the same seed.
void RewriteHeaders(Machine& m, std::uint64_t seed) {
  Rng rng(seed);
  for (std::uint64_t i = 0, n = 1 + rng.NextBounded(2); i < n; ++i) {
    const std::size_t slot = rng.NextBounded(kFuzzMaps.size());
    const auto [word, value] = HeaderRewrite(rng, kFuzzMaps[slot]);
    StoreLE(m.mem.SpanAt(m.map_addrs[slot] + word, 4).value().data(), value);
  }
}

// A random program over the whole ISA; with `map_calls`, about a third of
// its body is map helper calls on kFuzzMaps.
Program RandomProgram(std::uint64_t seed, std::size_t body,
                      bool map_calls = false) {
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
  if (map_calls) {
    prog.maps = kFuzzMaps;
    for (std::size_t k = 0; k < kFuzzMaps.size(); ++k) {
      auto [lo, hi] = LoadMapFd(1, static_cast<std::int32_t>(k));
      out.push_back(lo);
      out.push_back(hi);
      const auto slot = static_cast<std::int16_t>(kHandleSlot + 8 * k);
      out.push_back(StoreMemReg(kSizeDw, kFrameReg, 1, slot));
    }
  }
  // Jumps skip whole units, one instruction or one map call, so none lands
  // inside a call's setup; their offsets are fixed once the layout is known.
  std::vector<std::size_t> unit_start;
  std::vector<std::pair<std::size_t, std::size_t>> jumps;  // insn, unit
  const std::size_t exit_at = out.size() + body;
  while (out.size() < exit_at) {
    unit_start.push_back(out.size());
    if (map_calls && rng.NextBounded(3) == 0) {
      EmitMapCall(rng, out);
      continue;
    }
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
      jumps.emplace_back(out.size(), unit_start.size() - 1);
      switch (rng.NextBounded(4)) {
        case 0: out.push_back(JmpImm(cond, dst, imm, off)); break;
        case 1: out.push_back(JmpReg(cond, dst, src, off)); break;
        case 2: out.push_back(Jmp32Imm(cond, dst, imm, off)); break;
        default: out.push_back(Jmp32Reg(cond, dst, src, off)); break;
      }
    } else if (roll < 63) {
      jumps.emplace_back(out.size(), unit_start.size() - 1);
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
  unit_start.push_back(out.size());  // the exit
  for (const auto& [insn, unit] : jumps) {
    const std::size_t target = unit_start[std::min(
        unit + 1 + static_cast<std::size_t>(out[insn].off),
        unit_start.size() - 1)];
    out[insn].off = static_cast<std::int16_t>(target - insn - 1);
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

TEST(DifferentialFuzz, MapHelpersAgainstRewrittenHeaders) {
  // The JIT serves array lookups and updates inline; the interpreter
  // always goes through CallHelperFn. Three runs per program on the same
  // machines, with header words rewritten before the second and third.
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const Program prog = RandomProgram(seed, 24 + seed % 80, true);
    ExpectEnginesAgree(prog, seed, 1u << 20,
                       "maps seed " + std::to_string(seed), 3,
                       [seed](Machine& m, int round) {
                         RewriteHeaders(m, seed * 8 + round);
                       });
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
