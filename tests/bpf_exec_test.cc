// Execution-semantics tests: ALU corner cases, branch conditions, memory
// access, helper behaviour, runtime guards — plus parameterized
// interpreter-vs-JIT divergence checks (the two engines share the ALU
// core but differ in dispatch and relocation, so agreement here validates
// the whole lowering pipeline).
#include <gtest/gtest.h>

#include <ostream>

#include "bpf/assembler.h"
#include "bpf/interpreter.h"
#include "bpf/jit.h"
#include "bpf/proggen.h"
#include "bpf/verifier.h"

namespace rdx::bpf {
namespace {

struct Harness {
  VectorMemory mem{1 << 20};
  Rng rng{42};
  RuntimeContext rt;
  ExecOptions opts;

  Harness() {
    rt.mem = &mem;
    rt.rng = &rng;
    opts.ctx_addr = mem.Allocate(256).value();
    opts.ctx_len = 256;
    opts.stack_addr = mem.Allocate(kStackSize).value();
  }

  std::uint64_t AddMap(const MapSpec& spec) {
    const std::uint64_t addr =
        mem.Allocate(MapRequiredBytes(spec), 8).value();
    MapView view(mem.SpanAt(addr, MapRequiredBytes(spec)).value());
    EXPECT_TRUE(view.Init(spec).ok());
    rt.maps.emplace(addr, spec);
    return addr;
  }

  std::uint64_t Run(std::string_view asm_text) {
    auto insns = Assemble(asm_text);
    EXPECT_TRUE(insns.ok()) << insns.status().ToString();
    auto result = Interpret(insns.value(), rt, opts);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->r0 : ~0ull;
  }
};

// ---- ALU semantics ----

TEST(Alu, DivisionByZeroYieldsZero) {
  Harness h;
  EXPECT_EQ(h.Run("r0 = 10\nr1 = 0\nr0 /= r1\nexit\n"), 0u);
  EXPECT_EQ(h.Run("r0 = 10\nr1 = 0\nr0 %= r1\nexit\n"), 0u);
}

TEST(Alu, UnsignedDivision) {
  Harness h;
  // -1 as u64 / 2.
  EXPECT_EQ(h.Run("r0 = -1\nr1 = 2\nr0 /= r1\nexit\n"),
            0xffffffffffffffffull / 2);
}

// A 32-bit divisor is its low 32 bits, so a register holding only high
// bits divides (and takes the modulus) by zero: the result is 0 on both
// engines instead of a host divide fault.
TEST(Alu, Alu32DivisorWithOnlyHighBitsYieldsZero) {
  for (const char* op : {"/=", "%="}) {
    auto insns = Assemble(std::string("r0 = 7\nr2 = imm64 0x100000000\nw0 ") +
                          op + " w2\nexit\n");
    ASSERT_TRUE(insns.ok()) << insns.status().ToString();
    Harness interp;
    auto want = Interpret(*insns, interp.rt, interp.opts);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(want->r0, 0u) << op;

    Program prog;
    prog.insns = *insns;
    auto image = JitCompiler().Compile(prog);
    ASSERT_TRUE(image.ok() && image->MakeRunnable().ok());
    Harness jit;
    auto got = RunJit(*image, jit.rt, jit.opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->r0, 0u) << op;
  }
}

TEST(Alu, Alu32TruncatesAndZeroExtends) {
  Harness h;
  // w-register add wraps at 32 bits and clears the upper half.
  EXPECT_EQ(h.Run(R"(
    r0 = -1
    w0 += 1
    exit
  )"), 0u);
  EXPECT_EQ(h.Run(R"(
    r0 = -1
    w0 = 5
    exit
  )"), 5u);
}

TEST(Alu, ArithmeticShiftPreservesSign) {
  Harness h;
  EXPECT_EQ(h.Run("r0 = -8\nr0 s>>= 1\nexit\n"),
            static_cast<std::uint64_t>(-4));
  EXPECT_EQ(h.Run("r0 = -8\nr0 >>= 1\nexit\n"),
            static_cast<std::uint64_t>(-8) >> 1);
}

TEST(Alu, Alu32ArshOperatesOn32Bits) {
  Harness h;
  // 0x80000000 s>> 4 in 32-bit = 0xf8000000, zero-extended.
  EXPECT_EQ(h.Run(R"(
    r0 = 1
    r0 <<= 31
    w0 s>>= 4
    exit
  )"), 0xf8000000u);
}

TEST(Alu, NegateWorks) {
  Harness h;
  EXPECT_EQ(h.Run("r0 = 5\nr0 = -r0\nexit\n"),
            static_cast<std::uint64_t>(-5));
}

TEST(Alu, MulWrapsAt64Bits) {
  Harness h;
  EXPECT_EQ(h.Run(R"(
    r0 = imm64 0x8000000000000000
    r1 = 2
    r0 *= r1
    exit
  )"), 0u);
}

TEST(Alu, ShiftByRegisterMasked) {
  Harness h;
  // Shift count is masked to 63 for 64-bit ops.
  EXPECT_EQ(h.Run("r0 = 1\nr1 = 65\nr0 <<= r1\nexit\n"), 2u);
}

// ---- branches ----

struct CondCase {
  const char* cond;
  std::int64_t lhs;
  std::int64_t rhs;
  bool taken;
};

// Names each case by its values. Without this gtest prints the raw bytes
// of the struct, which hold the address of `cond` and uninitialised
// padding, so the ctest names change from one build or run to the next.
void PrintTo(const CondCase& c, std::ostream* os) {
  *os << c.lhs << ' ' << c.cond << ' ' << c.rhs
      << (c.taken ? " taken" : " not taken");
}

class BranchSemantics : public ::testing::TestWithParam<CondCase> {};

TEST_P(BranchSemantics, EvaluatesCorrectly) {
  const CondCase& c = GetParam();
  Harness h;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "r1 = imm64 %lld\nr2 = imm64 %lld\n"
                "if r1 %s r2 goto yes\nr0 = 0\nexit\nyes:\nr0 = 1\nexit\n",
                static_cast<long long>(c.lhs), static_cast<long long>(c.rhs),
                c.cond);
  EXPECT_EQ(h.Run(buf), c.taken ? 1u : 0u)
      << c.lhs << " " << c.cond << " " << c.rhs;
}

INSTANTIATE_TEST_SUITE_P(
    AllConditions, BranchSemantics,
    ::testing::Values(
        CondCase{"==", 5, 5, true}, CondCase{"==", 5, 6, false},
        CondCase{"!=", 5, 6, true}, CondCase{"!=", 5, 5, false},
        // Unsigned comparisons treat -1 as max u64.
        CondCase{">", -1, 1, true}, CondCase{"<", -1, 1, false},
        CondCase{">=", 7, 7, true}, CondCase{"<=", 7, 7, true},
        CondCase{">", 7, 7, false}, CondCase{"<", 7, 7, false},
        // Signed comparisons see -1 < 1.
        CondCase{"s>", -1, 1, false}, CondCase{"s<", -1, 1, true},
        CondCase{"s>=", -3, -3, true}, CondCase{"s<=", -3, -2, true},
        CondCase{"s>", 2, -2, true}, CondCase{"s<", 2, -2, false},
        // JSET: bitwise-and test.
        CondCase{"&", 0b1100, 0b0100, true},
        CondCase{"&", 0b1100, 0b0011, false}));

// ---- memory ----

TEST(Memory, SubWordLoadsZeroExtend) {
  Harness h;
  ASSERT_TRUE(h.mem.StoreInt(h.opts.ctx_addr, 8, 0xffeeddccbbaa9988ull).ok());
  EXPECT_EQ(h.Run("r0 = *(u8*)(r1 + 0)\nexit\n"), 0x88u);
  EXPECT_EQ(h.Run("r0 = *(u16*)(r1 + 0)\nexit\n"), 0x9988u);
  EXPECT_EQ(h.Run("r0 = *(u32*)(r1 + 0)\nexit\n"), 0xbbaa9988u);
  EXPECT_EQ(h.Run("r0 = *(u64*)(r1 + 0)\nexit\n"), 0xffeeddccbbaa9988ull);
}

TEST(Memory, SubWordStoresTruncate) {
  Harness h;
  EXPECT_EQ(h.Run(R"(
    r1 = imm64 0x1122334455667788
    *(u64*)(r10 - 8) = r1
    r2 = imm64 0xaaaaaaaaaaaaaaaa
    *(u16*)(r10 - 8) = r2
    r0 = *(u64*)(r10 - 8)
    exit
  )"), 0x112233445566aaaaull);
}

TEST(Memory, StackReadsBackWrites) {
  Harness h;
  EXPECT_EQ(h.Run(R"(
    r1 = 12345
    *(u64*)(r10 - 16) = r1
    *(u32*)(r10 - 24) = 99
    r0 = *(u64*)(r10 - 16)
    r2 = *(u32*)(r10 - 24)
    r0 += r2
    exit
  )"), 12444u);
}

TEST(Memory, OutOfSpaceAccessFailsAtRuntime) {
  Harness h;
  // Unverified program reading far outside the address space: the
  // interpreter's defensive bounds check catches it.
  auto insns = Assemble(R"(
    r1 = imm64 0x999999999
    r0 = *(u64*)(r1 + 0)
    exit
  )");
  ASSERT_TRUE(insns.ok());
  EXPECT_FALSE(Interpret(insns.value(), h.rt, h.opts).ok());
}

// ---- runtime guards ----

TEST(Guards, InstructionLimitAborts) {
  Harness h;
  auto insns = Assemble(R"(
  top:
    r0 += 1
    goto top
  )");
  ASSERT_TRUE(insns.ok());
  h.opts.insn_limit = 1000;
  auto result = Interpret(insns.value(), h.rt, h.opts);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Guards, FallingOffTheEndAborts) {
  Harness h;
  std::vector<Insn> insns = {MovImm(0, 1)};  // no exit
  EXPECT_FALSE(Interpret(insns, h.rt, h.opts).ok());
}

TEST(Guards, UnknownHelperFailsAtRuntime) {
  Harness h;
  auto insns = Assemble("call 9999\nexit\n");
  ASSERT_TRUE(insns.ok());
  EXPECT_FALSE(Interpret(insns.value(), h.rt, h.opts).ok());
}

// ---- helpers ----

TEST(Helpers, CallClobbersR1toR5) {
  Harness h;
  EXPECT_EQ(h.Run(R"(
    r6 = 111
    r1 = 5
    r2 = 5
    call trace_printk
    r0 = r1
    r0 += r2
    r0 += r6
    exit
  )"), 111u);
  EXPECT_EQ(h.rt.trace_count, 1u);
}

TEST(Helpers, KtimeComesFromContext) {
  Harness h;
  h.rt.ktime_ns = [] { return 123456ull; };
  EXPECT_EQ(h.Run("call ktime_get_ns\nexit\n"), 123456u);
}

TEST(Helpers, PrandomIsDeterministicPerSeed) {
  Harness h1, h2;
  const std::uint64_t a = h1.Run("call get_prandom_u32\nexit\n");
  const std::uint64_t b = h2.Run("call get_prandom_u32\nexit\n");
  EXPECT_EQ(a, b);  // same seed
  EXPECT_LE(a, 0xffffffffull);
}

TEST(Helpers, SmpProcessorId) {
  Harness h;
  h.rt.processor_id = 7;
  EXPECT_EQ(h.Run("call get_smp_processor_id\nexit\n"), 7u);
}

TEST(Helpers, MapDeleteRemovesEntry) {
  Harness h;
  const MapSpec spec{"m", MapType::kHash, 4, 8, 16};
  const std::uint64_t map_addr = h.AddMap(spec);
  auto insns = Assemble(R"(
    *(u32*)(r10 - 4) = 42
    *(u64*)(r10 - 16) = 7
    r1 = map 0
    r2 = r10
    r2 += -4
    r3 = r10
    r3 += -16
    r4 = 0
    call map_update_elem
    r1 = map 0
    r2 = r10
    r2 += -4
    call map_delete_elem
    r1 = map 0
    r2 = r10
    r2 += -4
    call map_lookup_elem
    exit
  )");
  ASSERT_TRUE(insns.ok());
  std::vector<Insn> resolved = insns.value();
  for (std::size_t i = 0; i < resolved.size(); ++i) {
    if (resolved[i].IsLdImm64() && resolved[i].src_reg == kPseudoMapFd) {
      resolved[i].src_reg = 0;
      resolved[i].imm = static_cast<std::int32_t>(map_addr & 0xffffffff);
      resolved[i + 1].imm = static_cast<std::int32_t>(map_addr >> 32);
    }
  }
  auto result = Interpret(resolved, h.rt, h.opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->r0, 0u);  // lookup after delete returns NULL
}

TEST(Helpers, RingbufOutputFromExtension) {
  Harness h;
  const MapSpec spec{"rb", MapType::kRingBuf, 0, 16, 8};
  const std::uint64_t map_addr = h.AddMap(spec);
  auto insns = Assemble(R"(
    r6 = imm64 0xcafebabe
    *(u64*)(r10 - 8) = r6
    r1 = map 0
    r2 = r10
    r2 += -8
    r3 = 8
    r4 = 0
    call ringbuf_output
    exit
  )");
  ASSERT_TRUE(insns.ok());
  std::vector<Insn> resolved = insns.value();
  for (std::size_t i = 0; i < resolved.size(); ++i) {
    if (resolved[i].IsLdImm64() && resolved[i].src_reg == kPseudoMapFd) {
      resolved[i].src_reg = 0;
      resolved[i].imm = static_cast<std::int32_t>(map_addr & 0xffffffff);
      resolved[i + 1].imm = static_cast<std::int32_t>(map_addr >> 32);
    }
  }
  auto result = Interpret(resolved, h.rt, h.opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->r0, 0u);

  MapView view(h.mem.SpanAt(map_addr, MapRequiredBytes(spec)).value());
  auto records = view.RingConsume();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ(LoadLE<std::uint64_t>((*records)[0].data()), 0xcafebabeull);
}

// ---- JMP32 and byte-swap (BPF_END) ----

TEST(Jmp32, ComparesOnlyLow32Bits) {
  Harness h;
  // Upper bits differ; low 32 bits equal -> 32-bit compare is taken.
  EXPECT_EQ(h.Run(R"(
    r1 = imm64 0x100000005
    r2 = imm64 0x200000005
    if w1 == w2 goto yes
    r0 = 0
    exit
  yes:
    r0 = 1
    exit
  )"), 1u);
  // The 64-bit compare on the same values is not taken.
  EXPECT_EQ(h.Run(R"(
    r1 = imm64 0x100000005
    r2 = imm64 0x200000005
    if r1 == r2 goto yes
    r0 = 0
    exit
  yes:
    r0 = 1
    exit
  )"), 0u);
}

TEST(Jmp32, SignedUsesBit31) {
  Harness h;
  // 0xffffffff as a 32-bit signed value is -1, so w1 s< 0 holds even
  // though the full 64-bit register is a small positive number.
  EXPECT_EQ(h.Run(R"(
    r1 = imm64 0xffffffff
    if w1 s< 0 goto yes
    r0 = 0
    exit
  yes:
    r0 = 1
    exit
  )"), 1u);
  EXPECT_EQ(h.Run(R"(
    r1 = imm64 0xffffffff
    if r1 s< 0 goto yes
    r0 = 0
    exit
  yes:
    r0 = 1
    exit
  )"), 0u);
}

TEST(Jmp32, UnsignedImmediateCompare) {
  Harness h;
  EXPECT_EQ(h.Run(R"(
    r1 = imm64 0x1fffffff0
    if w1 > 100 goto yes
    r0 = 0
    exit
  yes:
    r0 = 1
    exit
  )"), 1u);  // low 32 = 0xfffffff0 > 100 unsigned
}

TEST(Endian, Be16SwapsAndTruncates) {
  Harness h;
  EXPECT_EQ(h.Run(R"(
    r0 = imm64 0x1122334455667788
    r0 = be16 r0
    exit
  )"), 0x8877u);
}

TEST(Endian, Le16TruncatesOnly) {
  Harness h;
  EXPECT_EQ(h.Run(R"(
    r0 = imm64 0x1122334455667788
    r0 = le16 r0
    exit
  )"), 0x7788u);
}

TEST(Endian, Be32AndBe64) {
  Harness h;
  EXPECT_EQ(h.Run(R"(
    r0 = imm64 0x1122334455667788
    r0 = be32 r0
    exit
  )"), 0x88776655u);
  EXPECT_EQ(h.Run(R"(
    r0 = imm64 0x1122334455667788
    r0 = be64 r0
    exit
  )"), 0x8877665544332211ull);
}

TEST(Endian, NetworkByteOrderIdiom) {
  Harness h;
  // Read a big-endian u16 "port" from the packet and compare natively.
  ASSERT_TRUE(h.mem.StoreInt(h.opts.ctx_addr, 2, 0x5000).ok());  // BE 80
  EXPECT_EQ(h.Run(R"(
    r0 = *(u16*)(r1 + 0)
    r0 = be16 r0
    exit
  )"), 0x0050u);
}

// ---- interpreter/JIT divergence (property test) ----

struct DivergenceParam {
  std::size_t insns;
  std::uint64_t seed;
};

class InterpreterJitDivergence
    : public ::testing::TestWithParam<DivergenceParam> {};

TEST_P(InterpreterJitDivergence, IdenticalResults) {
  const auto& param = GetParam();
  Program prog = GenerateProgram(
      {.target_insns = param.insns, .seed = param.seed});
  ASSERT_TRUE(Verifier().Verify(prog).ok());

  auto run_interp = [&](std::uint32_t ctx_word) {
    Harness h;
    const std::uint64_t map_addr = h.AddMap(prog.maps[0]);
    (void)h.mem.StoreInt(h.opts.ctx_addr, 4, ctx_word);
    std::vector<Insn> resolved = prog.insns;
    for (std::size_t i = 0; i < resolved.size(); ++i) {
      if (resolved[i].IsLdImm64() && resolved[i].src_reg == kPseudoMapFd) {
        resolved[i].src_reg = 0;
        resolved[i].imm = static_cast<std::int32_t>(map_addr & 0xffffffff);
        resolved[i + 1].imm = static_cast<std::int32_t>(map_addr >> 32);
      }
    }
    return Interpret(resolved, h.rt, h.opts);
  };
  auto run_jit = [&](std::uint32_t ctx_word) {
    Harness h;
    const std::uint64_t map_addr = h.AddMap(prog.maps[0]);
    (void)h.mem.StoreInt(h.opts.ctx_addr, 4, ctx_word);
    auto image = JitCompiler().Compile(prog);
    EXPECT_TRUE(image.ok());
    for (const Relocation& reloc : image->relocs) {
      if (reloc.kind == RelocKind::kMapAddress) {
        image->code[reloc.index].imm64 = map_addr;
      }
    }
    EXPECT_TRUE(image->MakeRunnable().ok());
    return RunJit(*image, h.rt, h.opts);
  };

  for (std::uint32_t ctx : {0u, 1u, 0xffffu, 0xdeadbeefu}) {
    auto a = run_interp(ctx);
    auto b = run_jit(ctx);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->r0, b->r0) << "ctx=" << ctx;
    EXPECT_EQ(a->insns_executed, b->insns_executed) << "ctx=" << ctx;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, InterpreterJitDivergence,
    ::testing::Values(DivergenceParam{200, 1}, DivergenceParam{200, 2},
                      DivergenceParam{500, 3}, DivergenceParam{500, 4},
                      DivergenceParam{1500, 5}, DivergenceParam{1500, 6},
                      DivergenceParam{4000, 7}, DivergenceParam{4000, 8},
                      DivergenceParam{12000, 9}, DivergenceParam{12000, 10}));

// ---- encode/decode round-trip property ----

class CodecRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecRoundTrip, ProgramSurvivesWireFormat) {
  Program prog = GenerateProgram({.target_insns = 800, .seed = GetParam()});
  const Bytes wire = prog.Encode();
  auto decoded = DecodeProgram(wire);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), prog.insns.size());
  EXPECT_EQ(EncodeProgram(*decoded), wire);
  // Disassembly is total (never crashes) over generated programs.
  EXPECT_FALSE(DisassembleProgram(*decoded).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTrip,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace rdx::bpf
