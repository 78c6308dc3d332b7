// End-to-end checks of the eBPF toolchain: assemble -> verify ->
// interpret / JIT, plus encode/decode round trips.
#include <gtest/gtest.h>

#include "bpf/assembler.h"
#include "bpf/exec.h"
#include "bpf/interpreter.h"
#include "bpf/jit.h"
#include "bpf/proggen.h"
#include "bpf/verifier.h"

namespace rdx::bpf {
namespace {

// Shared harness: program executed over a VectorMemory with a ctx buffer
// and a stack region.
struct Harness {
  VectorMemory mem{1 << 20};
  Rng rng{42};
  RuntimeContext rt;
  ExecOptions opts;
  std::vector<std::unique_ptr<Bytes>> keepalive;

  Harness() {
    rt.mem = &mem;
    rt.rng = &rng;
    opts.ctx_addr = mem.Allocate(256).value();
    opts.ctx_len = 256;
    opts.stack_addr = mem.Allocate(kStackSize).value();
  }

  void SetCtx(std::uint64_t off, std::uint32_t v) {
    ASSERT_TRUE(mem.StoreInt(opts.ctx_addr + off, 4, v).ok());
  }

  // Creates a map in the address space, registers it, returns its addr.
  std::uint64_t AddMap(const MapSpec& spec) {
    const std::uint64_t addr =
        mem.Allocate(MapRequiredBytes(spec), 8).value();
    MapView view(mem.SpanAt(addr, MapRequiredBytes(spec)).value());
    EXPECT_TRUE(view.Init(spec).ok());
    rt.maps.emplace(addr, spec);
    return addr;
  }
};

std::vector<Insn> MustAssemble(std::string_view src) {
  auto insns = Assemble(src);
  EXPECT_TRUE(insns.ok()) << insns.status().ToString();
  return insns.value();
}

// Resolves map slots in raw insns the way a loader would (interpreter
// path), given slot -> address.
void ResolveMaps(std::vector<Insn>& insns,
                 const std::vector<std::uint64_t>& addrs) {
  for (std::size_t i = 0; i < insns.size(); ++i) {
    if (insns[i].IsLdImm64() && insns[i].src_reg == kPseudoMapFd) {
      const std::uint64_t addr = addrs.at(insns[i].imm);
      insns[i].src_reg = 0;
      insns[i].imm = static_cast<std::int32_t>(addr & 0xffffffff);
      insns[i + 1].imm = static_cast<std::int32_t>(addr >> 32);
    }
  }
}

TEST(Assembler, RoundTripsThroughEncodeDecode) {
  auto insns = MustAssemble(R"(
    r0 = 7
    r1 = r10
    r1 += -8
    *(u64*)(r1 + 0) = r0
    r2 = *(u64*)(r1 + 0)
    if r2 != 7 goto fail
    r0 = 1
    exit
  fail:
    r0 = 0
    exit
  )");
  const Bytes encoded = EncodeProgram(insns);
  auto decoded = DecodeProgram(encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), insns.size());
  for (std::size_t i = 0; i < insns.size(); ++i) {
    EXPECT_EQ(EncodeProgram({(*decoded)[i]}), EncodeProgram({insns[i]}))
        << "insn " << i;
  }
}

TEST(Interpreter, ArithmeticAndBranches) {
  Harness h;
  auto insns = MustAssemble(R"(
    r0 = 10
    r0 *= 3
    r0 -= 5
    if r0 == 25 goto good
    r0 = 0
    exit
  good:
    r0 = 1
    exit
  )");
  auto result = Interpret(insns, h.rt, h.opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->r0, 1u);
}

TEST(Interpreter, ReadsCtx) {
  Harness h;
  h.SetCtx(4, 0xabcd);
  auto insns = MustAssemble(R"(
    r0 = *(u32*)(r1 + 4)
    exit
  )");
  auto result = Interpret(insns, h.rt, h.opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->r0, 0xabcdu);
}

TEST(Interpreter, MapLookupAndUpdate) {
  Harness h;
  const MapSpec spec{"m", MapType::kArray, 4, 8, 16};
  const std::uint64_t map_addr = h.AddMap(spec);

  auto insns = MustAssemble(R"(
    *(u32*)(r10 - 4) = 3
    *(u64*)(r10 - 16) = 99
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
    call map_lookup_elem
    if r0 == 0 goto miss
    r0 = *(u64*)(r0 + 0)
    exit
  miss:
    r0 = 0
    exit
  )");
  ResolveMaps(insns, {map_addr});
  auto result = Interpret(insns, h.rt, h.opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->r0, 99u);
}

TEST(Verifier, AcceptsWellFormedProgram) {
  Program prog;
  prog.name = "ok";
  prog.maps.push_back({"m", MapType::kArray, 4, 8, 16});
  prog.insns = MustAssemble(R"(
    *(u32*)(r10 - 4) = 1
    r1 = map 0
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r0 = *(u64*)(r0 + 0)
    exit
  out:
    r0 = 0
    exit
  )");
  VerifierStats stats;
  EXPECT_TRUE(Verifier().Verify(prog, &stats).ok());
  EXPECT_GT(stats.insns_processed, 0u);
}

TEST(Verifier, RejectsUninitializedRegister) {
  Program prog;
  prog.insns = MustAssemble("r0 = r3\nexit\n");
  EXPECT_FALSE(Verifier().Verify(prog).ok());
}

TEST(Verifier, RejectsMissingNullCheck) {
  Program prog;
  prog.maps.push_back({"m", MapType::kArray, 4, 8, 16});
  prog.insns = MustAssemble(R"(
    *(u32*)(r10 - 4) = 1
    r1 = map 0
    r2 = r10
    r2 += -4
    call map_lookup_elem
    r0 = *(u64*)(r0 + 0)
    exit
  )");
  auto status = Verifier().Verify(prog);
  EXPECT_FALSE(status.ok());
}

TEST(Verifier, RejectsBackEdge) {
  Program prog;
  prog.insns = MustAssemble(R"(
  top:
    r0 = 1
    goto top
  )");
  EXPECT_FALSE(Verifier().Verify(prog).ok());
}

TEST(Verifier, RejectsOutOfBoundsStack) {
  Program prog;
  prog.insns = MustAssemble(R"(
    *(u64*)(r10 - 520) = 1
    r0 = 0
    exit
  )");
  EXPECT_FALSE(Verifier().Verify(prog).ok());
}

TEST(Verifier, AcceptsGeneratedPrograms) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Program prog = GenerateProgram({.target_insns = 2000, .seed = seed});
    EXPECT_EQ(prog.insns.size(), 2000u);
    auto status = Verifier().Verify(prog);
    EXPECT_TRUE(status.ok()) << "seed " << seed << ": "
                             << status.ToString();
  }
}

TEST(Jit, MatchesInterpreterOnGeneratedPrograms) {
  JitCompiler jit;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Program prog = GenerateProgram({.target_insns = 1000, .seed = seed});
    ASSERT_TRUE(Verifier().Verify(prog).ok());

    Harness h;
    const std::uint64_t map_addr = h.AddMap(prog.maps[0]);
    h.SetCtx(0, static_cast<std::uint32_t>(seed * 7919));

    std::vector<Insn> resolved = prog.insns;
    ResolveMaps(resolved, {map_addr});
    auto interp = Interpret(resolved, h.rt, h.opts);
    ASSERT_TRUE(interp.ok()) << interp.status().ToString();

    // Fresh harness for JIT so map side effects start from scratch.
    Harness h2;
    const std::uint64_t map_addr2 = h2.AddMap(prog.maps[0]);
    h2.SetCtx(0, static_cast<std::uint32_t>(seed * 7919));
    auto image = jit.Compile(prog);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    for (const Relocation& reloc : image->relocs) {
      if (reloc.kind == RelocKind::kMapAddress) {
        image->code[reloc.index].imm64 = map_addr2;
      }
    }
    ASSERT_TRUE(image->MakeRunnable().ok());
    auto jit_result = RunJit(*image, h2.rt, h2.opts);
    ASSERT_TRUE(jit_result.ok()) << jit_result.status().ToString();
    EXPECT_EQ(jit_result->r0, interp->r0) << "seed " << seed;
    EXPECT_EQ(jit_result->insns_executed, interp->insns_executed);
  }
}

TEST(Jit, SerializeDeserializeRoundTrip) {
  Program prog = GenerateProgram({.target_insns = 500, .seed = 3});
  auto image = JitCompiler().Compile(prog);
  ASSERT_TRUE(image.ok());
  const Bytes wire = image->Serialize();
  auto back = JitImage::Deserialize(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->program_name, image->program_name);
  EXPECT_EQ(back->code.size(), image->code.size());
  EXPECT_EQ(back->relocs.size(), image->relocs.size());
  EXPECT_EQ(back->Fingerprint(), image->Fingerprint());
}

TEST(Jit, RefusesToRunUnlinkedImage) {
  Program prog = GenerateProgram({.target_insns = 1300, .seed = 1});
  auto image = JitCompiler().Compile(prog);
  ASSERT_TRUE(image.ok());
  bool has_map_reloc = false;
  for (const Relocation& r : image->relocs) {
    has_map_reloc |= r.kind == RelocKind::kMapAddress;
  }
  ASSERT_TRUE(has_map_reloc);
  Harness h;
  auto result = RunJit(*image, h.rt, h.opts);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  // Linking happens in memory; making it runnable re-checks the slots.
  EXPECT_EQ(image->MakeRunnable().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(RunJit(*image, h.rt, h.opts).status().code(),
            StatusCode::kFailedPrecondition);
  // A decoded unlinked image is refused the same way.
  auto decoded = JitImage::Deserialize(image->Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->runnable());
  EXPECT_EQ(RunJit(*decoded, h.rt, h.opts).status().code(),
            StatusCode::kFailedPrecondition);
}

// Images whose checksum is valid but whose micro-ops the executor would
// have to defend against at run time are rejected when decoded; the same
// checks refuse such an image built in memory.
TEST(Jit, DecodeRejectsMicroOpsTheExecutorWouldHaveToCheck) {
  auto base = Assemble(R"(
    r0 = 1
    r2 = r0
    if r0 > 5 goto out
    r0 = *(u32*)(r1 + 0)
    *(u64*)(r10 - 8) = 3
    *(u32*)(r10 - 16) = r0
    r0 = be16 r0
    goto out
  out:
    exit
  )");
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  Program prog;
  prog.name = "crafted";
  prog.insns = *base;
  auto compiled = JitCompiler().Compile(prog);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  // Micro-op indices of the program above.
  constexpr std::size_t kAluK = 0, kAluX = 1, kCond = 2, kLoad = 3,
                        kStoreImm = 4, kStoreReg = 5, kEndian = 6, kJump = 7;
  const std::uint32_t past_end =
      static_cast<std::uint32_t>(compiled->code.size()) + 1;

  struct Case {
    const char* what;
    std::size_t index;
    void (*mutate)(MicroOp&, std::uint32_t past_end);
  };
  const Case cases[] = {
      {"alu dst", kAluK, [](MicroOp& op, std::uint32_t) { op.dst = 11; }},
      {"alu src", kAluX, [](MicroOp& op, std::uint32_t) { op.src = 15; }},
      {"cond dst", kCond, [](MicroOp& op, std::uint32_t) { op.dst = 12; }},
      {"load src", kLoad, [](MicroOp& op, std::uint32_t) { op.src = 11; }},
      {"store dst", kStoreImm,
       [](MicroOp& op, std::uint32_t) { op.dst = 13; }},
      {"store src", kStoreReg,
       [](MicroOp& op, std::uint32_t) { op.src = 14; }},
      {"swap dst", kEndian, [](MicroOp& op, std::uint32_t) { op.dst = 11; }},
      {"jump target", kJump,
       [](MicroOp& op, std::uint32_t end) { op.target = end; }},
      {"cond target", kCond,
       [](MicroOp& op, std::uint32_t end) { op.target = end; }},
      {"alu op BPF_END", kAluK,
       [](MicroOp& op, std::uint32_t) { op.aux = kAluEnd; }},
      {"alu op low bits", kAluK,
       [](MicroOp& op, std::uint32_t) { op.aux = kAluAdd | 0x01; }},
      {"jmp op call", kCond,
       [](MicroOp& op, std::uint32_t) { op.aux = kJmpCall; }},
      {"jmp op ja", kCond, [](MicroOp& op, std::uint32_t) { op.aux = kJmpJa; }},
      {"jmp op 0xe0", kCond, [](MicroOp& op, std::uint32_t) { op.aux = 0xe0; }},
      {"load size 3", kLoad, [](MicroOp& op, std::uint32_t) { op.aux = 3; }},
      {"store size 16", kStoreImm,
       [](MicroOp& op, std::uint32_t) { op.aux = 16; }},
      {"store size 0", kStoreReg,
       [](MicroOp& op, std::uint32_t) { op.aux = 0; }},
      {"swap width 8", kEndian, [](MicroOp& op, std::uint32_t) { op.aux = 8; }},
      {"swap width 128", kEndian,
       [](MicroOp& op, std::uint32_t) { op.aux = 128; }},
  };

  // The unmodified image decodes, is runnable, and runs.
  auto good = JitImage::Deserialize(compiled->Serialize());
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(good->runnable());
  Harness h;
  EXPECT_TRUE(RunJit(*good, h.rt, h.opts).ok());

  for (const Case& c : cases) {
    JitImage crafted = *compiled;
    c.mutate(crafted.code.at(c.index), past_end);
    // Serialize recomputes the checksum, so only the decoder's own checks
    // stand between this image and the executor.
    auto decoded = JitImage::Deserialize(crafted.Serialize());
    ASSERT_FALSE(decoded.ok()) << c.what;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << c.what << ": " << decoded.status().ToString();
    const Status made = crafted.MakeRunnable();
    EXPECT_EQ(made.code(), StatusCode::kInvalidArgument) << c.what;
    EXPECT_EQ(RunJit(crafted, h.rt, h.opts).status().code(),
              StatusCode::kFailedPrecondition)
        << c.what;
  }
}

TEST(Jit, CorruptedImageRejectedByChecksum) {
  Program prog = GenerateProgram({.target_insns = 300, .seed = 9});
  Bytes wire = JitCompiler().Compile(prog)->Serialize();
  wire[40] ^= 0xff;
  EXPECT_FALSE(JitImage::Deserialize(wire).ok());
}

}  // namespace
}  // namespace rdx::bpf
