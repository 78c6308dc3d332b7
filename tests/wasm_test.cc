// Wasm-filter runtime tests: validator rules, execution semantics, host
// calls, the image wire format, and generated-filter properties.
#include <gtest/gtest.h>

#include "wasm/filter.h"

namespace rdx::wasm {
namespace {

// Host that records calls and returns arg0 + arg1.
class RecordingHost final : public WasmHost {
 public:
  StatusOr<std::uint64_t> CallHost(std::int32_t host_fn, std::uint64_t arg0,
                                   std::uint64_t arg1) override {
    calls.push_back({host_fn, arg0, arg1});
    return arg0 + arg1;
  }
  struct Call {
    std::int32_t fn;
    std::uint64_t arg0, arg1;
  };
  std::vector<Call> calls;
};

FilterModule Module(std::vector<WasmInsn> code,
                    std::vector<ImportDecl> imports = {{"f"}}) {
  FilterModule module;
  module.name = "t";
  module.num_locals = 4;
  module.code = std::move(code);
  module.imports = std::move(imports);
  return module;
}

// Links every reloc to host fn 0 and runs the lowered code, checking
// that the reference interpreter gives the same result.
StatusOr<WasmResult> CompileAndRun(const FilterModule& module,
                                   RecordingHost& host) {
  auto image = CompileFilter(module);
  if (!image.ok()) return image.status();
  for (WasmReloc& reloc : image->relocs) reloc.resolved_host_fn = 0;
  RDX_RETURN_IF_ERROR(image->MakeRunnable());
  RecordingHost oracle_host;
  auto want = RunFilter(*image, oracle_host);
  auto got = RunLowered(*image, host);
  EXPECT_EQ(want.ok(), got.ok());
  if (want.ok() && got.ok()) {
    EXPECT_EQ(want->verdict, got->verdict);
    EXPECT_EQ(want->insns_executed, got->insns_executed);
  }
  EXPECT_EQ(oracle_host.calls.size(), host.calls.size());
  return got;
}

// ---- validator ----

TEST(WasmValidator, EmptyFilterRejected) {
  EXPECT_FALSE(ValidateFilter(Module({})).ok());
}

TEST(WasmValidator, StackUnderflowRejected) {
  EXPECT_FALSE(ValidateFilter(Module({{WOp::kAdd, 0}})).ok());
  EXPECT_FALSE(ValidateFilter(
      Module({{WOp::kConst, 1}, {WOp::kAdd, 0}})).ok());
  EXPECT_FALSE(ValidateFilter(Module({{WOp::kReturn, 0}})).ok());
  EXPECT_FALSE(ValidateFilter(Module({{WOp::kDrop, 0}})).ok());
}

TEST(WasmValidator, LocalsOutOfRangeRejected) {
  EXPECT_FALSE(ValidateFilter(
      Module({{WOp::kGetLocal, 4}, {WOp::kReturn, 0}})).ok());
  EXPECT_FALSE(ValidateFilter(
      Module({{WOp::kConst, 1}, {WOp::kSetLocal, -1},
              {WOp::kConst, 0}, {WOp::kReturn, 0}})).ok());
}

TEST(WasmValidator, BackwardBranchRejected) {
  EXPECT_FALSE(ValidateFilter(
      Module({{WOp::kConst, 1}, {WOp::kBrIf, 0},
              {WOp::kConst, 0}, {WOp::kReturn, 0}})).ok());
}

TEST(WasmValidator, BranchPastEndRejected) {
  EXPECT_FALSE(ValidateFilter(
      Module({{WOp::kConst, 1}, {WOp::kBrIf, 99},
              {WOp::kConst, 0}, {WOp::kReturn, 0}})).ok());
}

TEST(WasmValidator, BranchToEndRejected) {
  // A branch to code.size() lands past the last instruction: every path
  // must end in a return.
  EXPECT_FALSE(ValidateFilter(
      Module({{WOp::kConst, 1}, {WOp::kBrIf, 4},
              {WOp::kConst, 0}, {WOp::kReturn, 0}})).ok());
  EXPECT_FALSE(ValidateFilter(
      Module({{WOp::kBr, 1}})).ok());
}

TEST(WasmValidator, FallOffEndRejected) {
  EXPECT_FALSE(ValidateFilter(Module({{WOp::kConst, 1}})).ok());
}

TEST(WasmValidator, MismatchedDepthAtMergeRejected) {
  // Branch arrives at pc 4 with depth 1; fallthrough with depth 2.
  EXPECT_FALSE(ValidateFilter(
      Module({{WOp::kConst, 1},
              {WOp::kConst, 1},
              {WOp::kBrIf, 4},
              {WOp::kConst, 2},
              {WOp::kReturn, 0}})).ok());
}

TEST(WasmValidator, ImportOutOfRangeRejected) {
  EXPECT_FALSE(ValidateFilter(
      Module({{WOp::kConst, 1}, {WOp::kConst, 2}, {WOp::kCallHost, 3},
              {WOp::kReturn, 0}})).ok());
}

TEST(WasmValidator, UnreachableCodeRejected) {
  EXPECT_FALSE(ValidateFilter(
      Module({{WOp::kConst, 1}, {WOp::kReturn, 0},
              {WOp::kConst, 2}, {WOp::kReturn, 0}})).ok());
}

TEST(WasmValidator, WellFormedFilterAccepted) {
  WasmValidatorStats stats;
  FilterModule module = Module({
      {WOp::kConst, 5},
      {WOp::kSetLocal, 0},
      {WOp::kGetLocal, 0},
      {WOp::kConst, 5},
      {WOp::kEq, 0},
      {WOp::kBrIf, 8},
      {WOp::kConst, 0},
      {WOp::kReturn, 0},
      {WOp::kConst, 1},
      {WOp::kReturn, 0},
  });
  EXPECT_TRUE(ValidateFilter(module, &stats).ok());
  EXPECT_EQ(stats.insns_checked, module.code.size());
}

// ---- execution ----

TEST(WasmRun, ArithmeticAndLocals) {
  RecordingHost host;
  auto result = CompileAndRun(Module({
      {WOp::kConst, 6},
      {WOp::kConst, 7},
      {WOp::kMul, 0},
      {WOp::kSetLocal, 1},
      {WOp::kGetLocal, 1},
      {WOp::kReturn, 0},
  }), host);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->verdict, 42u);
}

TEST(WasmRun, BranchSkipsCode) {
  RecordingHost host;
  auto result = CompileAndRun(Module({
      {WOp::kConst, 1},
      {WOp::kBrIf, 4},
      {WOp::kConst, 111},
      {WOp::kReturn, 0},
      {WOp::kConst, 222},
      {WOp::kReturn, 0},
  }), host);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->verdict, 222u);
}

TEST(WasmRun, ComparisonsProduceBooleans) {
  RecordingHost host;
  auto result = CompileAndRun(Module({
      {WOp::kConst, 3},
      {WOp::kConst, 5},
      {WOp::kLtU, 0},
      {WOp::kReturn, 0},
  }), host);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->verdict, 1u);
}

TEST(WasmRun, HostCallPopsTwoPushesOne) {
  RecordingHost host;
  auto result = CompileAndRun(Module({
      {WOp::kConst, 10},
      {WOp::kConst, 32},
      {WOp::kCallHost, 0},
      {WOp::kReturn, 0},
  }), host);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->verdict, 42u);
  ASSERT_EQ(host.calls.size(), 1u);
  EXPECT_EQ(host.calls[0].arg0, 10u);
  EXPECT_EQ(host.calls[0].arg1, 32u);
}

TEST(WasmRun, DupAndDrop) {
  RecordingHost host;
  auto result = CompileAndRun(Module({
      {WOp::kConst, 9},
      {WOp::kDup, 0},
      {WOp::kAdd, 0},
      {WOp::kConst, 100},
      {WOp::kDrop, 0},
      {WOp::kReturn, 0},
  }), host);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->verdict, 18u);
}

TEST(WasmRun, StepLimitAborts) {
  // A long but finite filter with a tiny step limit.
  FilterModule module;
  module.name = "long";
  module.num_locals = 1;
  for (int i = 0; i < 100; ++i) {
    module.code.push_back({WOp::kConst, i});
    module.code.push_back({WOp::kDrop, 0});
  }
  module.code.push_back({WOp::kConst, 1});
  module.code.push_back({WOp::kReturn, 0});
  auto image = CompileFilter(module);
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(image->MakeRunnable().ok());
  RecordingHost host;
  EXPECT_EQ(RunFilter(*image, host, /*step_limit=*/10).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(RunLowered(*image, host, /*step_limit=*/10).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(WasmRun, UnlinkedImageRefused) {
  auto image = CompileFilter(Module({
      {WOp::kConst, 1},
      {WOp::kConst, 2},
      {WOp::kCallHost, 0},
      {WOp::kReturn, 0},
  }));
  ASSERT_TRUE(image.ok());
  EXPECT_FALSE(image->IsLinked());
  EXPECT_EQ(image->MakeRunnable().code(), StatusCode::kFailedPrecondition);
  RecordingHost host;
  EXPECT_FALSE(RunFilter(*image, host).ok());
  EXPECT_EQ(RunLowered(*image, host).status().code(),
            StatusCode::kFailedPrecondition);
}

// ---- image wire format ----

TEST(WasmImageFormat, SerializeDeserializeRoundTrip) {
  FilterModule module = GenerateFilter(500, 3);
  auto image = CompileFilter(module);
  ASSERT_TRUE(image.ok());
  const Bytes wire = image->Serialize();
  auto back = WasmImage::Deserialize(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->filter_name, image->filter_name);
  EXPECT_EQ(back->num_locals, image->num_locals);
  EXPECT_EQ(back->code.size(), image->code.size());
  ASSERT_EQ(back->relocs.size(), image->relocs.size());
  for (std::size_t i = 0; i < back->relocs.size(); ++i) {
    EXPECT_EQ(back->relocs[i].import_name, image->relocs[i].import_name);
  }
  EXPECT_EQ(back->Fingerprint(), image->Fingerprint());
}

TEST(WasmImageFormat, ChecksumCatchesCorruption) {
  auto image = CompileFilter(GenerateFilter(300, 1));
  Bytes wire = image->Serialize();
  wire[wire.size() / 2] ^= 0x5a;
  EXPECT_FALSE(WasmImage::Deserialize(wire).ok());
}

TEST(WasmImageFormat, FingerprintIgnoresLinking) {
  auto image = CompileFilter(GenerateFilter(300, 2));
  ASSERT_TRUE(image.ok());
  const std::uint64_t before = image->Fingerprint();
  for (WasmReloc& reloc : image->relocs) {
    reloc.resolved_host_fn = 2;
    image->code[reloc.insn_index].imm = 2;
  }
  EXPECT_EQ(image->Fingerprint(), before);
}

TEST(WasmImageFormat, FingerprintDistinguishesFilters) {
  auto a = CompileFilter(GenerateFilter(300, 1));
  auto b = CompileFilter(GenerateFilter(300, 2));
  EXPECT_NE(a->Fingerprint(), b->Fingerprint());
}

// ---- generated filters ----

class GeneratedFilters : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratedFilters, ValidateCompileAndRun) {
  for (std::size_t size : {50, 300, 2000}) {
    FilterModule module = GenerateFilter(size, GetParam());
    ASSERT_TRUE(ValidateFilter(module).ok())
        << "size " << size << " seed " << GetParam();
    auto image = CompileFilter(module);
    ASSERT_TRUE(image.ok());
    for (WasmReloc& reloc : image->relocs) reloc.resolved_host_fn = 0;
    ASSERT_TRUE(image->MakeRunnable().ok());
    RecordingHost host;
    auto result = RunLowered(*image, host);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_LE(result->verdict, 1u);  // verdict is masked to a bit
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedFilters,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace rdx::wasm
