// Differential fuzz oracle for Wasm filters: RunFilter, the stack
// interpreter, is the reference, and the lowered code that RunLowered
// runs on the eBPF executor must agree with it on the verdict,
// insns_executed (virtual CPU time), every host call with its arguments,
// and the exact error status. Inputs are seeded GenerateFilter output and
// random valid modules over every WOp — dup, all four compares, br and
// br_if on computed, compared and constant conditions, values carried
// across merge points, set_local under a pending read of the same local,
// constants too wide for a 32-bit immediate — run at fuel limits around
// their executed length and at random cut points, against a host whose
// calls fail on chosen arguments.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "wasm/filter.h"

namespace rdx::wasm {
namespace {

// Records every call. Returns a mix of its inputs, and fails any call
// whose arg1 is kRefused, so runs also end on a host error.
class FuzzHost final : public WasmHost {
 public:
  static constexpr std::uint64_t kRefused = 7;

  StatusOr<std::uint64_t> CallHost(std::int32_t host_fn, std::uint64_t arg0,
                                   std::uint64_t arg1) override {
    calls.push_back({host_fn, arg0, arg1});
    if (arg1 == kRefused) return Unavailable("host refused the call");
    return arg0 * 0x9e3779b97f4a7c15ull + arg1 +
           static_cast<std::uint64_t>(host_fn);
  }

  struct Call {
    std::int32_t fn;
    std::uint64_t arg0, arg1;
    bool operator==(const Call&) const = default;
  };
  std::vector<Call> calls;
};

// Links each host call to an index derived from its import, as a sandbox
// would, and returns the wire image.
Bytes LinkedWire(const FilterModule& module) {
  auto image = CompileFilter(module);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  for (WasmReloc& reloc : image->relocs) {
    reloc.resolved_host_fn =
        static_cast<std::int32_t>(reloc.import_name.size() % 5);
    image->code[reloc.insn_index].imm = reloc.resolved_host_fn;
  }
  return image->Serialize();
}

struct Outcome {
  StatusOr<WasmResult> result;
  std::vector<FuzzHost::Call> calls;
};

// Runs the wire image on both engines with `limit` and checks that every
// observable outcome agrees. Returns the oracle's outcome.
Outcome ExpectEnginesAgree(const Bytes& wire, std::uint64_t limit,
                           const std::string& what) {
  auto image = WasmImage::Deserialize(wire);
  EXPECT_TRUE(image.ok()) << what << ": " << image.status().ToString();
  if (!image.ok()) return {image.status(), {}};
  EXPECT_TRUE(image->runnable()) << what;

  FuzzHost oracle_host;
  auto want = RunFilter(*image, oracle_host, limit);
  FuzzHost lowered_host;
  auto got = RunLowered(*image, lowered_host, limit);

  EXPECT_EQ(want.ok(), got.ok())
      << what << ": oracle " << want.status().ToString() << ", lowered "
      << got.status().ToString();
  if (want.ok() && got.ok()) {
    EXPECT_EQ(want->verdict, got->verdict) << what;
    EXPECT_EQ(want->insns_executed, got->insns_executed) << what;
  } else {
    EXPECT_EQ(want.status(), got.status()) << what;
  }
  EXPECT_TRUE(oracle_host.calls == lowered_host.calls)
      << what << ": " << oracle_host.calls.size() << " oracle calls, "
      << lowered_host.calls.size() << " lowered calls";
  return {std::move(want), std::move(oracle_host.calls)};
}

// Runs `module` unlimited, then at one step less, exactly enough and one
// more than the oracle needed, and at `cuts` random limits below that.
void ExpectAgreeAtEveryLimit(const FilterModule& module, Rng& rng, int cuts,
                             const std::string& what) {
  const Bytes wire = LinkedWire(module);
  const Outcome full = ExpectEnginesAgree(wire, 1u << 20, what);
  if (!full.result.ok()) return;
  const std::uint64_t len = full.result->insns_executed;
  for (std::uint64_t limit : {len - 1, len, len + 1}) {
    ExpectEnginesAgree(wire, limit, what + " limit " + std::to_string(limit));
  }
  for (int i = 0; i < cuts; ++i) {
    const std::uint64_t limit = rng.NextBounded(len);
    ExpectEnginesAgree(wire, limit, what + " limit " + std::to_string(limit));
  }
}

// ---- random valid modules ----

constexpr std::uint32_t kLocals = 4;
constexpr WOp kBinary[] = {WOp::kAdd, WOp::kSub, WOp::kMul, WOp::kAnd,
                           WOp::kOr,  WOp::kXor, WOp::kEq,  WOp::kNe,
                           WOp::kLtU, WOp::kGtU};
constexpr WOp kCompares[] = {WOp::kEq, WOp::kNe, WOp::kLtU, WOp::kGtU};

// Builds structured code: every branch is forward, sees one stack depth
// at its target, and every path returns.
class ModuleGen {
 public:
  explicit ModuleGen(std::uint64_t seed) : rng_(seed) {}

  FilterModule Build() {
    FilterModule module;
    module.name = "fuzz";
    module.num_locals = kLocals;
    module.imports = {{"a"}, {"bb"}, {"ccc"}};
    const int statements = 1 + static_cast<int>(rng_.NextBounded(12));
    for (int i = 0; i < statements; ++i) Statement(3);
    Expr(3);
    Emit(WOp::kReturn);
    module.code = std::move(code_);
    return module;
  }

 private:
  std::int64_t Value() {
    static constexpr std::uint64_t kEdges[] = {
        0, 1, 2, FuzzHost::kRefused, 0x7fffffffull, 0x80000000ull,
        0xffffffffull, 1ull << 32, ~0ull, 0x8000000000000000ull};
    const std::uint64_t v = rng_.NextBool(0.6)
                                ? kEdges[rng_.NextBounded(std::size(kEdges))]
                                : rng_.NextU64();
    return static_cast<std::int64_t>(v);
  }
  std::int64_t Local() {
    return static_cast<std::int64_t>(rng_.NextBounded(kLocals));
  }
  void Emit(WOp op, std::int64_t imm = 0) { code_.push_back({op, imm}); }
  std::size_t Here() const { return code_.size(); }
  // Emits a branch whose target is patched by Land().
  std::size_t Branch(WOp op) {
    Emit(op, -1);
    return Here() - 1;
  }
  void Land(std::size_t branch) {
    code_[branch].imm = static_cast<std::int64_t>(Here());
  }

  // Pushes exactly one value.
  void Expr(int budget) {
    const std::uint64_t roll = budget <= 0 ? rng_.NextBounded(2)
                                           : rng_.NextBounded(9);
    switch (roll) {
      case 0:
        Emit(WOp::kConst, Value());
        return;
      case 1:
        Emit(WOp::kGetLocal, Local());
        return;
      case 2:
      case 3:
        Expr(budget - 1);
        Expr(budget - 1);
        Emit(kBinary[rng_.NextBounded(std::size(kBinary))]);
        return;
      case 4:  // x op x
        Expr(budget - 1);
        Emit(WOp::kDup);
        Emit(kBinary[rng_.NextBounded(std::size(kBinary))]);
        return;
      case 5:
        Expr(budget - 1);
        Expr(budget - 1);
        Emit(WOp::kCallHost, static_cast<std::int64_t>(rng_.NextBounded(3)));
        return;
      case 6:  // a statement runs while the value waits on the stack
        Expr(budget - 1);
        Statement(budget - 1);
        Expr(budget - 1);
        Emit(kBinary[rng_.NextBounded(std::size(kBinary))]);
        return;
      case 7: {  // value chosen by a branch: carried across the merge
        Expr(budget - 1);
        Cond(budget - 1);
        const std::size_t skip = Branch(WOp::kBrIf);
        Emit(WOp::kDrop);
        Expr(budget - 1);
        Land(skip);
        return;
      }
      default: {  // if-else yielding a value
        Cond(budget - 1);
        const std::size_t to_else = Branch(WOp::kBrIf);
        Expr(budget - 1);
        const std::size_t to_end = Branch(WOp::kBr);
        Land(to_else);
        Expr(budget - 1);
        Land(to_end);
        return;
      }
    }
  }

  // Pushes a branch condition: any value, a compare, or a constant.
  void Cond(int budget) {
    switch (rng_.NextBounded(4)) {
      case 0:
        Emit(WOp::kConst, static_cast<std::int64_t>(rng_.NextBounded(2)));
        return;
      case 1:
        Expr(budget);
        Expr(budget);
        Emit(kCompares[rng_.NextBounded(std::size(kCompares))]);
        return;
      case 2:
        Emit(WOp::kGetLocal, Local());
        return;
      default:
        Expr(budget);
        return;
    }
  }

  // Leaves the stack as it found it.
  void Statement(int budget) {
    switch (budget <= 0 ? 0 : rng_.NextBounded(7)) {
      case 0:
      case 1:
        Expr(budget - 1);
        Emit(WOp::kSetLocal, Local());
        return;
      case 2: {  // local = local op x: the fused form
        const std::int64_t local = Local();
        Emit(WOp::kGetLocal, local);
        Expr(budget - 1);
        Emit(kBinary[rng_.NextBounded(std::size(kBinary))]);
        Emit(WOp::kSetLocal, local);
        return;
      }
      case 3:
        Expr(budget - 1);
        Emit(WOp::kDrop);
        return;
      case 4: {  // if
        Cond(budget - 1);
        const std::size_t skip = Branch(WOp::kBrIf);
        Statement(budget - 1);
        Land(skip);
        return;
      }
      case 5: {  // early return
        Cond(budget - 1);
        const std::size_t skip = Branch(WOp::kBrIf);
        Expr(budget - 1);
        Emit(WOp::kReturn);
        Land(skip);
        return;
      }
      default: {  // if-else
        Cond(budget - 1);
        const std::size_t to_else = Branch(WOp::kBrIf);
        Statement(budget - 1);
        const std::size_t to_end = Branch(WOp::kBr);
        Land(to_else);
        Statement(budget - 1);
        Land(to_end);
        return;
      }
    }
  }

  Rng rng_;
  std::vector<WasmInsn> code_;
};

TEST(WasmDifferentialFuzz, RandomModulesOverEveryOp) {
  Rng cuts(1);
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    const FilterModule module = ModuleGen(seed).Build();
    ASSERT_TRUE(ValidateFilter(module).ok())
        << "seed " << seed << ": " << ValidateFilter(module).ToString();
    ExpectAgreeAtEveryLimit(module, cuts, 2, "seed " + std::to_string(seed));
  }
}

TEST(WasmDifferentialFuzz, GeneratedFilters) {
  Rng cuts(2);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (std::size_t size : {8, 300, 1000}) {
      ExpectAgreeAtEveryLimit(GenerateFilter(size, seed), cuts, 4,
                              "size " + std::to_string(size) + " seed " +
                                  std::to_string(seed));
    }
  }
}

TEST(WasmDifferentialFuzz, LongRunsOfFoldedInstructions) {
  // 600 const/drop pairs lower to no op of their own: more instructions
  // than one micro-op can retire pile up before the branch or return
  // that ends the run.
  Rng cuts(3);
  for (const WOp cond : {WOp::kGetLocal, WOp::kConst}) {
    for (const std::int64_t taken : {0, 1}) {
      FilterModule module;
      module.name = "folded";
      module.num_locals = 1;
      module.code = {{WOp::kConst, taken}, {WOp::kSetLocal, 0}};
      for (int i = 0; i < 600; ++i) {
        module.code.push_back({WOp::kConst, i});
        module.code.push_back({WOp::kDrop, 0});
      }
      const std::int64_t at = static_cast<std::int64_t>(module.code.size());
      module.code.push_back({cond, cond == WOp::kConst ? taken : 0});
      module.code.push_back({WOp::kBrIf, at + 4});
      module.code.push_back({WOp::kConst, 5});
      module.code.push_back({WOp::kReturn, 0});
      module.code.push_back({WOp::kGetLocal, 0});
      module.code.push_back({WOp::kReturn, 0});
      ExpectAgreeAtEveryLimit(module, cuts, 16,
                              std::string("folded, taken ") +
                                  (taken != 0 ? "yes" : "no"));
    }
  }
}

}  // namespace
}  // namespace rdx::wasm
