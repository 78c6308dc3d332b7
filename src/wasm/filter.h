// Minimal Proxy-Wasm-style filter runtime: a validated stack machine
// whose programs ("filters") run per request inside a sidecar and talk to
// the host through named imports (get_header, set_header, ...). This is
// the paper's *second* extension type: its metadata shape (import table
// instead of map relocations, per-filter shared queue) exercises the
// parts of CodeFlow that eBPF alone would not.
//
// A filter has no executor of its own: when an image becomes runnable it
// is lowered to the eBPF JIT's micro-ops (bpf::FrameCode) and runs on
// bpf::RunJit. RunFilter, a plain stack interpreter, is kept only as the
// reference that tests and benches compare the lowered code against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bpf/jit.h"
#include "common/bytes.h"
#include "common/status.h"

namespace rdx::wasm {

enum class WOp : std::uint8_t {
  kConst,     // push imm64
  kGetLocal,  // push locals[imm]
  kSetLocal,  // locals[imm] = pop
  kAdd, kSub, kMul, kAnd, kOr, kXor,      // binary: push(a op b)
  kEq, kNe, kLtU, kGtU,                   // binary compare: push 0/1
  kDrop,
  kDup,
  kBr,        // unconditional forward branch to insn index imm
  kBrIf,      // pop; branch to imm if nonzero
  kCallHost,  // pop 2 args, call imports[imm], push result
  kReturn,    // pop -> filter verdict
};

struct WasmInsn {
  WOp op = WOp::kReturn;
  std::int64_t imm = 0;
};

// Host functions a filter may import. The sidecar provides the table; the
// RDX link stage checks each import against the target's exported symbol
// table (the Wasm analogue of eBPF helper relocation).
struct ImportDecl {
  std::string name;
};

struct FilterModule {
  std::string name;
  std::uint32_t num_locals = 4;
  std::vector<WasmInsn> code;
  std::vector<ImportDecl> imports;

  std::size_t size() const { return code.size(); }
};

struct WasmValidatorStats {
  std::uint64_t insns_checked = 0;
};

// Validates types/stack discipline: depth never negative, binary ops have
// two operands, branches are forward, land inside the code and see one
// stack depth at each target, locals in range, imports in range, all
// paths return.
Status ValidateFilter(const FilterModule& module,
                      WasmValidatorStats* stats = nullptr);

// ---- Compiled image (the deployable binary) ----
// Compilation pre-resolves branch targets and produces an import
// relocation table mapping call sites to import names.
struct WasmReloc {
  std::uint32_t insn_index;
  std::string import_name;
  std::int32_t resolved_host_fn = -1;  // patched at link time
};

struct WasmImage {
  static constexpr std::uint32_t kMagic = 0x46574452;  // "RDWF"

  std::string filter_name;
  std::uint32_t num_locals = 0;
  std::vector<WasmInsn> code;
  std::vector<WasmReloc> relocs;

  bool IsLinked() const;

  // Makes the image runnable by RunLowered: re-checks the code as
  // Deserialize does (InvalidArgument), lowers it, and checks that every
  // host call is linked (FailedPrecondition). A deserialized image that is
  // linked is already runnable; code that links an image in memory calls
  // this after patching the relocations.
  Status MakeRunnable();
  bool runnable() const { return runnable_; }
  const bpf::FrameCode& lowered() const { return lowered_; }

  // Wire format. Deserialize rejects (InvalidArgument) any image whose
  // code breaks a ValidateFilter rule, and any image whose relocations are
  // not one-to-one with its host calls: each reloc must sit on a
  // kCallHost, and each kCallHost must carry exactly one reloc.
  Bytes Serialize() const;
  static StatusOr<WasmImage> Deserialize(ByteSpan bytes);
  std::uint64_t Fingerprint() const;

 private:
  Status Lower();

  bpf::FrameCode lowered_;
  bool runnable_ = false;
};

// Compiles a validated module.
StatusOr<WasmImage> CompileFilter(const FilterModule& module);

// ---- Execution ----
// Host-call dispatcher: receives the resolved host-function index and two
// argument words, returns the result word.
using WasmHost = bpf::HostFunctions;

struct WasmResult {
  std::uint64_t verdict = 0;
  std::uint64_t insns_executed = 0;
};

// Runs a runnable image's lowered code (see WasmImage::MakeRunnable); any
// other image is refused with FailedPrecondition. `insns_executed` and
// running out of `step_limit` count Wasm instructions.
StatusOr<WasmResult> RunLowered(const WasmImage& image, WasmHost& host,
                                std::uint64_t step_limit = 1u << 20);

// Reference interpreter over a runnable image's stack code: the oracle
// RunLowered is tested against. Same results, host calls and errors.
StatusOr<WasmResult> RunFilter(const WasmImage& image, WasmHost& host,
                               std::uint64_t step_limit = 1u << 20);

// Deterministic synthetic filter generator (sized workloads for the mesh
// experiments, mirroring bpf::GenerateProgram).
FilterModule GenerateFilter(std::size_t target_insns, std::uint64_t seed);

}  // namespace rdx::wasm
