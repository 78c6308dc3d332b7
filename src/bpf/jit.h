// The JIT compiler and its output format, JitImage.
//
// Instead of emitting x86 bytes, the JIT lowers verified eBPF into
// *threaded code*: fully pre-decoded micro-ops with absolute branch
// targets and merged 64-bit immediates. This keeps the image portable
// across simulated "architectures" while preserving everything §3.2–3.3
// of the paper needs mechanically:
//   - a relocation table: micro-ops whose imm64 is a placeholder that the
//     RDX link stage patches with the target node's map addresses, and
//     helper-call sites checked against the node's exported symbol table;
//   - a serialized wire format (the binary that is RDMA-written);
//   - a content checksum used by the control plane's compile cache
//     ("validate and compile once, deploy anywhere").
//
// When an image becomes runnable (decoded, or linked in memory) every
// micro-op is checked once and gets one fused opcode for its (kind,
// ALU/JMP op, width, K/X form); map_lookup_elem and map_update_elem call
// sites get opcodes of their own. RunJit then pays one dispatch per op,
// replicated at the end of every handler, and checks per op only what
// depends on run-time values: the pc, the fuel and the memory bounds. The
// two map helpers serve array maps inline, re-reading the map header and
// bounds-checking key, value and slot on every call exactly as
// CallHelperFn does, and leave every other case to CallHelperFn.
//
// The same executor runs Wasm filters: wasm::WasmImage lowers its stack
// code to micro-ops over a register frame (FrameCode), and each micro-op
// carries the number of source instructions it retires, so fuel and
// virtual time count source instructions for both kinds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bpf/exec.h"
#include "bpf/program.h"

namespace rdx::bpf {

enum class OpKind : std::uint8_t {
  kAlu64K, kAlu64X, kAlu32K, kAlu32X,  // aux = ALU operation
  kJumpAbs,                            // target = absolute micro-pc
  kCondJmpK, kCondJmpX,                // aux = condition; target = abs pc
  kCall,                               // imm = helper id
  kExit,
  kLoad, kStoreImm, kStoreReg,         // aux = access bytes (1/2/4/8)
  kLoadImm64,                          // imm64 = constant or patched addr
  kCondJmp32K, kCondJmp32X,            // 32-bit compares; aux = condition
  kEndian,                             // aux = width; src = to_be flag
  // Kinds only FrameCode uses (never on the eBPF wire); all 64-bit.
  kSetCondK, kSetCondX,  // dst = (dst aux-cond imm/src) ? 1 : 0
  kHostCall,             // dst = host fn `target`(arg0, arg1); see below
  kReturn,               // verdict = src, or imm64 if aux != 0
};

// kHostCall operand forms (aux bits): arg0 is register `src` or, with
// kHostArg0Imm, imm64; arg1 is register number `imm` or, with
// kHostArg1Imm, the sign-extended imm itself.
constexpr std::uint8_t kHostArg0Imm = 1;
constexpr std::uint8_t kHostArg1Imm = 2;

struct MicroOp {
  OpKind kind = OpKind::kExit;
  std::uint8_t aux = 0;
  // Register indices: below kNumRegs in a JitImage, below the frame size
  // in FrameCode. The eBPF wire carries them as one byte each.
  std::uint16_t dst = 0;
  std::uint16_t src = 0;
  // Executor dispatch code, derived from the fields above when the code
  // is made runnable; not part of the wire format.
  std::uint8_t fused = 0;
  // Source instructions this op retires (fuel and virtual time): 1 for
  // every eBPF op, the lowered run for FrameCode; not on the wire.
  std::uint8_t retire = 1;
  std::int32_t imm = 0;
  std::uint32_t target = 0;
  std::uint64_t imm64 = 0;
};

enum class RelocKind : std::uint8_t {
  kMapAddress,  // imm64 of code[index] <- node-local address of map[symbol]
  kHelperCall,  // code[index] calls helper `symbol`; must exist on target
};

struct Relocation {
  RelocKind kind;
  std::uint32_t index;   // micro-op index
  std::int32_t symbol;   // map slot or helper id
};

// Placeholder the JIT writes into unlinked map-reference slots; deploying
// an image that still contains it is a linker bug the sandbox will catch.
constexpr std::uint64_t kUnlinkedPlaceholder = 0xdeadbeefdeadbeefULL;

struct JitImage {
  static constexpr std::uint32_t kMagic = 0x4a584452;  // "RDXJ"

  std::string program_name;
  ProgramType type = ProgramType::kSocketFilter;
  std::vector<MicroOp> code;
  std::vector<Relocation> relocs;
  std::vector<MapSpec> maps;

  // True once every kMapAddress relocation has been patched.
  bool IsLinked() const;

  // Makes the image runnable by RunJit: checks every micro-op as
  // Deserialize does (InvalidArgument), gives each its fused opcode, and
  // checks that the image is linked (FailedPrecondition). A deserialized
  // image that is linked is already runnable; code that links an image in
  // memory calls this after patching the map slots.
  Status MakeRunnable();
  bool runnable() const { return runnable_; }

  // Wire format (the bytes RDMA-deployed to a sandbox). Deserialize
  // rejects any image the executor would have to defend against at run
  // time: register indices >= kNumRegs, branch targets past the end,
  // unknown ALU/JMP ops, access sizes other than 1/2/4/8 and swap widths
  // other than 16/32/64.
  Bytes Serialize() const;
  static StatusOr<JitImage> Deserialize(ByteSpan bytes);

  // Content fingerprint over the *unlinked* semantic content (code with
  // map placeholders + maps), so one compile is reusable across nodes.
  std::uint64_t Fingerprint() const;

 private:
  Status FuseCode();

  bool runnable_ = false;
};

class JitCompiler {
 public:
  // Lowers a program. The program must already have passed verification;
  // the compiler still rejects structurally invalid input defensively.
  StatusOr<JitImage> Compile(const Program& prog) const;
};

// Executes a runnable image (see JitImage::MakeRunnable); any other image
// is refused with FailedPrecondition. `opts.stack_addr` and map
// registration in `rt` must match how the image was linked.
StatusOr<ExecResult> RunJit(const JitImage& image, RuntimeContext& rt,
                            const ExecOptions& opts);

// The functions FrameCode calls out to (kHostCall): a resolved host-table
// index and two argument words in, the result word out. An error aborts
// the run with that status.
class HostFunctions {
 public:
  virtual ~HostFunctions() = default;
  virtual StatusOr<std::uint64_t> CallHost(std::int32_t host_fn,
                                           std::uint64_t arg0,
                                           std::uint64_t arg1) = 0;
};

// Largest FrameCode register frame. RunJit keeps the frame on the host
// stack and zeroes only the registers the code uses.
constexpr std::uint32_t kMaxFrameRegs = 2048;

// Micro-ops lowered from another extension kind (a Wasm filter: see
// wasm::WasmImage). They run over a frame of num_regs() registers, all
// zero at entry, touch no memory and call out only through HostFunctions.
class FrameCode {
 public:
  // Checks every op as JitImage::MakeRunnable does, but against the frame:
  // register indices below `num_regs` (at most kMaxFrameRegs), and only
  // register, branch, host-call and return kinds (InvalidArgument).
  static StatusOr<FrameCode> Make(std::vector<MicroOp> code,
                                  std::uint32_t num_regs);

  const std::vector<MicroOp>& code() const { return code_; }
  std::uint32_t num_regs() const { return num_regs_; }

 private:
  std::vector<MicroOp> code_;
  std::uint32_t num_regs_ = 0;
};

// Executes code made by FrameCode::Make; an empty FrameCode is refused
// with FailedPrecondition. Fuel and the result count retired source
// instructions; running out is ResourceExhausted, as for RunJit above.
StatusOr<ExecResult> RunJit(const FrameCode& code, HostFunctions& host,
                            std::uint64_t insn_limit);

}  // namespace rdx::bpf
