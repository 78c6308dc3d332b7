#include "wasm/filter.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>

#include "bpf/eval_inl.h"
#include "common/rng.h"

namespace rdx::wasm {

namespace {

constexpr std::uint32_t kMaxLocals = 64;
constexpr int kMaxDepth = 1024;
static_assert(kMaxLocals + kMaxDepth <= bpf::kMaxFrameRegs);

Status Err(std::size_t pc, const char* rule) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "wasm insn %zu: %s", pc, rule);
  return InvalidArgument(buf);
}

bool IsBinary(WOp op) {
  switch (op) {
    case WOp::kAdd: case WOp::kSub: case WOp::kMul: case WOp::kAnd:
    case WOp::kOr: case WOp::kXor: case WOp::kEq: case WOp::kNe:
    case WOp::kLtU: case WOp::kGtU:
      return true;
    default:
      return false;
  }
}

bool IsCompare(WOp op) {
  return op == WOp::kEq || op == WOp::kNe || op == WOp::kLtU ||
         op == WOp::kGtU;
}

// The eBPF ALU operation or branch condition with a binary op's meaning.
std::uint8_t BpfOp(WOp op) {
  switch (op) {
    case WOp::kAdd: return bpf::kAluAdd;
    case WOp::kSub: return bpf::kAluSub;
    case WOp::kMul: return bpf::kAluMul;
    case WOp::kAnd: return bpf::kAluAnd;
    case WOp::kOr: return bpf::kAluOr;
    case WOp::kXor: return bpf::kAluXor;
    case WOp::kEq: return bpf::kJmpJeq;
    case WOp::kNe: return bpf::kJmpJne;
    case WOp::kLtU: return bpf::kJmpJlt;
    default: return bpf::kJmpJgt;  // kGtU
  }
}

// The condition that holds for (b, a) exactly when `cond` holds for (a, b).
std::uint8_t Mirror(std::uint8_t cond) {
  if (cond == bpf::kJmpJlt) return bpf::kJmpJgt;
  if (cond == bpf::kJmpJgt) return bpf::kJmpJlt;
  return cond;  // eq, ne
}

bool FitsImm32(std::int64_t k) {
  return k >= std::numeric_limits<std::int32_t>::min() &&
         k <= std::numeric_limits<std::int32_t>::max();
}

// Lowers validated stack code to micro-ops for bpf::RunJit, with the
// baseline-compiler stack-slot technique. ValidateFilter proves every
// branch forward and one stack depth at each merge point, so stack
// position i can always live in the same register: the frame holds the
// locals in registers [0, num_locals) and position i in num_locals + i.
// The lowerer tracks where each position's value is now (a register: its
// own slot, a local, or a lower slot it was dup'ed from; or a constant)
// and writes a slot only when a consumer needs it there, so a const or
// get_local folds into the op that consumes it. A binary op is held back
// one instruction so that a following set_local or br_if can take its
// result directly: `local = local op x` is one ALU op, `a cmp b; br_if`
// one conditional jump. Merge points get every position in its own slot.
//
// Moves that only place an operand retire nothing; every other micro-op
// retires each source instruction lowered since the last one that did.
// So a host call or return is the last instruction its op retires and
// every path retires exactly its source instructions: insns_executed, the
// fuel cut-off and the host calls made before it all match RunFilter.
class Lowerer {
 public:
  Lowerer(std::uint32_t num_locals, std::size_t code_size)
      : num_locals_(num_locals), label_(code_size, 0) {
    // Folding leaves well under one op per instruction in typical code.
    code_.reserve(code_size / 2 + 1);
  }

  // Called before lowering the instruction at `pc`, a branch target;
  // `fallthrough` says whether the previous instruction falls into it.
  void Merge(std::size_t pc, bool fallthrough, int depth) {
    if (fallthrough) {
      Flush();
      Canonicalize(stack_.size());
      while (pending_ > 0) AppendNop();
    } else {
      stack_.clear();
      for (int i = 0; i < depth; ++i) Push(Reg(Slot(i)));
    }
    label_[pc] = static_cast<std::uint32_t>(code_.size());
  }

  // Lowers one validated instruction; `host_fn` is a call's host function.
  void Lower(const WasmInsn& insn, std::int32_t host_fn) {
    if (!TakesHeld(insn)) Flush();
    ++pending_;
    switch (insn.op) {
      case WOp::kSetLocal:
        SetLocal(static_cast<std::uint16_t>(insn.imm));
        break;
      case WOp::kBrIf:
        BrIf(static_cast<std::uint32_t>(insn.imm));
        break;
      case WOp::kConst:
        Push(Const(insn.imm));
        break;
      case WOp::kGetLocal:
        Push(Reg(static_cast<std::uint16_t>(insn.imm)));
        break;
      case WOp::kDrop:
        stack_.pop_back();
        break;
      case WOp::kDup:
        Push(stack_.back());
        break;
      case WOp::kBr:
        Canonicalize(stack_.size());
        EmitBranch(Op(bpf::OpKind::kJumpAbs),
                   static_cast<std::uint32_t>(insn.imm));
        break;
      case WOp::kCallHost:
        CallHost(host_fn);
        break;
      case WOp::kReturn: {
        bpf::MicroOp op = Op(bpf::OpKind::kReturn);
        const Value v = stack_.back();
        if (v.is_const) {
          op.aux = 1;
          op.imm64 = static_cast<std::uint64_t>(v.k);
        } else {
          op.src = v.reg;
        }
        Emit(op);
        break;
      }
      default: {  // binary
        const Value b = Pop();
        const Value a = Pop();
        const std::size_t pos = stack_.size();
        held_ = Held{insn.op, a, b, pos};
        Push(Reg(Slot(pos)));
        break;
      }
    }
  }

  StatusOr<bpf::FrameCode> Finish() {
    for (const auto& [micro, source] : fixups_) {
      code_[micro].target = label_[source];
    }
    return bpf::FrameCode::Make(
        std::move(code_), num_locals_ + static_cast<std::uint32_t>(max_depth_));
  }

 private:
  struct Value {
    bool is_const = false;
    std::uint16_t reg = 0;  // unless is_const
    std::int64_t k = 0;     // if is_const
  };
  // A binary op not emitted yet; its result is stack position `pos`.
  struct Held {
    WOp op;
    Value a, b;
    std::size_t pos;
  };
  static constexpr std::uint32_t kMaxRetire =
      std::numeric_limits<decltype(bpf::MicroOp::retire)>::max();

  static Value Reg(std::uint16_t reg) { return {false, reg, 0}; }
  static Value Const(std::int64_t k) { return {true, 0, k}; }
  static bpf::MicroOp Op(bpf::OpKind kind, std::uint8_t aux = 0,
                         std::uint16_t dst = 0) {
    bpf::MicroOp op;
    op.kind = kind;
    op.aux = aux;
    op.dst = dst;
    return op;
  }
  std::uint16_t Slot(std::size_t pos) const {
    return static_cast<std::uint16_t>(num_locals_ + pos);
  }

  void Push(Value v) {
    stack_.push_back(v);
    max_depth_ = std::max(max_depth_, stack_.size());
  }
  Value Pop() {
    const Value v = stack_.back();
    stack_.pop_back();
    return v;
  }

  // Appends `op`, retiring every instruction lowered since the last op.
  void Emit(bpf::MicroOp op) {
    while (pending_ > kMaxRetire) AppendNop();
    op.retire = static_cast<std::uint8_t>(pending_);
    pending_ = 0;
    code_.push_back(op);
  }
  // A jump to the next op that retires up to kMaxRetire pending insns.
  void AppendNop() {
    bpf::MicroOp op = Op(bpf::OpKind::kJumpAbs);
    op.target = static_cast<std::uint32_t>(code_.size() + 1);
    op.retire = static_cast<std::uint8_t>(std::min(pending_, kMaxRetire));
    pending_ -= op.retire;
    code_.push_back(op);
  }
  // Emits a branch to the op lowered from source instruction `target`.
  void EmitBranch(bpf::MicroOp op, std::uint32_t target) {
    Emit(op);
    fixups_.emplace_back(static_cast<std::uint32_t>(code_.size() - 1),
                         target);
  }

  // Moves `v` into `reg`; the move retires instructions only if it is a
  // set_local's own op (`retires`), not when it places an operand.
  void MoveTo(std::uint16_t reg, const Value& v, bool retires = false) {
    bpf::MicroOp op;
    if (v.is_const) {
      op = Op(bpf::OpKind::kLoadImm64, 0, reg);
      op.imm64 = static_cast<std::uint64_t>(v.k);
    } else if (v.reg != reg) {
      op = Op(bpf::OpKind::kAlu64X, bpf::kAluMov, reg);
      op.src = v.reg;
    } else {
      return;
    }
    if (retires) {
      Emit(op);
    } else {
      op.retire = 0;
      code_.push_back(op);
    }
  }
  // Moves position `pos` into its own slot. Nothing else reads a slot
  // whose position is not in it yet, so this clobbers no live value.
  void Materialize(std::size_t pos) {
    MoveTo(Slot(pos), stack_[pos]);
    stack_[pos] = Reg(Slot(pos));
  }
  void Canonicalize(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) Materialize(i);
  }
  // Before local `reg` is written: positions that still read it move to
  // their own slots.
  void SpillReadsOf(std::uint16_t reg) {
    for (std::size_t i = 0; i < stack_.size(); ++i) {
      if (!stack_[i].is_const && stack_[i].reg == reg) Materialize(i);
    }
  }

  // Sets `op`'s right operand to `b`: the sign-extended imm, or a register
  // (a constant too wide for imm goes to `spare`, the slot of its own
  // stack position, first). Returns true for the register form.
  bool Right(const Value& b, std::uint16_t spare, bpf::MicroOp& op) {
    if (b.is_const && FitsImm32(b.k)) {
      op.imm = static_cast<std::int32_t>(b.k);
      return false;
    }
    if (b.is_const) MoveTo(spare, b);
    op.src = b.is_const ? spare : b.reg;
    return true;
  }

  // dst = a op b, two-address: `dst` takes a first. b never reads `dst`
  // unless a is already there.
  void EmitBinary(const Held& h, std::uint16_t dst) {
    MoveTo(dst, h.a);
    bpf::MicroOp op = Op(bpf::OpKind::kAlu64K, BpfOp(h.op), dst);
    const bool reg = Right(h.b, Slot(h.pos + 1), op);
    if (IsCompare(h.op)) {
      op.kind = reg ? bpf::OpKind::kSetCondX : bpf::OpKind::kSetCondK;
    } else {
      op.kind = reg ? bpf::OpKind::kAlu64X : bpf::OpKind::kAlu64K;
    }
    Emit(op);
  }
  // Whether `insn` consumes the held op's result itself: a set_local of
  // the op's left operand, or a br_if on a compare.
  bool TakesHeld(const WasmInsn& insn) const {
    if (!held_) return false;
    if (insn.op == WOp::kSetLocal) {
      return !held_->a.is_const && held_->a.reg == insn.imm;
    }
    return insn.op == WOp::kBrIf && IsCompare(held_->op);
  }
  Held TakeHeld() {
    const Held h = *held_;
    held_.reset();
    return h;
  }
  void Flush() {
    if (!held_) return;
    const Held h = TakeHeld();
    EmitBinary(h, Slot(h.pos));
  }

  void SetLocal(std::uint16_t local) {
    if (held_) {  // local = local op b
      const Held h = TakeHeld();
      stack_.pop_back();
      SpillReadsOf(local);
      EmitBinary(h, local);
      return;
    }
    const Value v = Pop();
    SpillReadsOf(local);
    MoveTo(local, v, /*retires=*/true);
  }

  void BrIf(std::uint32_t target) {
    if (held_) {  // br_if (a cmp b)
      const Held h = TakeHeld();
      stack_.pop_back();
      Canonicalize(stack_.size());
      Branch(BpfOp(h.op), h.a, h.b, Slot(h.pos), Slot(h.pos + 1), target);
      return;
    }
    const Value cond = Pop();
    Canonicalize(stack_.size());
    Branch(bpf::kJmpJne, cond, Const(0), 0, 0, target);
  }

  // Jumps to `target` if (a cond b). a and b came from stack positions
  // whose slots are `a_slot` and `b_slot`.
  void Branch(std::uint8_t cond, Value a, Value b, std::uint16_t a_slot,
              std::uint16_t b_slot, std::uint32_t target) {
    if (a.is_const && b.is_const) {
      bool ok = false;
      if (bpf::internal::JmpEval(cond, static_cast<std::uint64_t>(a.k),
                                 static_cast<std::uint64_t>(b.k), ok)) {
        EmitBranch(Op(bpf::OpKind::kJumpAbs), target);
      }
      return;
    }
    if (a.is_const) {
      std::swap(a, b);
      std::swap(a_slot, b_slot);
      cond = Mirror(cond);
    }
    bpf::MicroOp op = Op(bpf::OpKind::kCondJmpK, cond, a.reg);
    if (Right(b, b_slot, op)) op.kind = bpf::OpKind::kCondJmpX;
    EmitBranch(op, target);
  }

  void CallHost(std::int32_t host_fn) {
    const Value arg1 = Pop();
    const Value arg0 = Pop();
    const std::size_t pos = stack_.size();
    bpf::MicroOp op = Op(bpf::OpKind::kHostCall, 0, Slot(pos));
    op.target = static_cast<std::uint32_t>(host_fn);
    if (arg0.is_const) {
      op.aux |= bpf::kHostArg0Imm;
      op.imm64 = static_cast<std::uint64_t>(arg0.k);
    } else {
      op.src = arg0.reg;
    }
    if (arg1.is_const && FitsImm32(arg1.k)) {
      op.aux |= bpf::kHostArg1Imm;
      op.imm = static_cast<std::int32_t>(arg1.k);
    } else if (arg1.is_const) {
      MoveTo(Slot(pos + 1), arg1);
      op.imm = Slot(pos + 1);
    } else {
      op.imm = arg1.reg;
    }
    Emit(op);
    Push(Reg(Slot(pos)));
  }

  std::uint32_t num_locals_;
  std::vector<Value> stack_;
  std::size_t max_depth_ = 0;
  std::optional<Held> held_;
  std::uint32_t pending_ = 0;  // source insns no emitted op retires yet
  std::vector<bpf::MicroOp> code_;
  std::vector<std::uint32_t> label_;  // micro-pc of each branch target
  std::vector<std::pair<std::uint32_t, std::uint32_t>> fixups_;
};

// One left-to-right pass that applies the ValidateFilter rules to `code`
// and, given a `lowerer`, lowers each instruction once it has passed.
// Host calls are checked against `num_imports` (a module: imm is an
// import index) or, given `call_fn`, against the image's relocations:
// call_fn[pc] is the host function of the call at pc, if it has one.
Status CheckCode(const std::vector<WasmInsn>& code, std::uint32_t num_locals,
                 std::size_t num_imports,
                 const std::vector<std::optional<std::int32_t>>* call_fn,
                 Lowerer* lowerer, std::uint64_t* checked) {
  if (code.empty()) return InvalidArgument("empty filter");
  if (num_locals > kMaxLocals) return InvalidArgument("too many locals");

  // Stack depth abstract interpretation. Because branches are forward-
  // only, a single left-to-right pass with expected-depth annotations at
  // branch targets suffices.
  const std::size_t n = code.size();
  std::vector<std::optional<int>> depth_at(n);
  std::uint64_t count = 0;
  bool reachable = true;
  int depth = 0;

  for (std::size_t pc = 0; pc < n; ++pc) {
    ++count;
    if (depth_at[pc].has_value()) {
      if (reachable && *depth_at[pc] != depth) {
        return Err(pc, "inconsistent stack depth at merge point");
      }
      if (lowerer != nullptr) lowerer->Merge(pc, reachable, *depth_at[pc]);
      depth = *depth_at[pc];
      reachable = true;
    } else if (!reachable) {
      return Err(pc, "unreachable code");
    }

    const WasmInsn& insn = code[pc];
    std::int32_t host_fn = 0;
    auto need = [&](int k) { return depth >= k; };
    auto branch_to = [&](std::int64_t target, int at_depth) -> Status {
      if (target <= static_cast<std::int64_t>(pc) ||
          target >= static_cast<std::int64_t>(n)) {
        return Err(pc, "branch target must be forward and inside the code");
      }
      if (depth_at[target].has_value() && *depth_at[target] != at_depth) {
        return Err(pc, "branch with mismatched stack depth");
      }
      depth_at[target] = at_depth;
      return OkStatus();
    };

    switch (insn.op) {
      case WOp::kConst:
        ++depth;
        break;
      case WOp::kGetLocal:
        if (insn.imm < 0 || insn.imm >= num_locals) {
          return Err(pc, "local index out of range");
        }
        ++depth;
        break;
      case WOp::kSetLocal:
        if (insn.imm < 0 || insn.imm >= num_locals) {
          return Err(pc, "local index out of range");
        }
        if (!need(1)) return Err(pc, "stack underflow");
        --depth;
        break;
      case WOp::kDrop:
        if (!need(1)) return Err(pc, "stack underflow");
        --depth;
        break;
      case WOp::kDup:
        if (!need(1)) return Err(pc, "stack underflow");
        ++depth;
        break;
      case WOp::kBr:
        RDX_RETURN_IF_ERROR(branch_to(insn.imm, depth));
        reachable = false;
        break;
      case WOp::kBrIf:
        if (!need(1)) return Err(pc, "stack underflow");
        --depth;
        RDX_RETURN_IF_ERROR(branch_to(insn.imm, depth));
        break;
      case WOp::kCallHost:
        if (call_fn == nullptr) {
          if (insn.imm < 0 ||
              insn.imm >= static_cast<std::int64_t>(num_imports)) {
            return Err(pc, "import index out of range");
          }
        } else if (!(*call_fn)[pc].has_value()) {
          return Err(pc, "host call without a relocation");
        } else {
          host_fn = *(*call_fn)[pc];
        }
        if (!need(2)) return Err(pc, "stack underflow at host call");
        --depth;  // pop 2, push 1
        break;
      case WOp::kReturn:
        if (!need(1)) return Err(pc, "return without a verdict");
        reachable = false;
        break;
      default:
        if (IsBinary(insn.op)) {
          if (!need(2)) return Err(pc, "stack underflow");
          --depth;
          break;
        }
        return Err(pc, "unknown opcode");
    }
    if (depth > kMaxDepth) return Err(pc, "stack depth limit exceeded");
    if (lowerer != nullptr) lowerer->Lower(insn, host_fn);
  }
  if (reachable) {
    return InvalidArgument("control flow falls off the filter end");
  }
  if (checked != nullptr) *checked = count;
  return OkStatus();
}

}  // namespace

Status ValidateFilter(const FilterModule& module, WasmValidatorStats* stats) {
  return CheckCode(module.code, module.num_locals, module.imports.size(),
                   nullptr, nullptr,
                   stats != nullptr ? &stats->insns_checked : nullptr);
}

// ---- Image ----

bool WasmImage::IsLinked() const {
  for (const WasmReloc& reloc : relocs) {
    if (reloc.resolved_host_fn < 0) return false;
  }
  return true;
}

Bytes WasmImage::Serialize() const {
  Bytes out;
  AppendLE<std::uint32_t>(out, kMagic);
  AppendLE<std::uint32_t>(out, 1);            // version
  AppendLE<std::uint32_t>(out,
                          static_cast<std::uint32_t>(filter_name.size()));
  out.insert(out.end(), filter_name.begin(), filter_name.end());
  AppendLE<std::uint32_t>(out, num_locals);
  AppendLE<std::uint32_t>(out, static_cast<std::uint32_t>(code.size()));
  for (const WasmInsn& insn : code) {
    out.push_back(static_cast<std::uint8_t>(insn.op));
    AppendLE<std::int64_t>(out, insn.imm);
  }
  AppendLE<std::uint32_t>(out, static_cast<std::uint32_t>(relocs.size()));
  for (const WasmReloc& reloc : relocs) {
    AppendLE<std::uint32_t>(out, reloc.insn_index);
    AppendLE<std::int32_t>(out, reloc.resolved_host_fn);
    AppendLE<std::uint32_t>(out,
                            static_cast<std::uint32_t>(
                                reloc.import_name.size()));
    out.insert(out.end(), reloc.import_name.begin(), reloc.import_name.end());
  }
  AppendLE<std::uint64_t>(out, Fnv1a64(out));
  return out;
}

StatusOr<WasmImage> WasmImage::Deserialize(ByteSpan bytes) {
  if (bytes.size() < 24) return InvalidArgument("wasm image too small");
  const std::uint64_t sum =
      LoadLE<std::uint64_t>(bytes.data() + bytes.size() - 8);
  if (Fnv1a64(bytes.subspan(0, bytes.size() - 8)) != sum) {
    return FailedPrecondition("wasm image checksum mismatch");
  }
  std::size_t off = 0;
  if (LoadLE<std::uint32_t>(bytes.data()) != kMagic) {
    return InvalidArgument("bad wasm image magic");
  }
  off += 8;  // magic + version
  WasmImage image;
  const std::uint32_t name_len = LoadLE<std::uint32_t>(bytes.data() + off);
  off += 4;
  if (off + name_len > bytes.size()) return InvalidArgument("truncated name");
  image.filter_name.assign(
      reinterpret_cast<const char*>(bytes.data() + off), name_len);
  off += name_len;
  image.num_locals = LoadLE<std::uint32_t>(bytes.data() + off);
  off += 4;
  const std::uint32_t ncode = LoadLE<std::uint32_t>(bytes.data() + off);
  off += 4;
  if (off + static_cast<std::size_t>(ncode) * 9 > bytes.size()) {
    return InvalidArgument("truncated wasm code");
  }
  image.code.reserve(ncode);
  for (std::uint32_t i = 0; i < ncode; ++i) {
    WasmInsn insn;
    insn.op = static_cast<WOp>(bytes[off]);
    insn.imm = LoadLE<std::int64_t>(bytes.data() + off + 1);
    image.code.push_back(insn);
    off += 9;
  }
  if (off + 4 > bytes.size()) return InvalidArgument("truncated relocs");
  const std::uint32_t nrelocs = LoadLE<std::uint32_t>(bytes.data() + off);
  off += 4;
  for (std::uint32_t i = 0; i < nrelocs; ++i) {
    if (off + 12 > bytes.size()) return InvalidArgument("truncated reloc");
    WasmReloc reloc;
    reloc.insn_index = LoadLE<std::uint32_t>(bytes.data() + off);
    reloc.resolved_host_fn = LoadLE<std::int32_t>(bytes.data() + off + 4);
    const std::uint32_t len = LoadLE<std::uint32_t>(bytes.data() + off + 8);
    off += 12;
    if (off + len > bytes.size()) return InvalidArgument("truncated reloc");
    reloc.import_name.assign(
        reinterpret_cast<const char*>(bytes.data() + off), len);
    off += len;
    image.relocs.push_back(std::move(reloc));
  }
  RDX_RETURN_IF_ERROR(image.Lower());
  image.runnable_ = image.IsLinked();
  return image;
}

Status WasmImage::Lower() {
  runnable_ = false;
  lowered_ = {};
  std::vector<std::optional<std::int32_t>> call_fn(code.size());
  for (const WasmReloc& reloc : relocs) {
    if (reloc.insn_index >= code.size() ||
        code[reloc.insn_index].op != WOp::kCallHost) {
      return InvalidArgument("wasm reloc not on a host call");
    }
    if (call_fn[reloc.insn_index].has_value()) {
      return InvalidArgument("two wasm relocs on one host call");
    }
    call_fn[reloc.insn_index] = reloc.resolved_host_fn;
  }
  Lowerer lowerer(num_locals, code.size());
  RDX_RETURN_IF_ERROR(
      CheckCode(code, num_locals, 0, &call_fn, &lowerer, nullptr));
  RDX_ASSIGN_OR_RETURN(lowered_, lowerer.Finish());
  return OkStatus();
}

Status WasmImage::MakeRunnable() {
  RDX_RETURN_IF_ERROR(Lower());
  if (!IsLinked()) return FailedPrecondition("wasm image has unlinked calls");
  runnable_ = true;
  return OkStatus();
}

std::uint64_t WasmImage::Fingerprint() const {
  WasmImage normalized = *this;
  for (WasmReloc& reloc : normalized.relocs) reloc.resolved_host_fn = -1;
  for (const WasmReloc& reloc : normalized.relocs) {
    normalized.code[reloc.insn_index].imm = -1;
  }
  return Fnv1a64(normalized.Serialize());
}

StatusOr<WasmImage> CompileFilter(const FilterModule& module) {
  RDX_RETURN_IF_ERROR(ValidateFilter(module));
  WasmImage image;
  image.filter_name = module.name;
  image.num_locals = module.num_locals;
  image.code = module.code;
  for (std::size_t pc = 0; pc < image.code.size(); ++pc) {
    if (image.code[pc].op == WOp::kCallHost) {
      WasmReloc reloc;
      reloc.insn_index = static_cast<std::uint32_t>(pc);
      reloc.import_name = module.imports[image.code[pc].imm].name;
      image.relocs.push_back(std::move(reloc));
      image.code[pc].imm = -1;  // patched at link time
    }
  }
  return image;
}

StatusOr<WasmResult> RunLowered(const WasmImage& image, WasmHost& host,
                                std::uint64_t step_limit) {
  if (!image.runnable()) {
    return FailedPrecondition("executing unlinked wasm image");
  }
  RDX_ASSIGN_OR_RETURN(const bpf::ExecResult result,
                       bpf::RunJit(image.lowered(), host, step_limit));
  return WasmResult{result.r0, result.insns_executed};
}

StatusOr<WasmResult> RunFilter(const WasmImage& image, WasmHost& host,
                               std::uint64_t step_limit) {
  // Runnable images are checked, so the indexing below stays in bounds.
  if (!image.runnable()) {
    return FailedPrecondition("executing unlinked wasm image");
  }
  // Link: call sites carry the resolved host-fn index in imm.
  std::vector<std::int64_t> call_target(image.code.size(), -1);
  for (const WasmReloc& reloc : image.relocs) {
    call_target[reloc.insn_index] = reloc.resolved_host_fn;
  }

  std::vector<std::uint64_t> stack;
  stack.reserve(64);
  std::vector<std::uint64_t> locals(image.num_locals, 0);
  WasmResult result;
  std::size_t pc = 0;
  while (true) {
    if (pc >= image.code.size()) {
      return Aborted("wasm pc ran off the end");
    }
    if (++result.insns_executed > step_limit) {
      return ResourceExhausted("instruction limit exceeded");
    }
    const WasmInsn& insn = image.code[pc];
    switch (insn.op) {
      case WOp::kConst:
        stack.push_back(static_cast<std::uint64_t>(insn.imm));
        ++pc;
        break;
      case WOp::kGetLocal:
        stack.push_back(locals[insn.imm]);
        ++pc;
        break;
      case WOp::kSetLocal:
        locals[insn.imm] = stack.back();
        stack.pop_back();
        ++pc;
        break;
      case WOp::kDrop:
        stack.pop_back();
        ++pc;
        break;
      case WOp::kDup:
        stack.push_back(stack.back());
        ++pc;
        break;
      case WOp::kBr:
        pc = static_cast<std::size_t>(insn.imm);
        break;
      case WOp::kBrIf: {
        const std::uint64_t cond = stack.back();
        stack.pop_back();
        pc = cond != 0 ? static_cast<std::size_t>(insn.imm) : pc + 1;
        break;
      }
      case WOp::kCallHost: {
        const std::uint64_t arg1 = stack.back();
        stack.pop_back();
        const std::uint64_t arg0 = stack.back();
        stack.pop_back();
        RDX_ASSIGN_OR_RETURN(
            const std::uint64_t ret,
            host.CallHost(static_cast<std::int32_t>(call_target[pc]), arg0,
                          arg1));
        stack.push_back(ret);
        ++pc;
        break;
      }
      case WOp::kReturn:
        result.verdict = stack.back();
        return result;
      default: {
        const std::uint64_t b = stack.back();
        stack.pop_back();
        const std::uint64_t a = stack.back();
        stack.pop_back();
        std::uint64_t r = 0;
        switch (insn.op) {
          case WOp::kAdd: r = a + b; break;
          case WOp::kSub: r = a - b; break;
          case WOp::kMul: r = a * b; break;
          case WOp::kAnd: r = a & b; break;
          case WOp::kOr: r = a | b; break;
          case WOp::kXor: r = a ^ b; break;
          case WOp::kEq: r = a == b; break;
          case WOp::kNe: r = a != b; break;
          case WOp::kLtU: r = a < b; break;
          case WOp::kGtU: r = a > b; break;
          default:
            return Internal("unknown wasm opcode at runtime");
        }
        stack.push_back(r);
        ++pc;
        break;
      }
    }
  }
}

FilterModule GenerateFilter(std::size_t target_insns, std::uint64_t seed) {
  Rng rng(seed);
  FilterModule module;
  module.name = "filter_" + std::to_string(target_insns) + "_s" +
                std::to_string(seed);
  module.num_locals = 8;
  module.imports = {{"get_header"}, {"set_header"}, {"counter_incr"},
                    {"log_event"}};

  auto& code = module.code;
  const std::size_t target = std::max<std::size_t>(target_insns, 8);
  // local0 accumulates a "verdict" scalar.
  code.push_back({WOp::kConst, 1});
  code.push_back({WOp::kSetLocal, 0});
  while (code.size() + 8 < target) {
    const double roll = rng.NextDouble();
    if (roll < 0.08) {
      // get_header(key, 0) folded into local0: 6 insns.
      code.push_back({WOp::kGetLocal, 0});
      code.push_back({WOp::kConst,
                      static_cast<std::int64_t>(rng.NextBounded(16))});
      code.push_back({WOp::kConst, 0});
      code.push_back({WOp::kCallHost, 0});
      code.push_back({WOp::kXor, 0});
      code.push_back({WOp::kSetLocal, 0});
    } else if (roll < 0.16) {
      // forward branch over 2 filler ops: 5 insns.
      const std::int64_t target_pc =
          static_cast<std::int64_t>(code.size()) + 4;
      code.push_back({WOp::kGetLocal, 0});
      code.push_back({WOp::kBrIf, target_pc});
      code.push_back({WOp::kConst, 3});
      code.push_back({WOp::kDrop, 0});
    } else {
      // ALU over local0: 4 insns.
      static constexpr WOp kOps[] = {WOp::kAdd, WOp::kSub, WOp::kMul,
                                     WOp::kXor, WOp::kOr, WOp::kAnd};
      code.push_back({WOp::kGetLocal, 0});
      code.push_back({WOp::kConst,
                      static_cast<std::int64_t>(rng.NextBounded(1000) + 1)});
      code.push_back({kOps[rng.NextBounded(std::size(kOps))], 0});
      code.push_back({WOp::kSetLocal, 0});
    }
  }
  while (code.size() + 3 < target) {
    code.push_back({WOp::kGetLocal, 0});
    code.push_back({WOp::kSetLocal, 0});
  }
  // Verdict: local0 & 1.
  code.push_back({WOp::kGetLocal, 0});
  code.push_back({WOp::kConst, 1});
  code.push_back({WOp::kAnd, 0});
  code.push_back({WOp::kReturn, 0});
  return module;
}

}  // namespace rdx::wasm
