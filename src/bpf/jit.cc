#include "bpf/jit.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <iterator>

#include "bpf/eval_inl.h"

namespace rdx::bpf {

bool JitImage::IsLinked() const {
  for (const Relocation& reloc : relocs) {
    if (reloc.kind == RelocKind::kMapAddress &&
        code[reloc.index].imm64 == kUnlinkedPlaceholder) {
      return false;
    }
  }
  return true;
}

namespace {
constexpr std::uint32_t kImageVersion = 5;

bool KindHasTarget(OpKind kind) {
  return kind == OpKind::kJumpAbs || kind == OpKind::kCondJmpK ||
         kind == OpKind::kCondJmpX || kind == OpKind::kCondJmp32K ||
         kind == OpKind::kCondJmp32X || kind == OpKind::kStoreImm;
}
bool KindHasImm64(OpKind kind) { return kind == OpKind::kLoadImm64; }

void AppendString(Bytes& out, const std::string& s) {
  AppendLE<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

StatusOr<std::string> ReadString(ByteSpan bytes, std::size_t& off) {
  if (off + 4 > bytes.size()) return InvalidArgument("truncated string");
  const std::uint32_t len = LoadLE<std::uint32_t>(bytes.data() + off);
  off += 4;
  if (off + len > bytes.size()) return InvalidArgument("truncated string");
  std::string s(reinterpret_cast<const char*>(bytes.data() + off), len);
  off += len;
  return s;
}
}  // namespace

Bytes JitImage::Serialize() const {
  Bytes out;
  AppendLE<std::uint32_t>(out, kMagic);
  AppendLE<std::uint32_t>(out, kImageVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(0);
  out.push_back(0);
  out.push_back(0);
  AppendString(out, program_name);

  // Variable-length encoding keeps the deployed binary near the ~8
  // bytes/insn of a native eBPF JIT: a 4-byte header + 4-byte imm, with
  // the branch target / 64-bit immediate only where the kind needs them.
  AppendLE<std::uint32_t>(out, static_cast<std::uint32_t>(code.size()));
  for (const MicroOp& op : code) {
    out.push_back(static_cast<std::uint8_t>(op.kind));
    out.push_back(op.aux);
    out.push_back(static_cast<std::uint8_t>(op.dst));
    out.push_back(static_cast<std::uint8_t>(op.src));
    AppendLE<std::int32_t>(out, op.imm);
    if (KindHasTarget(op.kind)) AppendLE<std::uint32_t>(out, op.target);
    if (KindHasImm64(op.kind)) AppendLE<std::uint64_t>(out, op.imm64);
  }

  AppendLE<std::uint32_t>(out, static_cast<std::uint32_t>(relocs.size()));
  for (const Relocation& reloc : relocs) {
    out.push_back(static_cast<std::uint8_t>(reloc.kind));
    out.push_back(0);
    out.push_back(0);
    out.push_back(0);
    AppendLE<std::uint32_t>(out, reloc.index);
    AppendLE<std::int32_t>(out, reloc.symbol);
  }

  AppendLE<std::uint32_t>(out, static_cast<std::uint32_t>(maps.size()));
  for (const MapSpec& map : maps) {
    AppendString(out, map.name);
    out.push_back(static_cast<std::uint8_t>(map.type));
    out.push_back(0);
    out.push_back(0);
    out.push_back(0);
    AppendLE<std::uint32_t>(out, map.key_size);
    AppendLE<std::uint32_t>(out, map.value_size);
    AppendLE<std::uint32_t>(out, map.max_entries);
  }

  AppendLE<std::uint64_t>(out, ImageHash(out));
  return out;
}

StatusOr<JitImage> JitImage::Deserialize(ByteSpan bytes) {
  if (bytes.size() < 20) return InvalidArgument("image too small");
  const std::uint64_t stored_sum =
      LoadLE<std::uint64_t>(bytes.data() + bytes.size() - 8);
  if (ImageHash(bytes.subspan(0, bytes.size() - 8)) != stored_sum) {
    return FailedPrecondition("image checksum mismatch");
  }
  std::size_t off = 0;
  if (LoadLE<std::uint32_t>(bytes.data()) != kMagic) {
    return InvalidArgument("bad image magic");
  }
  off += 4;
  if (LoadLE<std::uint32_t>(bytes.data() + off) != kImageVersion) {
    return InvalidArgument("unsupported image version");
  }
  off += 4;
  JitImage image;
  image.type = static_cast<ProgramType>(bytes[off]);
  off += 4;
  RDX_ASSIGN_OR_RETURN(image.program_name, ReadString(bytes, off));

  if (off + 4 > bytes.size()) return InvalidArgument("truncated code count");
  const std::uint32_t ncode = LoadLE<std::uint32_t>(bytes.data() + off);
  off += 4;
  image.code.reserve(ncode);
  for (std::uint32_t i = 0; i < ncode; ++i) {
    if (off + 8 > bytes.size()) {
      return InvalidArgument("truncated code section");
    }
    MicroOp op;
    op.kind = static_cast<OpKind>(bytes[off]);
    if (op.kind > OpKind::kEndian) {
      return InvalidArgument("unknown micro-op kind");
    }
    op.aux = bytes[off + 1];
    op.dst = bytes[off + 2];
    op.src = bytes[off + 3];
    op.imm = LoadLE<std::int32_t>(bytes.data() + off + 4);
    off += 8;
    if (KindHasTarget(op.kind)) {
      if (off + 4 > bytes.size()) return InvalidArgument("truncated code");
      op.target = LoadLE<std::uint32_t>(bytes.data() + off);
      off += 4;
    }
    if (KindHasImm64(op.kind)) {
      if (off + 8 > bytes.size()) return InvalidArgument("truncated code");
      op.imm64 = LoadLE<std::uint64_t>(bytes.data() + off);
      off += 8;
    }
    image.code.push_back(op);
  }

  if (off + 4 > bytes.size()) return InvalidArgument("truncated relocs");
  const std::uint32_t nrelocs = LoadLE<std::uint32_t>(bytes.data() + off);
  off += 4;
  if (off + static_cast<std::size_t>(nrelocs) * 12 > bytes.size()) {
    return InvalidArgument("truncated reloc section");
  }
  for (std::uint32_t i = 0; i < nrelocs; ++i) {
    Relocation reloc;
    reloc.kind = static_cast<RelocKind>(bytes[off]);
    reloc.index = LoadLE<std::uint32_t>(bytes.data() + off + 4);
    reloc.symbol = LoadLE<std::int32_t>(bytes.data() + off + 8);
    if (reloc.index >= image.code.size()) {
      return InvalidArgument("relocation index out of range");
    }
    image.relocs.push_back(reloc);
    off += 12;
  }

  if (off + 4 > bytes.size()) return InvalidArgument("truncated maps");
  const std::uint32_t nmaps = LoadLE<std::uint32_t>(bytes.data() + off);
  off += 4;
  for (std::uint32_t i = 0; i < nmaps; ++i) {
    MapSpec map;
    RDX_ASSIGN_OR_RETURN(map.name, ReadString(bytes, off));
    if (off + 16 > bytes.size()) return InvalidArgument("truncated map spec");
    map.type = static_cast<MapType>(bytes[off]);
    map.key_size = LoadLE<std::uint32_t>(bytes.data() + off + 4);
    map.value_size = LoadLE<std::uint32_t>(bytes.data() + off + 8);
    map.max_entries = LoadLE<std::uint32_t>(bytes.data() + off + 12);
    image.maps.push_back(std::move(map));
    off += 16;
  }
  RDX_RETURN_IF_ERROR(image.FuseCode());
  image.runnable_ = image.IsLinked();
  return image;
}

std::uint64_t JitImage::Fingerprint() const {
  // Hash the semantic content with map-address slots normalized back to
  // placeholders, so a linked and an unlinked copy of the same compile
  // fingerprint identically.
  JitImage normalized = *this;
  for (const Relocation& reloc : normalized.relocs) {
    if (reloc.kind == RelocKind::kMapAddress) {
      normalized.code[reloc.index].imm64 = kUnlinkedPlaceholder;
    }
  }
  return ImageHash(normalized.Serialize());
}

StatusOr<JitImage> JitCompiler::Compile(const Program& prog) const {
  if (prog.insns.empty()) return InvalidArgument("empty program");

  JitImage image;
  image.program_name = prog.name;
  image.type = prog.type;
  image.maps = prog.maps;

  // Pass 1: lower instructions; remember insn index -> micro-op index.
  std::vector<std::uint32_t> micro_index(prog.insns.size() + 1, 0);
  struct PendingJump {
    std::uint32_t micro;   // micro-op to patch
    std::size_t target_insn;
  };
  std::vector<PendingJump> pending;

  for (std::size_t i = 0; i < prog.insns.size(); ++i) {
    const Insn& insn = prog.insns[i];
    micro_index[i] = static_cast<std::uint32_t>(image.code.size());
    MicroOp op;
    op.dst = insn.dst_reg;
    op.src = insn.src_reg;
    op.imm = insn.imm;
    switch (insn.cls()) {
      case kClassAlu64:
      case kClassAlu: {
        if (insn.AluOp() == kAluEnd) {
          if (insn.cls() != kClassAlu) {
            return InvalidArgument("BPF_END outside the ALU class");
          }
          if (insn.imm != 16 && insn.imm != 32 && insn.imm != 64) {
            return InvalidArgument("bad byte-swap width");
          }
          op.kind = OpKind::kEndian;
          op.aux = static_cast<std::uint8_t>(insn.imm);
          op.src = insn.UsesRegSrc() ? 1 : 0;
          break;
        }
        const bool is64 = insn.cls() == kClassAlu64;
        op.kind = insn.UsesRegSrc() ? (is64 ? OpKind::kAlu64X : OpKind::kAlu32X)
                                    : (is64 ? OpKind::kAlu64K : OpKind::kAlu32K);
        op.aux = insn.AluOp();
        break;
      }
      case kClassJmp32: {
        const std::size_t target = i + 1 + insn.off;
        if (target > prog.insns.size()) {
          return InvalidArgument("jump out of range");
        }
        op.kind = insn.UsesRegSrc() ? OpKind::kCondJmp32X
                                    : OpKind::kCondJmp32K;
        op.aux = insn.JmpOp();
        pending.push_back(
            {static_cast<std::uint32_t>(image.code.size()), target});
        break;
      }
      case kClassJmp: {
        const std::uint8_t jop = insn.JmpOp();
        if (jop == kJmpExit) {
          op.kind = OpKind::kExit;
        } else if (jop == kJmpCall) {
          op.kind = OpKind::kCall;
          if (FindHelper(insn.imm) == nullptr) {
            return InvalidArgument("call to unknown helper");
          }
          image.relocs.push_back(
              {RelocKind::kHelperCall,
               static_cast<std::uint32_t>(image.code.size()), insn.imm});
        } else {
          const std::size_t target = i + 1 + insn.off;
          if (target > prog.insns.size()) {
            return InvalidArgument("jump out of range");
          }
          if (jop == kJmpJa) {
            op.kind = OpKind::kJumpAbs;
          } else {
            op.kind = insn.UsesRegSrc() ? OpKind::kCondJmpX
                                        : OpKind::kCondJmpK;
            op.aux = jop;
          }
          pending.push_back(
              {static_cast<std::uint32_t>(image.code.size()), target});
        }
        break;
      }
      case kClassLdx:
        op.kind = OpKind::kLoad;
        op.aux = static_cast<std::uint8_t>(insn.AccessBytes());
        op.imm = insn.off;  // displacement travels in imm
        break;
      case kClassSt:
        op.kind = OpKind::kStoreImm;
        op.aux = static_cast<std::uint8_t>(insn.AccessBytes());
        op.target = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(insn.off));  // displacement
        break;
      case kClassStx:
        op.kind = OpKind::kStoreReg;
        op.aux = static_cast<std::uint8_t>(insn.AccessBytes());
        op.imm = insn.off;
        break;
      case kClassLd: {
        if (!insn.IsLdImm64() || i + 1 >= prog.insns.size()) {
          return InvalidArgument("malformed LD_IMM64");
        }
        op.kind = OpKind::kLoadImm64;
        const Insn& hi = prog.insns[i + 1];
        if (insn.src_reg == kPseudoMapFd) {
          if (insn.imm < 0 ||
              static_cast<std::size_t>(insn.imm) >= prog.maps.size()) {
            return InvalidArgument("map slot out of range");
          }
          op.imm64 = kUnlinkedPlaceholder;
          image.relocs.push_back(
              {RelocKind::kMapAddress,
               static_cast<std::uint32_t>(image.code.size()), insn.imm});
        } else {
          op.imm64 = (static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(hi.imm))
                      << 32) |
                     static_cast<std::uint32_t>(insn.imm);
        }
        // The second slot maps to the same micro-op.
        micro_index[i + 1] = micro_index[i];
        ++i;
        break;
      }
      default:
        return InvalidArgument("unknown instruction class");
    }
    image.code.push_back(op);
  }
  micro_index[prog.insns.size()] =
      static_cast<std::uint32_t>(image.code.size());

  // Pass 2: resolve branch targets to absolute micro-op indices.
  for (const PendingJump& jump : pending) {
    image.code[jump.micro].target = micro_index[jump.target_insn];
  }
  return image;
}

namespace {

// ---- Fused opcodes ----
// Numbered densely, in the order of Execute's dispatch table. Each ALU
// operation and branch condition, in X-list order, gets four consecutive
// codes, one per (width, operand form).
#define RDX_JIT_LIST(OP) OP,
constexpr std::uint8_t kAluOps[] = {RDX_BPF_ALU_OPS(RDX_JIT_LIST)};
constexpr std::uint8_t kConds[] = {RDX_BPF_JMP_CONDS(RDX_JIT_LIST)};
#undef RDX_JIT_LIST
constexpr std::uint8_t kNumAluOps = std::size(kAluOps);
constexpr std::uint8_t kNumConds = std::size(kConds);

// Each list position by the op's 4-bit field (op >> 4); N where absent.
template <std::size_t N>
constexpr std::array<std::uint8_t, 16> IndexByField(
    const std::uint8_t (&list)[N]) {
  std::array<std::uint8_t, 16> index{};
  index.fill(N);
  for (std::uint8_t i = 0; i < N; ++i) index[list[i] >> 4] = i;
  return index;
}
constexpr auto kAluIndex = IndexByField(kAluOps);
constexpr auto kCondIndex = IndexByField(kConds);
// Position of ALU operation / branch condition `op` in its X-list, or the
// list's length when `op` is not one.
constexpr std::uint8_t AluIndex(std::uint8_t op) {
  return (op & 0x0f) == 0 ? kAluIndex[op >> 4] : kNumAluOps;
}
constexpr std::uint8_t CondIndex(std::uint8_t op) {
  return (op & 0x0f) == 0 ? kCondIndex[op >> 4] : kNumConds;
}

constexpr std::uint8_t Form(bool is64, bool reg) {
  return static_cast<std::uint8_t>((is64 ? 0 : 2) | (reg ? 1 : 0));
}
constexpr std::uint8_t AluCode(std::uint8_t op, bool is64, bool reg) {
  return static_cast<std::uint8_t>(4 * AluIndex(op) + Form(is64, reg));
}
constexpr std::uint8_t kJmpCodeBase = 4 * kNumAluOps;
constexpr std::uint8_t JmpCode(std::uint8_t cond, bool is64, bool reg) {
  return static_cast<std::uint8_t>(kJmpCodeBase + 4 * CondIndex(cond) +
                                   Form(is64, reg));
}
// The rest: the generic helper call and the two array-map helpers, loads
// and stores in runs of four, one per access size 1/2/4/8, the six
// (direction, width) byte swaps, then FrameCode's set-on-condition pairs
// (K, X) per condition, host call and returns.
enum FusedCode : std::uint8_t {
  kJa = kJmpCodeBase + 4 * kNumConds,
  kCall,
  kMapLookup,
  kMapUpdate,
  kExit,
  kLdImm64,
  kLdx = kLdImm64 + 1,
  kSt = kLdx + 4,
  kStx = kSt + 4,
  kLe16 = kStx + 4,
  kLe32,
  kLe64,
  kBe16,
  kBe32,
  kBe64,
  kSetCond,
  kHostCall = kSetCond + 2 * kNumConds,
  kRet,
  kRetK,
  kNumFused,
};
constexpr std::uint8_t SetCode(std::uint8_t cond, bool reg) {
  return static_cast<std::uint8_t>(kSetCond + 2 * CondIndex(cond) +
                                   (reg ? 1 : 0));
}

bool IsAluOp(std::uint8_t op) { return AluIndex(op) < kNumAluOps; }
bool IsCond(std::uint8_t op) { return CondIndex(op) < kNumConds; }
int SizeIndex(std::uint8_t bytes) {
  switch (bytes) {
    case 1: return 0;
    case 2: return 1;
    case 4: return 2;
    case 8: return 3;
  }
  return -1;
}

// Checks `op` against everything the executor would otherwise index or
// dispatch on unchecked, for code of `code_size` ops over `num_regs`
// registers, and sets its fused opcode. Returns what is wrong with the
// op, or nullptr.
const char* Fuse(MicroOp& op, std::size_t code_size, std::size_t num_regs) {
  const bool dst_ok = op.dst < num_regs;
  const bool src_ok = op.src < num_regs;
  const bool target_ok = op.target <= code_size;
  switch (op.kind) {
    case OpKind::kAlu64K:
    case OpKind::kAlu64X:
    case OpKind::kAlu32K:
    case OpKind::kAlu32X: {
      if (!IsAluOp(op.aux)) return "unknown ALU op";
      const bool is64 =
          op.kind == OpKind::kAlu64K || op.kind == OpKind::kAlu64X;
      // NEG has no source operand; its K form reads no register.
      const bool reg = op.aux != kAluNeg && (op.kind == OpKind::kAlu64X ||
                                             op.kind == OpKind::kAlu32X);
      if (!dst_ok || (reg && !src_ok)) return "register index out of range";
      op.fused = AluCode(op.aux, is64, reg);
      return nullptr;
    }
    case OpKind::kCondJmpK:
    case OpKind::kCondJmpX:
    case OpKind::kCondJmp32K:
    case OpKind::kCondJmp32X: {
      if (!IsCond(op.aux)) return "unknown JMP op";
      const bool is64 =
          op.kind == OpKind::kCondJmpK || op.kind == OpKind::kCondJmpX;
      const bool reg =
          op.kind == OpKind::kCondJmpX || op.kind == OpKind::kCondJmp32X;
      if (!dst_ok || (reg && !src_ok)) return "register index out of range";
      if (!target_ok) return "branch target out of range";
      op.fused = JmpCode(op.aux, is64, reg);
      return nullptr;
    }
    case OpKind::kJumpAbs:
      if (!target_ok) return "branch target out of range";
      op.fused = kJa;
      return nullptr;
    case OpKind::kCall:
      op.fused = op.imm == kHelperMapLookupElem   ? kMapLookup
                 : op.imm == kHelperMapUpdateElem ? kMapUpdate
                                                  : kCall;
      return nullptr;
    case OpKind::kExit:
      op.fused = kExit;
      return nullptr;
    case OpKind::kLoadImm64:
      if (!dst_ok) return "register index out of range";
      op.fused = kLdImm64;
      return nullptr;
    case OpKind::kLoad:
    case OpKind::kStoreImm:
    case OpKind::kStoreReg: {
      const int size = SizeIndex(op.aux);
      if (size < 0) return "bad access size";
      const bool reg = op.kind != OpKind::kStoreImm;
      if (!dst_ok || (reg && !src_ok)) return "register index out of range";
      const std::uint8_t base = op.kind == OpKind::kLoad       ? kLdx
                                : op.kind == OpKind::kStoreImm ? kSt
                                                               : kStx;
      op.fused = static_cast<std::uint8_t>(base + size);
      return nullptr;
    }
    case OpKind::kEndian: {
      if (!dst_ok) return "register index out of range";
      const int width = op.aux == 16   ? 0
                        : op.aux == 32 ? 1
                        : op.aux == 64 ? 2
                                       : -1;
      if (width < 0) return "bad byte-swap width";
      const std::uint8_t base = op.src != 0 ? kBe16 : kLe16;
      op.fused = static_cast<std::uint8_t>(base + width);
      return nullptr;
    }
    case OpKind::kSetCondK:
    case OpKind::kSetCondX: {
      if (!IsCond(op.aux)) return "unknown JMP op";
      const bool reg = op.kind == OpKind::kSetCondX;
      if (!dst_ok || (reg && !src_ok)) return "register index out of range";
      op.fused = SetCode(op.aux, reg);
      return nullptr;
    }
    case OpKind::kHostCall: {
      if ((op.aux & ~(kHostArg0Imm | kHostArg1Imm)) != 0) {
        return "bad host call operand form";
      }
      const bool arg0_ok = (op.aux & kHostArg0Imm) != 0 || src_ok;
      const bool arg1_ok =
          (op.aux & kHostArg1Imm) != 0 ||
          (op.imm >= 0 && static_cast<std::size_t>(op.imm) < num_regs);
      if (!dst_ok || !arg0_ok || !arg1_ok) {
        return "register index out of range";
      }
      op.fused = kHostCall;
      return nullptr;
    }
    case OpKind::kReturn:
      if (op.aux == 0 && !src_ok) return "register index out of range";
      op.fused = op.aux == 0 ? kRet : kRetK;
      return nullptr;
  }
  return "unknown micro-op kind";
}

// The kinds that may appear on the eBPF wire, and the ones FrameCode may
// use: everything that touches only registers, plus host calls and
// returns (no memory, no helpers, no eBPF exit).
bool IsWireKind(OpKind kind) { return kind <= OpKind::kEndian; }
bool IsFrameKind(OpKind kind) {
  switch (kind) {
    case OpKind::kCall:
    case OpKind::kExit:
    case OpKind::kLoad:
    case OpKind::kStoreImm:
    case OpKind::kStoreReg:
      return false;
    default:
      return kind <= OpKind::kReturn;
  }
}

std::uint64_t Imm(const MicroOp& op) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(op.imm));
}

// Flat-window fast paths for loads and stores: false when the access
// leaves the window and must take MemSpace's general path.
template <typename T>
bool LoadFlat(const MemWindow& window, std::uint64_t addr,
              std::uint64_t& out) {
  const std::uint8_t* p = window.Find(addr, sizeof(T));
  if (p == nullptr) return false;
  out = LoadLE<T>(p);
  return true;
}

template <typename T>
bool StoreFlat(const MemWindow& window, std::uint64_t addr,
               std::uint64_t value) {
  std::uint8_t* p = window.Find(addr, sizeof(T));
  if (p == nullptr) return false;
  StoreLE(p, static_cast<T>(value));
  return true;
}

// The array slot a map_lookup_elem / map_update_elem call selects, found
// as CallHelperFn finds it: the map registered at `map_addr`, its storage
// and the key sized by that spec, and the header re-read from memory and
// passed through ArraySlotOffset. `value` is null, and the caller must
// take CallHelperFn, for any other map type, any range outside the window
// and any header the rule refuses; so an inline result is always the
// helper's result.
struct ArraySlot {
  std::uint8_t* value = nullptr;
  std::uint64_t offset = 0;      // from the map's address
  std::uint32_t value_size = 0;  // per the header
  const MapSpec* spec = nullptr;
};

// The registration a run's helper calls last resolved. Helpers never
// register maps, so rt.maps, and the entry this points to, cannot change
// while a program runs.
struct LastMap {
  std::uint64_t addr = 0;
  const MapSpec* spec = nullptr;
};

inline ArraySlot FindArraySlot(const RuntimeContext& rt,
                               const MemWindow& window, LastMap& last,
                               std::uint64_t map_addr,
                               std::uint64_t key_addr) {
  if (last.spec == nullptr || last.addr != map_addr) {
    const auto it = rt.maps.find(map_addr);
    if (it == rt.maps.end()) return {};
    last = {map_addr, &it->second};
  }
  const MapSpec& spec = *last.spec;
  if (spec.type != MapType::kArray) return {};
  const std::uint64_t bytes = MapRequiredBytes(spec);
  std::uint8_t* storage = window.Find(map_addr, bytes);
  const std::uint8_t* key = window.Find(key_addr, spec.key_size);
  MapHeader h{};
  if (storage == nullptr || key == nullptr || !ReadMapHeader(storage, h)) {
    return {};
  }
  const std::uint64_t off = ArraySlotOffset(h, key, spec.key_size, bytes);
  if (off == 0) return {};
  return {storage + off, off, h.value_size, &spec};
}

// Execute's dispatch table: handler addresses by fused code, and the
// `unknown` handler for every code Fuse never sets.
struct DispatchTable {
  const void* at[256];
};

template <std::size_t N>
DispatchTable MakeDispatchTable(const void* const (&handlers)[N],
                                const void* unknown) {
  static_assert(N == kNumFused, "one handler per fused code");
  DispatchTable table;
  std::fill(std::begin(table.at), std::end(table.at), unknown);
  std::copy(std::begin(handlers), std::end(handlers), table.at);
  return table;
}

}  // namespace

Status JitImage::FuseCode() {
  for (MicroOp& op : code) {
    const char* error = IsWireKind(op.kind)
                            ? Fuse(op, code.size(), kNumRegs)
                            : "unknown micro-op kind";
    if (error != nullptr) {
      return InvalidArgument(std::string("jit image: ") + error);
    }
    op.retire = 1;
  }
  return OkStatus();
}

Status JitImage::MakeRunnable() {
  runnable_ = false;
  RDX_RETURN_IF_ERROR(FuseCode());
  if (!IsLinked()) return FailedPrecondition("image has unlinked map slots");
  runnable_ = true;
  return OkStatus();
}

StatusOr<FrameCode> FrameCode::Make(std::vector<MicroOp> code,
                                    std::uint32_t num_regs) {
  if (code.empty()) return InvalidArgument("frame code: empty");
  if (num_regs == 0 || num_regs > kMaxFrameRegs) {
    return InvalidArgument("frame code: bad frame size");
  }
  for (MicroOp& op : code) {
    const char* error = IsFrameKind(op.kind)
                            ? Fuse(op, code.size(), num_regs)
                            : "micro-op kind not allowed in frame code";
    if (error != nullptr) {
      return InvalidArgument(std::string("frame code: ") + error);
    }
  }
  FrameCode made;
  made.code_ = std::move(code);
  made.num_regs_ = num_regs;
  return made;
}

namespace {

// The one dispatch loop behind both RunJit overloads. An eBPF image runs
// with `rt` and no `host`, FrameCode with `host` and no `rt`; the checks
// that made the code runnable keep each to the ops its environment
// supports.
//
// Dispatch is replicated: every handler ends in RDX_JIT_NEXT, its own
// indirect jump through the table of handler addresses (GCC/Clang labels
// as values), so the branch predictor learns each handler's successors
// separately instead of funnelling every op through one jump.
StatusOr<ExecResult> Execute(const MicroOp* const code, const std::size_t n,
                             std::uint64_t* const regs,
                             const std::uint64_t limit, RuntimeContext* rt,
                             HostFunctions* host) {
  // Indexed by fused code: ALU and branch handlers in X-list order, four
  // forms each in Form() order, then the rest in FusedCode order.
#define RDX_JIT_ALU_LABELS(OP) \
  &&alu64k_##OP, &&alu64x_##OP, &&alu32k_##OP, &&alu32x_##OP,
#define RDX_JIT_JMP_LABELS(OP) \
  &&jmp64k_##OP, &&jmp64x_##OP, &&jmp32k_##OP, &&jmp32x_##OP,
#define RDX_JIT_SET_LABELS(OP) &&setk_##OP, &&setx_##OP,
  static const DispatchTable kTable = MakeDispatchTable(
      {RDX_BPF_ALU_OPS(RDX_JIT_ALU_LABELS)
       RDX_BPF_JMP_CONDS(RDX_JIT_JMP_LABELS)
       &&ja, &&call, &&map_lookup, &&map_update, &&exit, &&ld_imm64,
       &&ldx_0, &&ldx_1, &&ldx_2, &&ldx_3, &&st_0, &&st_1, &&st_2, &&st_3,
       &&stx_0, &&stx_1, &&stx_2, &&stx_3,
       &&le16, &&le32, &&le64, &&be16, &&be32, &&be64,
       RDX_BPF_JMP_CONDS(RDX_JIT_SET_LABELS)
       &&host_call, &&ret, &&ret_k},
      &&unknown);
#undef RDX_JIT_ALU_LABELS
#undef RDX_JIT_JMP_LABELS
#undef RDX_JIT_SET_LABELS

  MemSpace* const mem = rt != nullptr ? rt->mem : nullptr;
  const MemWindow window = mem != nullptr ? mem->window() : MemWindow{};
  std::uint64_t executed = 0;
  const MicroOp* const end = code + n;
  const MicroOp* next = code;  // branch targets are at most n: never past end
  const MicroOp* op = nullptr;
  LastMap last_map;
#define RDX_JIT_NEXT                                                        \
  do {                                                                      \
    if (next == end) return Aborted("jit pc ran off the end");              \
    op = next++;                                                            \
    executed += op->retire;                                                 \
    if (executed > limit) {                                                 \
      return ResourceExhausted("instruction limit exceeded");               \
    }                                                                       \
    goto* kTable.at[op->fused];                                             \
  } while (false)

  RDX_JIT_NEXT;

// One handler per (op, width, operand form), each instantiating the
// shared rule from eval_inl.h for its constant op.
#define RDX_JIT_ALU(OP)                                                     \
  alu64k_##OP:                                                              \
    regs[op->dst] = internal::Alu<OP, true>(regs[op->dst], Imm(*op));       \
    RDX_JIT_NEXT;                                                           \
  alu64x_##OP:                                                              \
    regs[op->dst] = internal::Alu<OP, true>(regs[op->dst], regs[op->src]);  \
    RDX_JIT_NEXT;                                                           \
  alu32k_##OP:                                                              \
    regs[op->dst] = internal::Alu<OP, false>(regs[op->dst], Imm(*op));      \
    RDX_JIT_NEXT;                                                           \
  alu32x_##OP:                                                              \
    regs[op->dst] = internal::Alu<OP, false>(regs[op->dst], regs[op->src]); \
    RDX_JIT_NEXT;
  RDX_BPF_ALU_OPS(RDX_JIT_ALU)
#undef RDX_JIT_ALU
#define RDX_JIT_JMP(OP)                                                     \
  jmp64k_##OP:                                                              \
    if (internal::Jmp<OP>(regs[op->dst], Imm(*op))) {                       \
      next = code + op->target;                                             \
    }                                                                       \
    RDX_JIT_NEXT;                                                           \
  jmp64x_##OP:                                                              \
    if (internal::Jmp<OP>(regs[op->dst], regs[op->src])) {                  \
      next = code + op->target;                                             \
    }                                                                       \
    RDX_JIT_NEXT;                                                           \
  jmp32k_##OP:                                                              \
    if (internal::Jmp<OP>(internal::SignExtend32(regs[op->dst]),            \
                          internal::SignExtend32(Imm(*op)))) {              \
      next = code + op->target;                                             \
    }                                                                       \
    RDX_JIT_NEXT;                                                           \
  jmp32x_##OP:                                                              \
    if (internal::Jmp<OP>(internal::SignExtend32(regs[op->dst]),            \
                          internal::SignExtend32(regs[op->src]))) {         \
      next = code + op->target;                                             \
    }                                                                       \
    RDX_JIT_NEXT;
  RDX_BPF_JMP_CONDS(RDX_JIT_JMP)
#undef RDX_JIT_JMP
// Loads and stores: a bounds check plus memcpy inside the window; the
// general path outside it reports the same errors as before.
#define RDX_JIT_MEM(SIZE, T)                                                \
  ldx_##SIZE: {                                                             \
    const std::uint64_t addr = regs[op->src] + Imm(*op);                    \
    if (!LoadFlat<T>(window, addr, regs[op->dst])) {                        \
      RDX_RETURN_IF_ERROR(mem->LoadInt(addr, sizeof(T), regs[op->dst]));    \
    }                                                                       \
    RDX_JIT_NEXT;                                                           \
  }                                                                         \
  st_##SIZE: {                                                              \
    const std::uint64_t addr =                                              \
        regs[op->dst] +                                                     \
        static_cast<std::int64_t>(static_cast<std::int32_t>(op->target));   \
    if (!StoreFlat<T>(window, addr, Imm(*op))) {                            \
      RDX_RETURN_IF_ERROR(mem->StoreInt(addr, sizeof(T), Imm(*op)));        \
    }                                                                       \
    RDX_JIT_NEXT;                                                           \
  }                                                                         \
  stx_##SIZE: {                                                             \
    const std::uint64_t addr = regs[op->dst] + Imm(*op);                    \
    if (!StoreFlat<T>(window, addr, regs[op->src])) {                       \
      RDX_RETURN_IF_ERROR(mem->StoreInt(addr, sizeof(T), regs[op->src]));   \
    }                                                                       \
    RDX_JIT_NEXT;                                                           \
  }
  RDX_JIT_MEM(0, std::uint8_t)
  RDX_JIT_MEM(1, std::uint16_t)
  RDX_JIT_MEM(2, std::uint32_t)
  RDX_JIT_MEM(3, std::uint64_t)
#undef RDX_JIT_MEM
ja:
  next = code + op->target;
  RDX_JIT_NEXT;
// Helper calls; r1-r5 are caller-saved and clobbered by every call. The
// array-map helpers run inline when FindArraySlot finds the slot, and
// everything else goes to CallHelperFn.
//
// A handler's locals live in its own block: a computed goto must never
// jump past the initialization of a variable still in scope.
#define RDX_JIT_HELPER_CALL                                                 \
  do {                                                                      \
    RDX_ASSIGN_OR_RETURN(                                                   \
        regs[0], CallHelperFn(*rt, op->imm, {regs[1], regs[2], regs[3],     \
                                             regs[4], regs[5]}));           \
  } while (false)
#define RDX_JIT_CLOBBER_ARGS                                                \
  regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0
call:
  RDX_JIT_HELPER_CALL;
  RDX_JIT_CLOBBER_ARGS;
  RDX_JIT_NEXT;
map_lookup: {
  const ArraySlot slot =
      FindArraySlot(*rt, window, last_map, regs[1], regs[2]);
  if (slot.value != nullptr) {
    regs[0] = regs[1] + slot.offset;
  } else {
    RDX_JIT_HELPER_CALL;
  }
  RDX_JIT_CLOBBER_ARGS;
  RDX_JIT_NEXT;
}
map_update: {
  const ArraySlot slot =
      FindArraySlot(*rt, window, last_map, regs[1], regs[2]);
  // The helper reads value_size bytes as the registered spec sizes them
  // and refuses a header that disagrees.
  const std::uint8_t* value =
      slot.value != nullptr && slot.value_size == slot.spec->value_size
          ? window.Find(regs[3], slot.value_size)
          : nullptr;
  if (value != nullptr) {
    // `value` may lie inside the map itself.
    std::memmove(slot.value, value, slot.value_size);
    regs[0] = 0;
  } else {
    RDX_JIT_HELPER_CALL;
  }
  RDX_JIT_CLOBBER_ARGS;
  RDX_JIT_NEXT;
}
#undef RDX_JIT_HELPER_CALL
#undef RDX_JIT_CLOBBER_ARGS
exit:
  return ExecResult{regs[0], executed};
ld_imm64:
  regs[op->dst] = op->imm64;
  RDX_JIT_NEXT;
#define RDX_JIT_ENDIAN(LABEL, WIDTH, TO_BE)                                 \
  LABEL:                                                                    \
    regs[op->dst] = internal::Endian<WIDTH, TO_BE>(regs[op->dst]);          \
    RDX_JIT_NEXT;
  RDX_JIT_ENDIAN(le16, 16, false)
  RDX_JIT_ENDIAN(le32, 32, false)
  RDX_JIT_ENDIAN(le64, 64, false)
  RDX_JIT_ENDIAN(be16, 16, true)
  RDX_JIT_ENDIAN(be32, 32, true)
  RDX_JIT_ENDIAN(be64, 64, true)
#undef RDX_JIT_ENDIAN
#define RDX_JIT_SET(OP)                                                     \
  setk_##OP:                                                                \
    regs[op->dst] = internal::Jmp<OP>(regs[op->dst], Imm(*op));             \
    RDX_JIT_NEXT;                                                           \
  setx_##OP:                                                                \
    regs[op->dst] = internal::Jmp<OP>(regs[op->dst], regs[op->src]);        \
    RDX_JIT_NEXT;
  RDX_BPF_JMP_CONDS(RDX_JIT_SET)
#undef RDX_JIT_SET
host_call: {
  const std::uint64_t arg0 =
      (op->aux & kHostArg0Imm) != 0 ? op->imm64 : regs[op->src];
  const std::uint64_t arg1 =
      (op->aux & kHostArg1Imm) != 0 ? Imm(*op) : regs[op->imm];
  RDX_ASSIGN_OR_RETURN(
      regs[op->dst],
      host->CallHost(static_cast<std::int32_t>(op->target), arg0, arg1));
  RDX_JIT_NEXT;
}
ret:
  return ExecResult{regs[op->src], executed};
ret_k:
  return ExecResult{op->imm64, executed};
unknown:
  return Internal("jit image with unknown fused op");
#undef RDX_JIT_NEXT
}

}  // namespace

StatusOr<ExecResult> RunJit(const JitImage& image, RuntimeContext& rt,
                            const ExecOptions& opts) {
  if (rt.mem == nullptr) return Internal("RuntimeContext without MemSpace");
  if (!image.runnable()) {
    return FailedPrecondition("executing unlinked image");
  }
  std::uint64_t regs[kNumRegs] = {};
  regs[1] = opts.ctx_addr;
  regs[kFrameReg] = opts.stack_addr + kStackSize;
  return Execute(image.code.data(), image.code.size(), regs, opts.insn_limit,
                 &rt, nullptr);
}

StatusOr<ExecResult> RunJit(const FrameCode& code, HostFunctions& host,
                            std::uint64_t insn_limit) {
  if (code.code().empty()) return FailedPrecondition("empty frame code");
  std::uint64_t regs[kMaxFrameRegs];
  std::fill_n(regs, code.num_regs(), 0);
  return Execute(code.code().data(), code.code().size(), regs, insn_limit,
                 nullptr, &host);
}

}  // namespace rdx::bpf
