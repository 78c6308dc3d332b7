// Shared ALU/branch semantics for the interpreter and the JIT runner.
// Keeping exactly one definition of these rules means the two engines
// cannot drift apart — the divergence property tests then only check the
// dispatch and relocation machinery around them.
//
// Each rule is a template over its constant operation, so the JIT's fused
// handlers instantiate it per (op, width) with no inner switch; the
// interpreter reaches the same instantiations through the runtime
// dispatchers AluEval/JmpEval/EndianEval below.
#pragma once

#include <cstdint>

#include "bpf/insn.h"

namespace rdx::bpf::internal {

// X-lists of every ALU operation (BPF_END aside) and every branch
// condition, so dispatchers can be generated for all of them.
#define RDX_BPF_ALU_OPS(X)                                                 \
  X(kAluAdd) X(kAluSub) X(kAluMul) X(kAluDiv) X(kAluOr) X(kAluAnd)         \
  X(kAluLsh) X(kAluRsh) X(kAluNeg) X(kAluMod) X(kAluXor) X(kAluMov)        \
  X(kAluArsh)
#define RDX_BPF_JMP_CONDS(X)                                               \
  X(kJmpJeq) X(kJmpJgt) X(kJmpJge) X(kJmpJset) X(kJmpJne) X(kJmpJsgt)      \
  X(kJmpJsge) X(kJmpJlt) X(kJmpJle) X(kJmpJslt) X(kJmpJsle)

template <std::uint8_t>
inline constexpr bool kUnknownOp = false;

// Division and modulo by zero produce 0, matching the kernel's patched
// eBPF semantics; for 32-bit ops "zero" means the divisor's low 32 bits.
// 32-bit ops truncate inputs and zero-extend the result. `src` is ignored
// by kAluNeg.
template <std::uint8_t Op, bool Is64>
inline std::uint64_t Alu(std::uint64_t dst, std::uint64_t src) {
  constexpr std::uint64_t kShiftMask = Is64 ? 63 : 31;
  if constexpr (!Is64) {
    dst &= 0xffffffffull;
    src &= 0xffffffffull;
  }
  std::uint64_t r = 0;
  if constexpr (Op == kAluAdd) {
    r = dst + src;
  } else if constexpr (Op == kAluSub) {
    r = dst - src;
  } else if constexpr (Op == kAluMul) {
    r = dst * src;
  } else if constexpr (Op == kAluDiv) {
    r = src == 0 ? 0 : dst / src;
  } else if constexpr (Op == kAluMod) {
    r = src == 0 ? 0 : dst % src;
  } else if constexpr (Op == kAluOr) {
    r = dst | src;
  } else if constexpr (Op == kAluAnd) {
    r = dst & src;
  } else if constexpr (Op == kAluXor) {
    r = dst ^ src;
  } else if constexpr (Op == kAluLsh) {
    r = dst << (src & kShiftMask);
  } else if constexpr (Op == kAluRsh) {
    r = dst >> (src & kShiftMask);
  } else if constexpr (Op == kAluArsh) {
    if constexpr (Is64) {
      r = static_cast<std::uint64_t>(static_cast<std::int64_t>(dst) >>
                                     (src & kShiftMask));
    } else {
      r = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(static_cast<std::uint32_t>(dst)) >>
          (src & kShiftMask));
    }
  } else if constexpr (Op == kAluNeg) {
    r = ~dst + 1;
  } else if constexpr (Op == kAluMov) {
    r = src;
  } else {
    static_assert(kUnknownOp<Op>, "not an ALU operation");
  }
  if constexpr (!Is64) r &= 0xffffffffull;
  return r;
}

// Sign-extends the low 32 bits; JMP32 semantics reduce to 64-bit Jmp
// over sign-extended operands (order-preserving for both signedness
// interpretations, and JSET agrees because negative operands share
// bit 31).
inline std::uint64_t SignExtend32(std::uint64_t v) {
  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(static_cast<std::int32_t>(v)));
}

inline std::int64_t Signed(std::uint64_t v) {
  return static_cast<std::int64_t>(v);
}

template <std::uint8_t Op>
inline bool Jmp(std::uint64_t dst, std::uint64_t src) {
  if constexpr (Op == kJmpJeq) return dst == src;
  else if constexpr (Op == kJmpJne) return dst != src;
  else if constexpr (Op == kJmpJgt) return dst > src;
  else if constexpr (Op == kJmpJge) return dst >= src;
  else if constexpr (Op == kJmpJlt) return dst < src;
  else if constexpr (Op == kJmpJle) return dst <= src;
  else if constexpr (Op == kJmpJset) return (dst & src) != 0;
  else if constexpr (Op == kJmpJsgt) return Signed(dst) > Signed(src);
  else if constexpr (Op == kJmpJsge) return Signed(dst) >= Signed(src);
  else if constexpr (Op == kJmpJslt) return Signed(dst) < Signed(src);
  else if constexpr (Op == kJmpJsle) return Signed(dst) <= Signed(src);
  else static_assert(kUnknownOp<Op>, "not a branch condition");
}

// BPF_END on a little-endian host: to-LE truncates to the width; to-BE
// byte-swaps then truncates.
template <int Width, bool ToBe>
inline std::uint64_t Endian(std::uint64_t v) {
  if constexpr (Width == 16) {
    const auto x = static_cast<std::uint16_t>(v);
    return ToBe ? __builtin_bswap16(x) : x;
  } else if constexpr (Width == 32) {
    const auto x = static_cast<std::uint32_t>(v);
    return ToBe ? __builtin_bswap32(x) : x;
  } else {
    static_assert(Width == 64, "swap width must be 16/32/64");
    return ToBe ? __builtin_bswap64(v) : v;
  }
}

// Runtime dispatchers over the rules above. `ok` is false for an unknown
// operation or width.
inline std::uint64_t AluEval(std::uint8_t op, std::uint64_t dst,
                             std::uint64_t src, bool is64, bool& ok) {
  ok = true;
  switch (op) {
#define RDX_BPF_ALU_CASE(OP) \
  case OP: return is64 ? Alu<OP, true>(dst, src) : Alu<OP, false>(dst, src);
    RDX_BPF_ALU_OPS(RDX_BPF_ALU_CASE)
#undef RDX_BPF_ALU_CASE
  }
  ok = false;
  return 0;
}

inline bool JmpEval(std::uint8_t op, std::uint64_t dst, std::uint64_t src,
                    bool& ok) {
  ok = true;
  switch (op) {
#define RDX_BPF_JMP_CASE(OP) \
  case OP: return Jmp<OP>(dst, src);
    RDX_BPF_JMP_CONDS(RDX_BPF_JMP_CASE)
#undef RDX_BPF_JMP_CASE
  }
  ok = false;
  return false;
}

inline std::uint64_t EndianEval(std::uint64_t v, std::int32_t width,
                                bool to_be, bool& ok) {
  ok = true;
  switch (width) {
    case 16: return to_be ? Endian<16, true>(v) : Endian<16, false>(v);
    case 32: return to_be ? Endian<32, true>(v) : Endian<32, false>(v);
    case 64: return to_be ? Endian<64, true>(v) : Endian<64, false>(v);
  }
  ok = false;
  return 0;
}

}  // namespace rdx::bpf::internal
