#include "wasm/filter.h"

#include <cstdio>
#include <optional>

#include "common/rng.h"

namespace rdx::wasm {

namespace {

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

}  // namespace

Status ValidateFilter(const FilterModule& module, WasmValidatorStats* stats) {
  if (module.code.empty()) return InvalidArgument("empty filter");
  if (module.num_locals > 64) return InvalidArgument("too many locals");

  // Stack depth abstract interpretation. Because branches are forward-
  // only, a single left-to-right pass with expected-depth annotations at
  // branch targets suffices.
  const std::size_t n = module.code.size();
  std::vector<std::optional<int>> depth_at(n + 1);
  depth_at[0] = 0;
  std::uint64_t checked = 0;
  bool reachable = true;
  int depth = 0;

  for (std::size_t pc = 0; pc < n; ++pc) {
    ++checked;
    if (depth_at[pc].has_value()) {
      if (reachable && *depth_at[pc] != depth) {
        return Err(pc, "inconsistent stack depth at merge point");
      }
      depth = *depth_at[pc];
      reachable = true;
    } else if (!reachable) {
      return Err(pc, "unreachable code");
    }

    const WasmInsn& insn = module.code[pc];
    auto need = [&](int k) { return depth >= k; };
    auto branch_to = [&](std::int64_t target, int at_depth) -> Status {
      if (target <= static_cast<std::int64_t>(pc) ||
          target > static_cast<std::int64_t>(n)) {
        return Err(pc, "branch target must be forward and in range");
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
        if (insn.imm < 0 || insn.imm >= module.num_locals) {
          return Err(pc, "local index out of range");
        }
        ++depth;
        break;
      case WOp::kSetLocal:
        if (insn.imm < 0 || insn.imm >= module.num_locals) {
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
        if (insn.imm < 0 ||
            insn.imm >= static_cast<std::int64_t>(module.imports.size())) {
          return Err(pc, "import index out of range");
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
    if (depth > 1024) return Err(pc, "stack depth limit exceeded");
  }
  if (reachable && !depth_at[n].has_value()) {
    return InvalidArgument("control flow falls off the filter end");
  }
  if (stats != nullptr) stats->insns_checked = checked;
  return OkStatus();
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
    if (reloc.insn_index >= image.code.size()) {
      return InvalidArgument("wasm reloc index out of range");
    }
    image.relocs.push_back(std::move(reloc));
  }
  return image;
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

StatusOr<WasmResult> RunFilter(const WasmImage& image, WasmHost& host,
                               std::uint64_t step_limit) {
  if (!image.IsLinked()) {
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
      return ResourceExhausted("wasm step limit exceeded");
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
