#include "core/extension.h"

#include <string_view>

#include "core/layout.h"

namespace rdx::core {

std::uint64_t ProgramFingerprint(const bpf::Program& prog) {
  Bytes bytes = prog.Encode();
  for (const bpf::MapSpec& map : prog.maps) {
    bytes.insert(bytes.end(), map.name.begin(), map.name.end());
    AppendLE<std::uint32_t>(bytes, static_cast<std::uint32_t>(map.type));
    AppendLE<std::uint32_t>(bytes, map.key_size);
    AppendLE<std::uint32_t>(bytes, map.value_size);
    AppendLE<std::uint32_t>(bytes, map.max_entries);
  }
  return ImageHash(bytes);
}

std::uint64_t WasmFingerprint(const wasm::FilterModule& module) {
  Bytes bytes;
  for (const wasm::WasmInsn& insn : module.code) {
    bytes.push_back(static_cast<std::uint8_t>(insn.op));
    AppendLE<std::int64_t>(bytes, insn.imm);
  }
  for (const wasm::ImportDecl& import : module.imports) {
    bytes.insert(bytes.end(), import.name.begin(), import.name.end());
    bytes.push_back(0);
  }
  return ImageHash(bytes);
}

namespace {
// Index of the (kind, name) need in `plan`; a new one is appended, with
// the symbol hash `hash()` computes.
template <class HashFn>
std::uint32_t NeedIndex(LinkPlan& plan, LinkPlan::NeedKind kind,
                        std::string_view name, HashFn hash) {
  for (std::size_t i = 0; i < plan.needs.size(); ++i) {
    if (plan.needs[i].kind == kind && plan.needs[i].name == name) {
      return static_cast<std::uint32_t>(i);
    }
  }
  plan.needs.push_back({kind, hash(), std::string(name)});
  return static_cast<std::uint32_t>(plan.needs.size() - 1);
}
constexpr auto kNoHash = [] { return std::uint64_t{0}; };
}  // namespace

StatusOr<LinkValues> ResolveLink(const LinkPlan& plan,
                                 const LinkTarget& target) {
  using Kind = LinkPlan::NeedKind;
  LinkValues values;
  values.reserve(plan.needs.size());
  for (const LinkPlan::Need& need : plan.needs) {
    if (need.kind == Kind::kBadSlot) {
      return Internal("relocation references unknown map slot");
    }
    if (need.kind == Kind::kXState) {
      auto it = target.xstates.find(need.name);
      if (it == target.xstates.end()) {
        return FailedPrecondition("XState '" + need.name +
                                  "' not deployed on target");
      }
      values.push_back(it->second);
      continue;
    }
    auto it = target.symbols.find(need.hash);
    if (it == target.symbols.end()) {
      return FailedPrecondition(
          need.kind == Kind::kHelper
              ? "target node does not export helper " + need.name
              : "target node does not export host fn '" + need.name + "'");
    }
    values.push_back(it->second);
  }
  return values;
}

LinkPlan ExtensionKind<bpf::Program>::Plan(const Image& image) {
  using Kind = LinkPlan::NeedKind;
  LinkPlan plan;
  for (const bpf::Relocation& reloc : image.relocs) {
    std::uint32_t need;
    if (reloc.kind == bpf::RelocKind::kHelperCall) {
      need = NeedIndex(plan, Kind::kHelper, std::to_string(reloc.symbol), [&] {
        return SymbolHash("helper:", static_cast<std::uint64_t>(reloc.symbol));
      });
    } else if (reloc.symbol >= 0 &&
               static_cast<std::size_t>(reloc.symbol) < image.maps.size()) {
      need = NeedIndex(plan, Kind::kXState, image.maps[reloc.symbol].name,
                       kNoHash);
    } else {
      need = NeedIndex(plan, Kind::kBadSlot, "", kNoHash);
    }
    plan.need_of_reloc.push_back(need);
  }
  return plan;
}

void ExtensionKind<bpf::Program>::Apply(const LinkPlan& plan,
                                        const LinkValues& values,
                                        Image& image) {
  for (std::size_t r = 0; r < image.relocs.size(); ++r) {
    const bpf::Relocation& reloc = image.relocs[r];
    if (reloc.kind == bpf::RelocKind::kMapAddress) {
      image.code[reloc.index].imm64 = values[plan.need_of_reloc[r]];
    }
  }
}

LinkPlan ExtensionKind<wasm::FilterModule>::Plan(const Image& image) {
  LinkPlan plan;
  for (const wasm::WasmReloc& reloc : image.relocs) {
    plan.need_of_reloc.push_back(
        NeedIndex(plan, LinkPlan::NeedKind::kHostFn, reloc.import_name, [&] {
          return SymbolHashName("host:", reloc.import_name.c_str());
        }));
  }
  return plan;
}

void ExtensionKind<wasm::FilterModule>::Apply(const LinkPlan& plan,
                                              const LinkValues& values,
                                              Image& image) {
  for (std::size_t r = 0; r < image.relocs.size(); ++r) {
    wasm::WasmReloc& reloc = image.relocs[r];
    const std::uint64_t value = values[plan.need_of_reloc[r]];
    reloc.resolved_host_fn = static_cast<std::int32_t>(value);
    image.code[reloc.insn_index].imm = static_cast<std::int64_t>(value);
  }
}

namespace {
template <class Image>
StatusOr<AnyImage> Decode(ByteSpan bytes) {
  auto image = Image::Deserialize(bytes);
  if (!image.ok()) {
    return Aborted(std::string("torn or corrupt ") +
                   ExtensionKind<Image>::kName +
                   " image: " + image.status().ToString());
  }
  return AnyImage(std::move(image).value());
}
}  // namespace

StatusOr<AnyImage> DecodeImage(ByteSpan bytes) {
  const std::uint32_t magic =
      bytes.size() >= 4 ? LoadLE<std::uint32_t>(bytes.data()) : 0;
  if (magic == bpf::JitImage::kMagic) return Decode<bpf::JitImage>(bytes);
  if (magic == wasm::WasmImage::kMagic) return Decode<wasm::WasmImage>(bytes);
  return Aborted("image with unknown magic (torn write?)");
}

}  // namespace rdx::core
