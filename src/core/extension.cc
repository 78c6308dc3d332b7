#include "core/extension.h"

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
  return Fnv1a64(bytes);
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
  return Fnv1a64(bytes);
}

Status ExtensionKind<bpf::Program>::Link(const LinkTarget& target,
                                         Image& image) {
  for (const bpf::Relocation& reloc : image.relocs) {
    if (reloc.kind == bpf::RelocKind::kHelperCall) {
      if (target.symbols.count(SymbolHash(
              "helper:", static_cast<std::uint64_t>(reloc.symbol))) == 0) {
        return FailedPrecondition("target node does not export helper " +
                                  std::to_string(reloc.symbol));
      }
      continue;
    }
    // Map relocation: patch the placeholder with the node-local XState
    // address deployed for this map.
    if (reloc.symbol < 0 ||
        static_cast<std::size_t>(reloc.symbol) >= image.maps.size()) {
      return Internal("relocation references unknown map slot");
    }
    const std::string& name = image.maps[reloc.symbol].name;
    auto it = target.xstates.find(name);
    if (it == target.xstates.end()) {
      return FailedPrecondition("XState '" + name + "' not deployed on target");
    }
    image.code[reloc.index].imm64 = it->second;
  }
  return OkStatus();
}

Status ExtensionKind<wasm::FilterModule>::Link(const LinkTarget& target,
                                               Image& image) {
  for (wasm::WasmReloc& reloc : image.relocs) {
    auto it = target.symbols.find(
        SymbolHashName("host:", reloc.import_name.c_str()));
    if (it == target.symbols.end()) {
      return FailedPrecondition("target node does not export host fn '" +
                                reloc.import_name + "'");
    }
    reloc.resolved_host_fn = static_cast<std::int32_t>(it->second);
    image.code[reloc.insn_index].imm = static_cast<std::int64_t>(it->second);
  }
  return OkStatus();
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
