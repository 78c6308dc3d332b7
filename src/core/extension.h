// The extension kinds RDX deploys, eBPF programs and Wasm filters, as one
// trait. Every pipeline over them — the remote control plane's CodeFlow
// (codeflow.h) and the per-node agent baseline (agent/agent.h) — is
// written once over ExtensionKind<Source>, which supplies only what
// differs between the kinds: fingerprint, validate, compile, link plan and
// apply, cycle costs and messages. Each kind is also reachable through its
// image type, so a link can be called with a compiled image alone.
//
// Linking is split so both kinds share one path: a kind derives an image's
// LinkPlan (what it needs from a target) and applies resolved LinkValues;
// ResolveLink, shared, turns a plan into values against one target.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "bpf/jit.h"
#include "bpf/verifier.h"
#include "common/status.h"
#include "sim/cost_model.h"
#include "wasm/filter.h"

namespace rdx::core {

enum class ImageKind : std::uint8_t { kEbpf, kWasm };

// Fingerprint of a source program (pre-JIT), used for the verify/compile
// caches.
std::uint64_t ProgramFingerprint(const bpf::Program& prog);
std::uint64_t WasmFingerprint(const wasm::FilterModule& module);

// What a link resolves against on one target node: its exported symbols
// (symbol hash -> helper id or Wasm host-table index, the table
// Sandbox::ExportedSymbols publishes) and the node-local address of each
// deployed XState, by name.
using SymbolMap = std::unordered_map<std::uint64_t, std::uint64_t>;
using XStateMap = std::unordered_map<std::string, std::uint64_t>;
struct LinkTarget {
  const SymbolMap& symbols;
  const XStateMap& xstates;
};

// What an image needs from a link target: each distinct helper, host
// import or map slot its relocations reference is one Need, in the order
// the relocations first use it, so resolution fails where a
// relocation-by-relocation link would. Symbol hashes are computed once,
// when the plan is made.
struct LinkPlan {
  enum class NeedKind : std::uint8_t { kHelper, kHostFn, kXState, kBadSlot };
  struct Need {
    NeedKind kind;
    std::uint64_t hash = 0;  // kHelper / kHostFn: the exported symbol's hash
    std::string name;        // helper id, import name or XState name
  };
  std::vector<Need> needs;
  std::vector<std::uint32_t> need_of_reloc;  // relocation -> index in needs
};

// One value per Need on one target: the exported symbol's value (helper id
// or host-table index) or the XState's node-local address. An image linked
// with equal values is byte-identical, whichever node they came from.
using LinkValues = std::vector<std::uint64_t>;
StatusOr<LinkValues> ResolveLink(const LinkPlan& plan,
                                 const LinkTarget& target);

template <class T>
struct ExtensionKind;

template <>
struct ExtensionKind<bpf::Program> {
  using Image = bpf::JitImage;
  static constexpr ImageKind kKind = ImageKind::kEbpf;
  static constexpr const char* kName = "ebpf";
  static constexpr const char* kQuarantined =
      "program fingerprint is quarantined";
  static constexpr const char* kKnownBad =
      "program known to fail verification";
  static constexpr auto kValidateCycles = &sim::CostModel::VerifyCycles;
  static constexpr auto kCompileCycles = &sim::CostModel::JitCycles;
  static std::uint64_t Fingerprint(const bpf::Program& prog) {
    return ProgramFingerprint(prog);
  }
  static Status Validate(const bpf::Program& prog) {
    return bpf::Verifier().Verify(prog);
  }
  static StatusOr<Image> Compile(const bpf::Program& prog) {
    return bpf::JitCompiler().Compile(prog);
  }
  // XStates the extension declares; deployed on demand before linking.
  static const std::vector<bpf::MapSpec>& XStates(const bpf::Program& prog) {
    return prog.maps;
  }
  // Helper calls need their symbol; map relocations their XState, whose
  // address Apply patches in.
  static LinkPlan Plan(const Image& image);
  static void Apply(const LinkPlan& plan, const LinkValues& values,
                    Image& image);
};

template <>
struct ExtensionKind<wasm::FilterModule> {
  using Image = wasm::WasmImage;
  static constexpr ImageKind kKind = ImageKind::kWasm;
  static constexpr const char* kName = "wasm";
  static constexpr const char* kQuarantined =
      "filter fingerprint is quarantined";
  static constexpr const char* kKnownBad = "filter known to fail validation";
  static constexpr auto kValidateCycles = &sim::CostModel::WasmValidateCycles;
  static constexpr auto kCompileCycles = &sim::CostModel::WasmCompileCycles;
  static std::uint64_t Fingerprint(const wasm::FilterModule& module) {
    return WasmFingerprint(module);
  }
  static Status Validate(const wasm::FilterModule& module) {
    return wasm::ValidateFilter(module);
  }
  static StatusOr<Image> Compile(const wasm::FilterModule& module) {
    return wasm::CompileFilter(module);
  }
  static const std::vector<bpf::MapSpec>& XStates(const wasm::FilterModule&) {
    static const std::vector<bpf::MapSpec> kNone;
    return kNone;
  }
  // Host-function imports need their symbol, whose host-table index Apply
  // patches in.
  static LinkPlan Plan(const Image& image);
  static void Apply(const LinkPlan& plan, const LinkValues& values,
                    Image& image);
};

template <>
struct ExtensionKind<bpf::JitImage> : ExtensionKind<bpf::Program> {};
template <>
struct ExtensionKind<wasm::WasmImage> : ExtensionKind<wasm::FilterModule> {};

template <class Source>
using ImageOf = typename ExtensionKind<Source>::Image;
// A compiled image as the control plane hands it out: shared with the
// artifact cache, so an eviction cannot free it under a caller.
template <class Source>
using ImagePtr = std::shared_ptr<const ImageOf<Source>>;

// Links `image` in place against `target`: plan, resolve, apply.
template <class Image>
Status LinkImage(const LinkTarget& target, Image& image) {
  using K = ExtensionKind<Image>;
  const LinkPlan plan = K::Plan(image);
  RDX_ASSIGN_OR_RETURN(const LinkValues values, ResolveLink(plan, target));
  K::Apply(plan, values, image);
  return OkStatus();
}

// Decodes deployed image bytes by their magic. Any failure (unknown
// magic, checksum mismatch) is kAborted: on a live hook it means the
// reader raced a non-transactional write (torn image).
using AnyImage = std::variant<bpf::JitImage, wasm::WasmImage>;
StatusOr<AnyImage> DecodeImage(ByteSpan bytes);

}  // namespace rdx::core
