// The extension kinds RDX deploys, eBPF programs and Wasm filters, as one
// trait. Every pipeline over them — the remote control plane's CodeFlow
// (codeflow.h) and the per-node agent baseline (agent/agent.h) — is
// written once over ExtensionKind<Source>, which supplies only what
// differs between the kinds: fingerprint, validate, compile, link, cycle
// costs and messages. Each kind is also reachable through its image
// type, so link/deploy can be called with a compiled image alone.
#pragma once

#include <cstdint>
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
  static constexpr const char* kNotLinked =
      "image not linked; call rdx_link_code first";
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
  // Checks helper symbols and patches map relocations with the node-local
  // XState addresses.
  static Status Link(const LinkTarget& target, Image& image);
};

template <>
struct ExtensionKind<wasm::FilterModule> {
  using Image = wasm::WasmImage;
  static constexpr ImageKind kKind = ImageKind::kWasm;
  static constexpr const char* kName = "wasm";
  static constexpr const char* kQuarantined =
      "filter fingerprint is quarantined";
  static constexpr const char* kKnownBad = "filter known to fail validation";
  static constexpr const char* kNotLinked = "wasm image not linked";
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
  // Resolves host-function imports against the target's symbol table.
  static Status Link(const LinkTarget& target, Image& image);
};

template <>
struct ExtensionKind<bpf::JitImage> : ExtensionKind<bpf::Program> {};
template <>
struct ExtensionKind<wasm::WasmImage> : ExtensionKind<wasm::FilterModule> {};

template <class Source>
using ImageOf = typename ExtensionKind<Source>::Image;

// Decodes deployed image bytes by their magic. Any failure (unknown
// magic, checksum mismatch) is kAborted: on a live hook it means the
// reader raced a non-transactional write (torn image).
using AnyImage = std::variant<bpf::JitImage, wasm::WasmImage>;
StatusOr<AnyImage> DecodeImage(ByteSpan bytes);

}  // namespace rdx::core
