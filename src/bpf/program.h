// Program container: instructions plus the metadata the toolchain and the
// RDX control plane care about — program type, declared maps, and the
// helper set it may call. This is the unit that flows through
// validate -> JIT -> link -> deploy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bpf/insn.h"

namespace rdx::bpf {

enum class ProgramType : std::uint8_t {
  kSocketFilter,  // ctx = packet bytes; return 0 (drop) / nonzero (accept)
  kXdp,           // same ctx shape in this subset
  kTracepoint,    // ctx = event record
};

enum class MapType : std::uint8_t { kArray, kHash, kRingBuf };

// Declaration of a map the program references via LoadMapFd(slot). The
// actual map instance is created at deploy time (as XState, when deployed
// through RDX).
struct MapSpec {
  std::string name;
  MapType type = MapType::kArray;
  std::uint32_t key_size = 4;
  std::uint32_t value_size = 8;
  std::uint32_t max_entries = 1;
};

struct Program {
  std::string name;
  ProgramType type = ProgramType::kSocketFilter;
  std::vector<Insn> insns;
  std::vector<MapSpec> maps;  // indexed by the slot in LoadMapFd

  std::size_t size() const { return insns.size(); }
  Bytes Encode() const { return EncodeProgram(insns); }
};

}  // namespace rdx::bpf
