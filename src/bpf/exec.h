// Execution environment for eBPF extensions. Programs run against a
// MemSpace — an abstract flat address space. In unit tests and in the
// agent baseline this is a process-local VectorMemory; inside an RDX
// sandbox it is the node's simulated DRAM (HostMemory), which is what
// lets the remote control plane observe and mutate the very same bytes
// (maps, context, code) over one-sided RDMA.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "bpf/maps.h"
#include "bpf/program.h"
#include "common/rng.h"
#include "common/status.h"

namespace rdx::bpf {

// The part of a MemSpace that is one flat host buffer: guest addresses
// [base, base + size) live at host + (addr - base).
struct MemWindow {
  std::uint8_t* host = nullptr;
  std::uint64_t base = 0;
  std::uint64_t size = 0;

  // Host pointer for [addr, addr + len), or nullptr unless the whole
  // range lies inside the window.
  std::uint8_t* Find(std::uint64_t addr, std::uint64_t len) const {
    const std::uint64_t off = addr - base;
    return off < size && len <= size - off ? host + off : nullptr;
  }
};

class MemSpace {
 public:
  virtual ~MemSpace() = default;
  MemSpace(const MemSpace&) = delete;
  MemSpace& operator=(const MemSpace&) = delete;

  // Returns a writable window over [addr, addr+len), or an error if the
  // range is invalid in this space.
  virtual StatusOr<MutableByteSpan> SpanAt(std::uint64_t addr,
                                           std::uint64_t len) = 0;

  // The flat part of this space (empty by default). SpanAt must return
  // the same bytes for every range inside it.
  const MemWindow& window() const { return window_; }

  // SpanAt with the window checked inline first: same spans and errors,
  // but no virtual call for ranges inside the window.
  StatusOr<MutableByteSpan> FastSpanAt(std::uint64_t addr,
                                       std::uint64_t len) {
    if (std::uint8_t* p = window_.Find(addr, len)) {
      return MutableByteSpan(p, len);
    }
    return SpanAt(addr, len);
  }

  // Convenience integer accessors built on SpanAt. `size` is 1/2/4/8.
  Status LoadInt(std::uint64_t addr, int size, std::uint64_t& out);
  Status StoreInt(std::uint64_t addr, int size, std::uint64_t value);

 protected:
  MemSpace() = default;
  void set_window(const MemWindow& window) { window_ = window; }

 private:
  MemWindow window_;
};

// Process-local MemSpace with a bump allocator, flat over its whole
// capacity. The nonzero base address keeps null pointers invalid.
class VectorMemory : public MemSpace {
 public:
  explicit VectorMemory(std::uint64_t capacity,
                        std::uint64_t base = 0x1000);

  StatusOr<MutableByteSpan> SpanAt(std::uint64_t addr,
                                   std::uint64_t len) override;
  StatusOr<std::uint64_t> Allocate(std::uint64_t size,
                                   std::uint64_t align = 8);
  std::uint64_t base() const { return base_; }

 private:
  std::uint64_t base_;
  std::uint64_t next_;
  Bytes bytes_;
};

// ---- Helper functions (ids follow the kernel where one exists) ----
enum HelperId : std::int32_t {
  kHelperMapLookupElem = 1,
  kHelperMapUpdateElem = 2,
  kHelperMapDeleteElem = 3,
  kHelperKtimeGetNs = 5,
  kHelperTracePrintk = 6,
  kHelperGetPrandomU32 = 7,
  kHelperGetSmpProcessorId = 8,
  kHelperRingbufOutput = 130,
};

// Signature metadata used by the verifier and by the RDX link stage's
// symbol table.
struct HelperSpec {
  HelperId id;
  const char* name;
  bool arg1_is_map;     // r1 must be a map reference
  bool arg2_is_mem;     // r2 must point to readable memory (key/data)
  bool arg3_is_mem;     // r3 must point to readable memory (value)
  bool returns_map_value_or_null;
};

// Returns the spec for a helper id, or nullptr if unknown.
const HelperSpec* FindHelper(std::int32_t id);

// Everything a running extension can touch besides its registers: the
// address space, registered maps, and ambient facilities (virtual clock,
// deterministic RNG). One RuntimeContext per sandbox.
struct RuntimeContext {
  MemSpace* mem = nullptr;
  std::function<std::uint64_t()> ktime_ns = [] { return 0ull; };
  Rng* rng = nullptr;
  // Maps registered by storage address; the address doubles as the map
  // handle value the program holds in a register.
  std::unordered_map<std::uint64_t, MapSpec> maps;
  std::uint64_t trace_count = 0;   // kHelperTracePrintk invocations
  std::uint32_t processor_id = 0;
};

// Dispatches a helper call. Returns the helper's r0.
StatusOr<std::uint64_t> CallHelperFn(
    RuntimeContext& rt, std::int32_t id,
    const std::array<std::uint64_t, kMaxHelperArgs>& args);

// Result of executing an extension to completion.
struct ExecResult {
  std::uint64_t r0 = 0;
  std::uint64_t insns_executed = 0;
};

// Per-invocation parameters shared by the interpreter and the JIT runner.
struct ExecOptions {
  std::uint64_t ctx_addr = 0;    // r1 at entry
  std::uint64_t ctx_len = 0;     // readable bytes at ctx_addr
  std::uint64_t stack_addr = 0;  // base of a kStackSize-byte stack region
  std::uint64_t insn_limit = 1u << 20;
};

}  // namespace rdx::bpf
