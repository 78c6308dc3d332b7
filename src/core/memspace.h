// Adapter exposing a node's simulated DRAM (rdma::HostMemory) as the
// MemSpace an eBPF extension executes against. This closes the loop that
// makes RDX work: the extension's loads and stores hit the same bytes the
// remote control plane reaches with one-sided verbs. DRAM is one flat
// buffer, so the whole of it is the MemSpace window.
#pragma once

#include "bpf/exec.h"
#include "rdma/memory.h"

namespace rdx::core {

class HostMemSpace final : public bpf::MemSpace {
 public:
  explicit HostMemSpace(rdma::HostMemory& memory) : memory_(memory) {
    set_window({memory.SpanForCpu(memory.base(), memory.capacity()).data(),
                memory.base(), memory.capacity()});
  }

  StatusOr<MutableByteSpan> SpanAt(std::uint64_t addr,
                                   std::uint64_t len) override {
    // CPU-side access: bounds-checked against DRAM, not against MRs (the
    // local CPU is not subject to RNIC protection).
    if (addr < memory_.base() ||
        addr + len > memory_.base() + memory_.capacity() || addr + len < addr) {
      return OutOfRange("extension access outside node DRAM");
    }
    return memory_.SpanForCpu(addr, len);
  }

 private:
  rdma::HostMemory& memory_;
};

}  // namespace rdx::core
