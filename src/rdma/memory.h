// A node's physical memory plus the RNIC's memory-translation table
// (registered memory regions keyed by lkey/rkey). Registration is the
// security boundary of RDMA: every DMA — local gather or remote
// scatter — is bounds- and permission-checked against a region here,
// exactly as an RNIC's MTT/MPT would.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/bytes.h"
#include "common/status.h"

#include "rdma/types.h"

namespace rdx::rdma {

struct MemoryRegion {
  MemoryKey lkey = 0;
  MemoryKey rkey = 0;
  std::uint64_t addr = 0;   // start virtual address
  std::uint64_t length = 0;
  std::uint32_t access = 0;  // AccessFlags bitmask
};

class HostMemory {
 public:
  // `capacity` bytes of DRAM, addressed [base_addr, base_addr+capacity).
  // A nonzero base makes address-vs-offset confusion bugs loud.
  explicit HostMemory(std::uint64_t capacity,
                      std::uint64_t base_addr = 0x10000);

  std::uint64_t base() const { return base_; }
  std::uint64_t capacity() const { return capacity_; }

  // Bump-allocates an aligned buffer; returns its virtual address.
  StatusOr<std::uint64_t> Allocate(std::uint64_t size,
                                   std::uint64_t align = 8);

  // Registers [addr, addr+length) with the RNIC. Returns the region; its
  // keys are unique per HostMemory.
  StatusOr<MemoryRegion> Register(std::uint64_t addr, std::uint64_t length,
                                  std::uint32_t access);
  Status Deregister(MemoryKey lkey);

  // Invoked on successful Deregister with the region's (lkey, rkey), so
  // the RNIC model can shoot down cached MTT translations (rdma/mtt.h).
  void SetDeregisterHook(
      std::function<void(MemoryKey lkey, MemoryKey rkey)> hook) {
    dereg_hook_ = std::move(hook);
  }

  // Direct CPU window over DRAM (no MR checks — the local CPU is not
  // subject to RNIC protection). Caller must keep addr/len in bounds.
  MutableByteSpan SpanForCpu(std::uint64_t addr, std::uint64_t len) {
    return MutableByteSpan(Translate(addr), len);
  }

  // Raw CPU-side access (no key checks — this is the node's own CPU).
  // ReadSpan is Read's bounds check without the copy: a window the caller
  // copies from itself.
  StatusOr<ByteSpan> ReadSpan(std::uint64_t addr, std::uint64_t len) const;
  Status Read(std::uint64_t addr, MutableByteSpan out) const;
  Status Write(std::uint64_t addr, ByteSpan data);
  StatusOr<std::uint64_t> ReadU64(std::uint64_t addr) const;
  Status WriteU64(std::uint64_t addr, std::uint64_t value);

  // RNIC-side access paths, validated against a registered region.
  // `remote` selects rkey (true) vs lkey (false) lookup. DmaReadSpan is
  // DmaRead's checks without the copy.
  StatusOr<ByteSpan> DmaReadSpan(MemoryKey key, bool remote,
                                 std::uint64_t addr, std::uint64_t len) const;
  Status DmaRead(MemoryKey key, bool remote, std::uint64_t addr,
                 MutableByteSpan out) const;
  Status DmaWrite(MemoryKey key, bool remote, std::uint64_t addr,
                  ByteSpan data);
  // 8-byte atomics executed by the RNIC. Returns the original value.
  StatusOr<std::uint64_t> DmaCompareSwap(MemoryKey key, std::uint64_t addr,
                                         std::uint64_t expected,
                                         std::uint64_t desired);
  StatusOr<std::uint64_t> DmaFetchAdd(MemoryKey key, std::uint64_t addr,
                                      std::uint64_t addend);

  // Validates an access without performing it (used for atomics'
  // alignment + permission preflight).
  Status CheckAccess(MemoryKey key, bool remote, std::uint64_t addr,
                     std::uint64_t length, std::uint32_t required) const;

 private:
  const MemoryRegion* FindRegion(MemoryKey key, bool remote) const;
  std::uint8_t* Translate(std::uint64_t addr) {
    return bytes_.get() + (addr - base_);
  }
  const std::uint8_t* Translate(std::uint64_t addr) const {
    return bytes_.get() + (addr - base_);
  }
  bool InBounds(std::uint64_t addr, std::uint64_t length) const {
    return addr >= base_ && addr + length <= base_ + capacity_ &&
           addr + length >= addr;
  }

  // Anonymous mmap region: lazily zero-filled by the kernel, so creating
  // many simulated nodes with GB-scale DRAM costs nothing until pages are
  // actually touched.
  struct Unmapper {
    std::size_t length;
    void operator()(std::uint8_t* p) const;
  };
  static std::unique_ptr<std::uint8_t[], Unmapper> MapAnonymous(
      std::uint64_t capacity);

  std::uint64_t base_;
  std::uint64_t capacity_;
  std::uint64_t next_alloc_;
  std::unique_ptr<std::uint8_t[], Unmapper> bytes_;
  std::unordered_map<MemoryKey, MemoryRegion> regions_by_lkey_;
  std::unordered_map<MemoryKey, MemoryKey> lkey_by_rkey_;
  MemoryKey next_key_ = 0x1000;
  std::function<void(MemoryKey, MemoryKey)> dereg_hook_;
};

}  // namespace rdx::rdma
