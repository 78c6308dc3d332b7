#include "rdma/memory.h"

#include <sys/mman.h>

#include <cstdlib>

namespace rdx::rdma {

void HostMemory::Unmapper::operator()(std::uint8_t* p) const {
  if (p != nullptr) ::munmap(p, length);
}

std::unique_ptr<std::uint8_t[], HostMemory::Unmapper>
HostMemory::MapAnonymous(std::uint64_t capacity) {
  void* p = ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) std::abort();
  return std::unique_ptr<std::uint8_t[], Unmapper>(
      static_cast<std::uint8_t*>(p), Unmapper{capacity});
}

HostMemory::HostMemory(std::uint64_t capacity, std::uint64_t base_addr)
    : base_(base_addr),
      capacity_(capacity),
      next_alloc_(base_addr),
      bytes_(MapAnonymous(capacity)) {}

StatusOr<std::uint64_t> HostMemory::Allocate(std::uint64_t size,
                                             std::uint64_t align) {
  if (size == 0 || align == 0 || (align & (align - 1)) != 0) {
    return InvalidArgument("bad allocation size/alignment");
  }
  std::uint64_t addr = (next_alloc_ + align - 1) & ~(align - 1);
  if (addr + size > base_ + capacity_) {
    return ResourceExhausted("host memory exhausted");
  }
  next_alloc_ = addr + size;
  return addr;
}

StatusOr<MemoryRegion> HostMemory::Register(std::uint64_t addr,
                                            std::uint64_t length,
                                            std::uint32_t access) {
  if (length == 0) return InvalidArgument("cannot register empty region");
  if (!InBounds(addr, length)) {
    return OutOfRange("registration outside host memory");
  }
  MemoryRegion mr;
  mr.lkey = next_key_++;
  mr.rkey = next_key_++;
  mr.addr = addr;
  mr.length = length;
  mr.access = access;
  regions_by_lkey_.emplace(mr.lkey, mr);
  lkey_by_rkey_.emplace(mr.rkey, mr.lkey);
  return mr;
}

Status HostMemory::Deregister(MemoryKey lkey) {
  auto it = regions_by_lkey_.find(lkey);
  if (it == regions_by_lkey_.end()) return NotFound("unknown lkey");
  const MemoryKey rkey = it->second.rkey;
  lkey_by_rkey_.erase(rkey);
  regions_by_lkey_.erase(it);
  if (dereg_hook_) dereg_hook_(lkey, rkey);
  return OkStatus();
}

const MemoryRegion* HostMemory::FindRegion(MemoryKey key, bool remote) const {
  MemoryKey lkey = key;
  if (remote) {
    auto it = lkey_by_rkey_.find(key);
    if (it == lkey_by_rkey_.end()) return nullptr;
    lkey = it->second;
  }
  auto it = regions_by_lkey_.find(lkey);
  return it == regions_by_lkey_.end() ? nullptr : &it->second;
}

Status HostMemory::CheckAccess(MemoryKey key, bool remote, std::uint64_t addr,
                               std::uint64_t length,
                               std::uint32_t required) const {
  const MemoryRegion* mr = FindRegion(key, remote);
  if (mr == nullptr) return PermissionDenied("unknown memory key");
  if ((mr->access & required) != required) {
    return PermissionDenied("region lacks required access rights");
  }
  if (addr < mr->addr || addr + length > mr->addr + mr->length ||
      addr + length < addr) {
    return OutOfRange("access outside registered region");
  }
  return OkStatus();
}

StatusOr<ByteSpan> HostMemory::ReadSpan(std::uint64_t addr,
                                        std::uint64_t len) const {
  if (!InBounds(addr, len)) return OutOfRange("CPU read out of bounds");
  return ByteSpan(Translate(addr), len);
}

Status HostMemory::Read(std::uint64_t addr, MutableByteSpan out) const {
  if (!InBounds(addr, out.size())) return OutOfRange("CPU read out of bounds");
  std::memcpy(out.data(), Translate(addr), out.size());
  return OkStatus();
}

Status HostMemory::Write(std::uint64_t addr, ByteSpan data) {
  if (!InBounds(addr, data.size())) {
    return OutOfRange("CPU write out of bounds");
  }
  std::memcpy(Translate(addr), data.data(), data.size());
  return OkStatus();
}

StatusOr<std::uint64_t> HostMemory::ReadU64(std::uint64_t addr) const {
  std::uint8_t buf[8] = {};
  RDX_RETURN_IF_ERROR(Read(addr, buf));
  return LoadLE<std::uint64_t>(buf);
}

Status HostMemory::WriteU64(std::uint64_t addr, std::uint64_t value) {
  std::uint8_t buf[8];
  StoreLE(buf, value);
  return Write(addr, buf);
}

StatusOr<ByteSpan> HostMemory::DmaReadSpan(MemoryKey key, bool remote,
                                           std::uint64_t addr,
                                           std::uint64_t len) const {
  const std::uint32_t required = remote ? kAccessRemoteRead : 0u;
  RDX_RETURN_IF_ERROR(CheckAccess(key, remote, addr, len, required));
  return ReadSpan(addr, len);
}

Status HostMemory::DmaRead(MemoryKey key, bool remote, std::uint64_t addr,
                           MutableByteSpan out) const {
  const std::uint32_t required = remote ? kAccessRemoteRead : 0u;
  RDX_RETURN_IF_ERROR(CheckAccess(key, remote, addr, out.size(), required));
  return Read(addr, out);
}

Status HostMemory::DmaWrite(MemoryKey key, bool remote, std::uint64_t addr,
                            ByteSpan data) {
  const std::uint32_t required =
      remote ? kAccessRemoteWrite : kAccessLocalWrite;
  RDX_RETURN_IF_ERROR(CheckAccess(key, remote, addr, data.size(), required));
  return Write(addr, data);
}

StatusOr<std::uint64_t> HostMemory::DmaCompareSwap(MemoryKey key,
                                                   std::uint64_t addr,
                                                   std::uint64_t expected,
                                                   std::uint64_t desired) {
  if ((addr & 7) != 0) return InvalidArgument("misaligned atomic");
  RDX_RETURN_IF_ERROR(CheckAccess(key, /*remote=*/true, addr, 8,
                                  kAccessRemoteAtomic));
  RDX_ASSIGN_OR_RETURN(const std::uint64_t original, ReadU64(addr));
  if (original == expected) {
    RDX_RETURN_IF_ERROR(WriteU64(addr, desired));
  }
  return original;
}

StatusOr<std::uint64_t> HostMemory::DmaFetchAdd(MemoryKey key,
                                                std::uint64_t addr,
                                                std::uint64_t addend) {
  if ((addr & 7) != 0) return InvalidArgument("misaligned atomic");
  RDX_RETURN_IF_ERROR(CheckAccess(key, /*remote=*/true, addr, 8,
                                  kAccessRemoteAtomic));
  RDX_ASSIGN_OR_RETURN(const std::uint64_t original, ReadU64(addr));
  RDX_RETURN_IF_ERROR(WriteU64(addr, original + addend));
  return original;
}

}  // namespace rdx::rdma
