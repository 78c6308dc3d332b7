// Byte-level helpers shared by the RDMA fabric, the eBPF encoder, and the
// binary-image formats: little-endian load/store, hex rendering, and a
// FNV-1a checksum used to tag deployed extension images.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace rdx {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;
using MutableByteSpan = std::span<std::uint8_t>;

// Unaligned little-endian accessors. All wire/image formats in this
// library are little-endian regardless of host order.
template <typename T>
inline T LoadLE(const std::uint8_t* p) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
inline void StoreLE(std::uint8_t* p, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(p, &v, sizeof(T));
}

// Appends the little-endian representation of `v` to `out`.
template <typename T>
inline void AppendLE(Bytes& out, T v) {
  const std::size_t off = out.size();
  out.resize(off + sizeof(T));
  StoreLE(out.data() + off, v);
}

// 64-bit FNV-1a. Used to fingerprint extension binaries for the control
// plane's compile cache and integrity checks. Passing the hash of a prefix
// as `h` continues it: Fnv1a64(b, Fnv1a64(a)) hashes a then b.
inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;
std::uint64_t Fnv1a64(ByteSpan data, std::uint64_t h = kFnv1a64Offset);

// Lowercase hex rendering, e.g. {0xde, 0xad} -> "dead".
std::string ToHex(ByteSpan data);

}  // namespace rdx
