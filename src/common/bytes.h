// Byte-level helpers shared by the RDMA fabric, the eBPF encoder, and the
// binary-image formats: little-endian load/store, hex rendering, the
// word-wide hash that checks, fingerprints and signs whole extension
// images, and FNV-1a for short keys.
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

// 64-bit FNV-1a, one byte per multiply. Kept for short inputs whose values
// are pinned: symbol hashes, XState hash-map slots and the kvstore hook's
// ctx. Passing the hash of a prefix as `h` continues it:
// Fnv1a64(b, Fnv1a64(a)) hashes a then b.
inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;
std::uint64_t Fnv1a64(ByteSpan data, std::uint64_t h = kFnv1a64Offset);

// XXH64 with seed 0: reads the input as little-endian 8-byte words into
// four independent lanes, folds in the 0-7 tail bytes and the length, and
// ends with a full avalanche. The one hash of a whole extension image:
// its wire checksum, its fingerprint and the input of its signing MAC.
// A change within one 8-byte word (any single-bit flip) always changes the
// hash under 32 bytes, where each step is a bijection of the state; from
// 32 bytes on it always changes its lane, and only a 64-bit cancellation
// in the final merge could hide it. Not a cryptographic hash.
std::uint64_t ImageHash(ByteSpan data);

// Lowercase hex rendering, e.g. {0xde, 0xad} -> "dead".
std::string ToHex(ByteSpan data);

}  // namespace rdx
