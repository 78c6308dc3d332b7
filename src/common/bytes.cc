#include "common/bytes.h"

#include <bit>

namespace rdx {

std::uint64_t Fnv1a64(ByteSpan data, std::uint64_t h) {
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

std::uint64_t Round(std::uint64_t acc, std::uint64_t word) {
  acc += word * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

std::uint64_t MergeLane(std::uint64_t h, std::uint64_t lane) {
  h ^= Round(0, lane);
  return h * kPrime1 + kPrime4;
}
}  // namespace

std::uint64_t ImageHash(ByteSpan data) {
  const std::uint8_t* p = data.data();
  const std::uint8_t* const end = p + data.size();
  std::uint64_t h;
  if (data.size() >= 32) {
    // Four lanes, one 8-byte word each per 32-byte stripe: the multiplies
    // of one stripe do not wait on each other.
    std::uint64_t v1 = kPrime1 + kPrime2;
    std::uint64_t v2 = kPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    for (const std::uint8_t* const limit = end - 32; p <= limit; p += 32) {
      v1 = Round(v1, LoadLE<std::uint64_t>(p));
      v2 = Round(v2, LoadLE<std::uint64_t>(p + 8));
      v3 = Round(v3, LoadLE<std::uint64_t>(p + 16));
      v4 = Round(v4, LoadLE<std::uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeLane(h, v1);
    h = MergeLane(h, v2);
    h = MergeLane(h, v3);
    h = MergeLane(h, v4);
  } else {
    h = kPrime5;
  }
  h += data.size();
  for (; end - p >= 8; p += 8) {
    h ^= Round(0, LoadLE<std::uint64_t>(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= LoadLE<std::uint32_t>(p) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= *p * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

std::string ToHex(ByteSpan data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

}  // namespace rdx
