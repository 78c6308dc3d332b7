// Map storage. A map is a *flat, self-describing byte layout* over a
// contiguous buffer, manipulated through MapView. This is deliberate and
// central to RDX: the same layout works over process-local memory (agent
// baseline, unit tests) and over a node's simulated DRAM (HostMemory),
// where it becomes XState that the remote control plane can read and
// write with one-sided RDMA at computed offsets (§3.4 of the paper).
//
// Layouts (all little-endian):
//   header (32 B): magic 'XMAP' | type u8 | pad | key_size u32 |
//                  value_size u32 | max_entries u32 | used u32 | pad
//   array:   header + max_entries * value_size            (key = u32 index)
//   hash:    header + capacity * entry, open addressing, linear probing;
//            entry = state u64 (0 empty / 1 used / 2 tombstone) +
//                    key (padded to 8) + value (padded to 8)
//   ringbuf: header + head u64 + tail u64 + data bytes; records are
//            u64 length + payload, with a skip marker at wrap.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bpf/program.h"
#include "common/bytes.h"
#include "common/status.h"

namespace rdx::bpf {

constexpr std::uint32_t kMapMagic = 0x50414d58;  // "XMAP"
constexpr std::uint64_t kMapHeaderBytes = 32;
// Header field offsets.
constexpr std::uint64_t kMapOffMagic = 0;
constexpr std::uint64_t kMapOffType = 4;
constexpr std::uint64_t kMapOffKeySize = 8;
constexpr std::uint64_t kMapOffValueSize = 12;
constexpr std::uint64_t kMapOffMaxEntries = 16;
constexpr std::uint64_t kMapOffUsed = 20;
// Ring-buffer cursor words live right after the header; the tail is the
// consumer-owned word (advanced remotely by XStateRingConsume).
constexpr std::uint64_t kRingHeadOffset = kMapHeaderBytes;
constexpr std::uint64_t kRingTailOffset = kMapHeaderBytes + 8;

struct MapHeader {
  MapType type;
  std::uint32_t key_size;
  std::uint32_t value_size;
  std::uint32_t max_entries;
  std::uint32_t used;
};

// Total storage a map of this spec needs, header included.
std::uint64_t MapRequiredBytes(const MapSpec& spec);

// Reads the header at `storage`, which holds at least kMapHeaderBytes,
// and returns whether its magic marks the storage as formatted.
inline bool ReadMapHeader(const std::uint8_t* storage, MapHeader& h) {
  h.type = static_cast<MapType>(storage[kMapOffType]);
  h.key_size = LoadLE<std::uint32_t>(storage + kMapOffKeySize);
  h.value_size = LoadLE<std::uint32_t>(storage + kMapOffValueSize);
  h.max_entries = LoadLE<std::uint32_t>(storage + kMapOffMaxEntries);
  h.used = LoadLE<std::uint32_t>(storage + kMapOffUsed);
  return LoadLE<std::uint32_t>(storage + kMapOffMagic) == kMapMagic;
}

// The array-slot rule, the one place an array index becomes a value
// address; MapView and the JIT's inline map helpers both use it. Returns
// the offset of the value that `key` (key_size bytes) selects in storage
// of `storage_bytes` bytes starting with header `h`, or 0 when `h` is not
// an array map with 4-byte keys of key_size, the index is at or past
// max_entries, or the slot does not end inside the storage. Nothing is
// taken on trust: the header may have been rewritten since the storage
// was sized.
inline std::uint64_t ArraySlotOffset(const MapHeader& h,
                                     const std::uint8_t* key,
                                     std::uint64_t key_size,
                                     std::uint64_t storage_bytes) {
  if (h.type != MapType::kArray || h.key_size != 4 || key_size != 4) {
    return 0;
  }
  const std::uint32_t idx = LoadLE<std::uint32_t>(key);
  if (idx >= h.max_entries) return 0;
  const std::uint64_t off =
      kMapHeaderBytes + static_cast<std::uint64_t>(idx) * h.value_size;
  return off <= storage_bytes && h.value_size <= storage_bytes - off ? off
                                                                      : 0;
}

// Accessor over a map's storage bytes. Holds no state of its own: it can
// be constructed on the fly over any span that contains a formatted map
// (including bytes just fetched via RDMA READ).
class MapView {
 public:
  explicit MapView(MutableByteSpan storage) : storage_(storage) {}

  // Formats the storage for `spec`. Fails if the span is too small, or
  // for an array map whose keys are not 4-byte indices.
  Status Init(const MapSpec& spec);

  // Parses and validates the header. Every other operation also checks
  // each offset and length the header implies against the span, so a
  // header that claims more than the span holds is refused, not trusted.
  StatusOr<MapHeader> Header() const;

  // Returns the offset of the value for `key` within the storage, or
  // NotFound. Never allocates.
  StatusOr<std::uint64_t> LookupOffset(ByteSpan key) const;

  // Reads the value for `key` into out (sized value_size).
  Status Lookup(ByteSpan key, MutableByteSpan out) const;

  // Inserts or overwrites. For array maps the key must be a valid index.
  Status Update(ByteSpan key, ByteSpan value);

  // Removes a key (hash maps only; arrays zero the slot).
  Status Delete(ByteSpan key);

  // Ring buffer: appends a record. Fails with ResourceExhausted when the
  // buffer cannot fit it until the consumer catches up.
  Status RingOutput(ByteSpan record);

  // Ring buffer: drains all complete records.
  StatusOr<std::vector<Bytes>> RingConsume();

  // Number of live entries (hash) / committed records (ring).
  StatusOr<std::uint32_t> Used() const;

  // Iteration (the bpf_map_get_next_key syscall analog). With an empty
  // `prev_key`, writes the first key; otherwise the key following
  // `prev_key` in iteration order. NotFound when exhausted. For hash
  // maps, iteration survives deletion of prev_key (restarts from the
  // position it occupied), matching kernel semantics loosely.
  Status NextKey(ByteSpan prev_key, MutableByteSpan out_key) const;

  // Convenience full dump (keys with their values), iteration order.
  StatusOr<std::vector<std::pair<Bytes, Bytes>>> Dump() const;

  // Layout math, shared with MapRequiredBytes.
  struct HashGeometry {
    std::uint64_t capacity;
    std::uint64_t entry_bytes;
    std::uint64_t key_pad;
    std::uint64_t value_pad;
  };
  static std::uint64_t PadTo8(std::uint64_t n) { return (n + 7) & ~7ull; }
  static HashGeometry GeometryFor(std::uint32_t key_size,
                                  std::uint32_t value_size,
                                  std::uint32_t max_entries);

 private:
  Status CheckKey(const MapHeader& h, ByteSpan key) const;
  // Header() plus a check that what the header describes fits the span:
  // the whole table of a hash or ring map, one value and 4-byte keys of
  // an array (whose slots ArraySlotOffset checks one by one).
  StatusOr<MapHeader> FittedHeader() const;
  // LookupOffset over a header already parsed and a key already checked.
  StatusOr<std::uint64_t> OffsetOf(const MapHeader& h, ByteSpan key) const;

  MutableByteSpan storage_;
};

// Convenience owner for process-local maps (agent baseline, tests).
class LocalMap {
 public:
  explicit LocalMap(const MapSpec& spec)
      : spec_(spec), storage_(MapRequiredBytes(spec), 0) {
    MapView view(storage_);
    (void)view.Init(spec);
  }

  const MapSpec& spec() const { return spec_; }
  MapView view() { return MapView(storage_); }
  MutableByteSpan storage() { return storage_; }

 private:
  MapSpec spec_;
  Bytes storage_;
};

}  // namespace rdx::bpf
