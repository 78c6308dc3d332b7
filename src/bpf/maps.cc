#include "bpf/maps.h"

#include <bit>
#include <cstring>

namespace rdx::bpf {

namespace {
// Ring buffer head/tail aliases (public offsets live in maps.h).
constexpr std::uint64_t kOffRingHead = kRingHeadOffset;
constexpr std::uint64_t kOffRingTail = kRingTailOffset;
constexpr std::uint64_t kRingDataStart = kMapHeaderBytes + 16;
// Ring record whose length has this bit set is a skip-to-start marker.
constexpr std::uint64_t kRingSkipBit = 1ull << 63;

constexpr std::uint64_t kHashStateEmpty = 0;
constexpr std::uint64_t kHashStateUsed = 1;
constexpr std::uint64_t kHashStateTomb = 2;

// Cursors that RingOutput and RingConsume can have left in a ring of
// `data_bytes`: 8-aligned, tail not past head, at most data_bytes apart.
bool RingCursorsValid(std::uint64_t head, std::uint64_t tail,
                      std::uint64_t data_bytes) {
  return head % 8 == 0 && tail % 8 == 0 && tail <= head &&
         head - tail <= data_bytes;
}
}  // namespace

MapView::HashGeometry MapView::GeometryFor(std::uint32_t key_size,
                                           std::uint32_t value_size,
                                           std::uint32_t max_entries) {
  HashGeometry g;
  g.key_pad = PadTo8(key_size);
  g.value_pad = PadTo8(value_size);
  g.entry_bytes = 8 + g.key_pad + g.value_pad;
  g.capacity = std::bit_ceil<std::uint64_t>(
      std::max<std::uint64_t>(std::uint64_t{max_entries} * 2, 8));
  return g;
}

std::uint64_t MapRequiredBytes(const MapSpec& spec) {
  switch (spec.type) {
    case MapType::kArray:
      return kMapHeaderBytes +
             static_cast<std::uint64_t>(spec.max_entries) * spec.value_size;
    case MapType::kHash: {
      const auto geo = MapView::GeometryFor(spec.key_size, spec.value_size,
                                            spec.max_entries);
      return kMapHeaderBytes + geo.capacity * geo.entry_bytes;
    }
    case MapType::kRingBuf:
      // header + head/tail words + data region for max_entries records.
      return kRingDataStart +
             static_cast<std::uint64_t>(spec.max_entries) *
                 (MapView::PadTo8(spec.value_size) + 8);
  }
  return 0;
}

Status MapView::Init(const MapSpec& spec) {
  const std::uint64_t need = MapRequiredBytes(spec);
  if (storage_.size() < need) {
    return InvalidArgument("map storage too small");
  }
  if (spec.type == MapType::kArray && spec.key_size != 4) {
    return InvalidArgument("array map keys must be 4-byte indices");
  }
  std::memset(storage_.data(), 0, need);
  StoreLE<std::uint32_t>(storage_.data() + kMapOffMagic, kMapMagic);
  storage_[kMapOffType] = static_cast<std::uint8_t>(spec.type);
  StoreLE<std::uint32_t>(storage_.data() + kMapOffKeySize, spec.key_size);
  StoreLE<std::uint32_t>(storage_.data() + kMapOffValueSize, spec.value_size);
  StoreLE<std::uint32_t>(storage_.data() + kMapOffMaxEntries, spec.max_entries);
  StoreLE<std::uint32_t>(storage_.data() + kMapOffUsed, 0);
  return OkStatus();
}

StatusOr<MapHeader> MapView::Header() const {
  if (storage_.size() < kMapHeaderBytes) {
    return InvalidArgument("storage smaller than map header");
  }
  MapHeader h{};
  if (!ReadMapHeader(storage_.data(), h)) {
    return FailedPrecondition("bad map magic (storage not formatted)");
  }
  return h;
}

StatusOr<MapHeader> MapView::FittedHeader() const {
  RDX_ASSIGN_OR_RETURN(const MapHeader h, Header());
  const std::uint64_t avail = storage_.size() - kMapHeaderBytes;
  bool fits = true;
  switch (h.type) {
    case MapType::kArray:
      if (h.key_size != 4) {
        return InvalidArgument("array map keys must be 4-byte indices");
      }
      // ArraySlotOffset checks each slot; this bounds one value.
      fits = h.value_size <= avail;
      break;
    case MapType::kHash: {
      const auto g = GeometryFor(h.key_size, h.value_size, h.max_entries);
      fits = g.capacity <= avail / g.entry_bytes;
      break;
    }
    case MapType::kRingBuf:
      fits = avail >= kRingDataStart - kMapHeaderBytes &&
             h.max_entries <= (avail - (kRingDataStart - kMapHeaderBytes)) /
                                  (PadTo8(h.value_size) + 8);
      break;
  }
  if (!fits) return FailedPrecondition("map header exceeds its storage");
  return h;
}

Status MapView::CheckKey(const MapHeader& h, ByteSpan key) const {
  if (key.size() != h.key_size) {
    return InvalidArgument("key size mismatch");
  }
  return OkStatus();
}

StatusOr<std::uint64_t> MapView::LookupOffset(ByteSpan key) const {
  RDX_ASSIGN_OR_RETURN(const MapHeader h, FittedHeader());
  RDX_RETURN_IF_ERROR(CheckKey(h, key));
  return OffsetOf(h, key);
}

StatusOr<std::uint64_t> MapView::OffsetOf(const MapHeader& h,
                                          ByteSpan key) const {
  switch (h.type) {
    case MapType::kArray: {
      const std::uint64_t off =
          ArraySlotOffset(h, key.data(), key.size(), storage_.size());
      if (off == 0) return OutOfRange("array index outside the map");
      return off;
    }
    case MapType::kHash: {
      const auto g = GeometryFor(h.key_size, h.value_size, h.max_entries);
      std::uint64_t slot = Fnv1a64(key) & (g.capacity - 1);
      for (std::uint64_t probe = 0; probe < g.capacity; ++probe) {
        const std::uint64_t off =
            kMapHeaderBytes + slot * g.entry_bytes;
        const std::uint64_t state = LoadLE<std::uint64_t>(storage_.data() + off);
        if (state == kHashStateEmpty) return NotFound("key not in map");
        if (state == kHashStateUsed &&
            std::memcmp(storage_.data() + off + 8, key.data(),
                        h.key_size) == 0) {
          return off + 8 + g.key_pad;
        }
        slot = (slot + 1) & (g.capacity - 1);
      }
      return NotFound("key not in map");
    }
    case MapType::kRingBuf:
      return Unimplemented("lookup on ring buffer");
  }
  return Internal("corrupt map type");
}

Status MapView::Lookup(ByteSpan key, MutableByteSpan out) const {
  RDX_ASSIGN_OR_RETURN(const MapHeader h, FittedHeader());
  if (out.size() != h.value_size) {
    return InvalidArgument("value buffer size mismatch");
  }
  RDX_ASSIGN_OR_RETURN(const std::uint64_t off, LookupOffset(key));
  std::memcpy(out.data(), storage_.data() + off, h.value_size);
  return OkStatus();
}

// Keys, values and records may lie inside the very storage they are copied
// into (a program can pass a pointer into its own map), hence memmove.
Status MapView::Update(ByteSpan key, ByteSpan value) {
  RDX_ASSIGN_OR_RETURN(const MapHeader h, FittedHeader());
  RDX_RETURN_IF_ERROR(CheckKey(h, key));
  if (value.size() != h.value_size) {
    return InvalidArgument("value size mismatch");
  }
  switch (h.type) {
    case MapType::kArray: {
      RDX_ASSIGN_OR_RETURN(const std::uint64_t off, OffsetOf(h, key));
      std::memmove(storage_.data() + off, value.data(), h.value_size);
      return OkStatus();
    }
    case MapType::kHash: {
      const auto g = GeometryFor(h.key_size, h.value_size, h.max_entries);
      std::uint64_t slot = Fnv1a64(key) & (g.capacity - 1);
      std::uint64_t insert_off = 0;
      bool have_insert = false;
      for (std::uint64_t probe = 0; probe < g.capacity; ++probe) {
        const std::uint64_t off = kMapHeaderBytes + slot * g.entry_bytes;
        const std::uint64_t state =
            LoadLE<std::uint64_t>(storage_.data() + off);
        if (state == kHashStateUsed &&
            std::memcmp(storage_.data() + off + 8, key.data(),
                        h.key_size) == 0) {
          std::memmove(storage_.data() + off + 8 + g.key_pad, value.data(),
                       h.value_size);
          return OkStatus();
        }
        if (state != kHashStateUsed && !have_insert) {
          insert_off = off;
          have_insert = true;
        }
        if (state == kHashStateEmpty) break;
        slot = (slot + 1) & (g.capacity - 1);
      }
      if (!have_insert) return ResourceExhausted("hash map full");
      if (h.used >= h.max_entries) {
        return ResourceExhausted("hash map at max_entries");
      }
      StoreLE<std::uint64_t>(storage_.data() + insert_off, kHashStateUsed);
      std::memmove(storage_.data() + insert_off + 8, key.data(), h.key_size);
      std::memmove(storage_.data() + insert_off + 8 + g.key_pad, value.data(),
                   h.value_size);
      StoreLE<std::uint32_t>(storage_.data() + kMapOffUsed, h.used + 1);
      return OkStatus();
    }
    case MapType::kRingBuf:
      return Unimplemented("update on ring buffer; use RingOutput");
  }
  return Internal("corrupt map type");
}

Status MapView::Delete(ByteSpan key) {
  RDX_ASSIGN_OR_RETURN(const MapHeader h, FittedHeader());
  RDX_RETURN_IF_ERROR(CheckKey(h, key));
  switch (h.type) {
    case MapType::kArray: {
      RDX_ASSIGN_OR_RETURN(const std::uint64_t off, OffsetOf(h, key));
      std::memset(storage_.data() + off, 0, h.value_size);
      return OkStatus();
    }
    case MapType::kHash: {
      const auto g = GeometryFor(h.key_size, h.value_size, h.max_entries);
      RDX_ASSIGN_OR_RETURN(const std::uint64_t value_off, OffsetOf(h, key));
      const std::uint64_t entry_off = value_off - 8 - g.key_pad;
      StoreLE<std::uint64_t>(storage_.data() + entry_off, kHashStateTomb);
      StoreLE<std::uint32_t>(storage_.data() + kMapOffUsed, h.used - 1);
      return OkStatus();
    }
    case MapType::kRingBuf:
      return Unimplemented("delete on ring buffer");
  }
  return Internal("corrupt map type");
}

Status MapView::RingOutput(ByteSpan record) {
  RDX_ASSIGN_OR_RETURN(const MapHeader h, FittedHeader());
  if (h.type != MapType::kRingBuf) {
    return FailedPrecondition("RingOutput on non-ring map");
  }
  const std::uint64_t data_bytes =
      static_cast<std::uint64_t>(h.max_entries) * (PadTo8(h.value_size) + 8);
  const std::uint64_t rec_bytes = 8 + PadTo8(record.size());
  if (rec_bytes > data_bytes) return InvalidArgument("record too large");

  std::uint64_t head = LoadLE<std::uint64_t>(storage_.data() + kOffRingHead);
  const std::uint64_t tail =
      LoadLE<std::uint64_t>(storage_.data() + kOffRingTail);
  if (!RingCursorsValid(head, tail, data_bytes)) {
    return FailedPrecondition("corrupt ring cursors");
  }
  // `head`/`tail` are monotonically increasing byte counters; physical
  // position is counter % data_bytes.
  std::uint64_t pos = head % data_bytes;
  std::uint64_t avail = data_bytes - (head - tail);

  // If the record would wrap, emit a skip marker and start over.
  if (pos + rec_bytes > data_bytes) {
    const std::uint64_t skip = data_bytes - pos;
    if (skip > avail) return ResourceExhausted("ring buffer full");
    StoreLE<std::uint64_t>(storage_.data() + kRingDataStart + pos,
                           kRingSkipBit | skip);
    head += skip;
    pos = 0;
    avail -= skip;
  }
  if (rec_bytes > avail) return ResourceExhausted("ring buffer full");
  StoreLE<std::uint64_t>(storage_.data() + kRingDataStart + pos,
                         record.size());
  std::memmove(storage_.data() + kRingDataStart + pos + 8, record.data(),
               record.size());
  StoreLE<std::uint64_t>(storage_.data() + kOffRingHead, head + rec_bytes);
  StoreLE<std::uint32_t>(storage_.data() + kMapOffUsed, h.used + 1);
  return OkStatus();
}

StatusOr<std::vector<Bytes>> MapView::RingConsume() {
  RDX_ASSIGN_OR_RETURN(const MapHeader h, FittedHeader());
  if (h.type != MapType::kRingBuf) {
    return FailedPrecondition("RingConsume on non-ring map");
  }
  const std::uint64_t data_bytes =
      static_cast<std::uint64_t>(h.max_entries) * (PadTo8(h.value_size) + 8);
  const std::uint64_t head =
      LoadLE<std::uint64_t>(storage_.data() + kOffRingHead);
  std::uint64_t tail = LoadLE<std::uint64_t>(storage_.data() + kOffRingTail);
  if (!RingCursorsValid(head, tail, data_bytes)) {
    return FailedPrecondition("corrupt ring cursors");
  }

  std::vector<Bytes> out;
  while (tail < head) {
    const std::uint64_t pos = tail % data_bytes;
    const std::uint64_t len_word =
        LoadLE<std::uint64_t>(storage_.data() + kRingDataStart + pos);
    if (len_word & kRingSkipBit) {
      // RingOutput skips exactly to the end of the data region.
      if ((len_word & ~kRingSkipBit) != data_bytes - pos) {
        return FailedPrecondition("corrupt ring skip marker");
      }
      tail += len_word & ~kRingSkipBit;
      continue;
    }
    if (len_word > data_bytes - pos - 8 ||
        8 + PadTo8(len_word) > head - tail) {
      return FailedPrecondition("corrupt ring record length");
    }
    Bytes rec(len_word);
    std::memcpy(rec.data(), storage_.data() + kRingDataStart + pos + 8,
                len_word);
    out.push_back(std::move(rec));
    tail += 8 + PadTo8(len_word);
  }
  StoreLE<std::uint64_t>(storage_.data() + kOffRingTail, tail);
  StoreLE<std::uint32_t>(storage_.data() + kMapOffUsed, 0);
  return out;
}

StatusOr<std::uint32_t> MapView::Used() const {
  RDX_ASSIGN_OR_RETURN(const MapHeader h, Header());
  return h.used;
}

Status MapView::NextKey(ByteSpan prev_key, MutableByteSpan out_key) const {
  RDX_ASSIGN_OR_RETURN(const MapHeader h, FittedHeader());
  if (out_key.size() != h.key_size) {
    return InvalidArgument("key buffer size mismatch");
  }
  if (!prev_key.empty() && prev_key.size() != h.key_size) {
    return InvalidArgument("key size mismatch");
  }
  switch (h.type) {
    case MapType::kArray: {
      // Keys are indices 0..max_entries-1.
      std::uint32_t next = 0;
      if (!prev_key.empty()) {
        next = LoadLE<std::uint32_t>(prev_key.data()) + 1;
      }
      if (next >= h.max_entries) return NotFound("iteration exhausted");
      StoreLE(out_key.data(), next);
      return OkStatus();
    }
    case MapType::kHash: {
      const auto g = GeometryFor(h.key_size, h.value_size, h.max_entries);
      // Find the slot after prev_key's position (or 0 when starting, or
      // when prev_key vanished — a loose restart like the kernel's).
      std::uint64_t start_slot = 0;
      if (!prev_key.empty()) {
        std::uint64_t slot = Fnv1a64(prev_key) & (g.capacity - 1);
        for (std::uint64_t probe = 0; probe < g.capacity; ++probe) {
          const std::uint64_t off = kMapHeaderBytes + slot * g.entry_bytes;
          const std::uint64_t state =
              LoadLE<std::uint64_t>(storage_.data() + off);
          if (state == kHashStateEmpty) break;  // prev gone: restart
          if (state == kHashStateUsed &&
              std::memcmp(storage_.data() + off + 8, prev_key.data(),
                          h.key_size) == 0) {
            start_slot = slot + 1;
            break;
          }
          slot = (slot + 1) & (g.capacity - 1);
        }
      }
      for (std::uint64_t slot = start_slot; slot < g.capacity; ++slot) {
        const std::uint64_t off = kMapHeaderBytes + slot * g.entry_bytes;
        if (LoadLE<std::uint64_t>(storage_.data() + off) == kHashStateUsed) {
          std::memcpy(out_key.data(), storage_.data() + off + 8, h.key_size);
          return OkStatus();
        }
      }
      return NotFound("iteration exhausted");
    }
    case MapType::kRingBuf:
      return Unimplemented("iteration on ring buffer");
  }
  return Internal("corrupt map type");
}

StatusOr<std::vector<std::pair<Bytes, Bytes>>> MapView::Dump() const {
  RDX_ASSIGN_OR_RETURN(const MapHeader h, FittedHeader());
  if (h.type == MapType::kRingBuf) {
    return Unimplemented("iteration on ring buffer");
  }
  std::vector<std::pair<Bytes, Bytes>> out;
  Bytes key(h.key_size);
  Bytes prev;
  while (true) {
    Status next = NextKey(prev, key);
    if (next.code() == StatusCode::kNotFound) break;
    RDX_RETURN_IF_ERROR(next);
    Bytes value(h.value_size);
    // Array slots always "exist"; hash keys returned by NextKey do too.
    RDX_RETURN_IF_ERROR(Lookup(key, value));
    out.emplace_back(key, std::move(value));
    prev = key;
  }
  return out;
}

}  // namespace rdx::bpf
