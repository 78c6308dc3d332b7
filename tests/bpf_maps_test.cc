// Tests for the map layer: layout math, array/hash/ring semantics,
// self-description, and parameterized geometry sweeps (the same layouts
// double as XState, so correctness here underpins remote state access).
#include <gtest/gtest.h>

#include <algorithm>

#include "bpf/maps.h"
#include "common/rng.h"

namespace rdx::bpf {
namespace {

Bytes Key32(std::uint32_t k) {
  Bytes key(4);
  StoreLE(key.data(), k);
  return key;
}

Bytes Value64(std::uint64_t v) {
  Bytes value(8);
  StoreLE(value.data(), v);
  return value;
}

LocalMap MakeMap(MapType type, std::uint32_t key_size,
                 std::uint32_t value_size, std::uint32_t max_entries) {
  return LocalMap(MapSpec{"m", type, key_size, value_size, max_entries});
}

// ---- layout / header ----

TEST(MapLayout, ArraySizing) {
  MapSpec spec{"a", MapType::kArray, 4, 16, 100};
  EXPECT_EQ(MapRequiredBytes(spec), kMapHeaderBytes + 100 * 16);
}

TEST(MapLayout, HashSizingPowerOfTwoCapacity) {
  MapSpec spec{"h", MapType::kHash, 4, 8, 100};
  // capacity = bit_ceil(200) = 256; entry = 8 + 8 + 8.
  EXPECT_EQ(MapRequiredBytes(spec), kMapHeaderBytes + 256 * 24);
}

TEST(MapLayout, HeaderSelfDescribes) {
  LocalMap map = MakeMap(MapType::kHash, 12, 20, 50);
  auto header = map.view().Header();
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->type, MapType::kHash);
  EXPECT_EQ(header->key_size, 12u);
  EXPECT_EQ(header->value_size, 20u);
  EXPECT_EQ(header->max_entries, 50u);
  EXPECT_EQ(header->used, 0u);
}

TEST(MapLayout, UnformattedStorageRejected) {
  Bytes raw(256, 0);
  MapView view(raw);
  EXPECT_FALSE(view.Header().ok());
  EXPECT_FALSE(view.Lookup(Key32(0), MutableByteSpan()).ok());
}

TEST(MapLayout, InitRejectsTooSmallStorage) {
  MapSpec spec{"a", MapType::kArray, 4, 8, 64};
  Bytes raw(16, 0);
  MapView view(raw);
  EXPECT_FALSE(view.Init(spec).ok());
}

// ---- array maps ----

TEST(ArrayMap, UpdateLookupRoundTrip) {
  LocalMap map = MakeMap(MapType::kArray, 4, 8, 8);
  ASSERT_TRUE(map.view().Update(Key32(3), Value64(777)).ok());
  Bytes out(8);
  ASSERT_TRUE(map.view().Lookup(Key32(3), out).ok());
  EXPECT_EQ(LoadLE<std::uint64_t>(out.data()), 777u);
}

TEST(ArrayMap, UnwrittenSlotsReadZero) {
  LocalMap map = MakeMap(MapType::kArray, 4, 8, 8);
  Bytes out(8);
  ASSERT_TRUE(map.view().Lookup(Key32(5), out).ok());
  EXPECT_EQ(LoadLE<std::uint64_t>(out.data()), 0u);
}

TEST(ArrayMap, IndexOutOfRangeRejected) {
  LocalMap map = MakeMap(MapType::kArray, 4, 8, 8);
  Bytes out(8);
  EXPECT_FALSE(map.view().Lookup(Key32(8), out).ok());
  EXPECT_FALSE(map.view().Update(Key32(100), Value64(1)).ok());
}

TEST(ArrayMap, DeleteZeroesSlot) {
  LocalMap map = MakeMap(MapType::kArray, 4, 8, 8);
  ASSERT_TRUE(map.view().Update(Key32(2), Value64(5)).ok());
  ASSERT_TRUE(map.view().Delete(Key32(2)).ok());
  Bytes out(8);
  ASSERT_TRUE(map.view().Lookup(Key32(2), out).ok());
  EXPECT_EQ(LoadLE<std::uint64_t>(out.data()), 0u);
}

TEST(ArrayMap, KeySizeMismatchRejected) {
  LocalMap map = MakeMap(MapType::kArray, 4, 8, 8);
  Bytes bad_key(8, 0);
  Bytes out(8);
  EXPECT_FALSE(map.view().Lookup(bad_key, out).ok());
}

TEST(ArrayMap, ValueSizeMismatchRejected) {
  LocalMap map = MakeMap(MapType::kArray, 4, 8, 8);
  Bytes bad_value(4, 0);
  EXPECT_FALSE(map.view().Update(Key32(0), bad_value).ok());
  EXPECT_FALSE(map.view().Lookup(Key32(0), bad_value).ok());
}

// ---- headers that claim more than the storage holds ----
// A map's storage is sized from the spec first seen (or the header first
// read), but its header lives in shared memory and can be rewritten
// afterwards. The view must refuse such a header, never read or write
// past its span on its word.

// A formatted map at the front of a larger buffer: an access past the
// map's span lands in the buffer's tail, where the test can see it.
struct EmbeddedMap {
  explicit EmbeddedMap(const MapSpec& spec)
      : span_bytes(MapRequiredBytes(spec)), buffer(span_bytes + 8192, 0) {
    EXPECT_TRUE(view().Init(spec).ok());
  }
  MapView view() { return MapView(MutableByteSpan(buffer.data(), span_bytes)); }
  void SetHeaderWord(std::uint64_t off, std::uint32_t v) {
    StoreLE(buffer.data() + off, v);
  }
  bool TailUntouched() const {
    return std::all_of(buffer.begin() + span_bytes, buffer.end(),
                       [](std::uint8_t b) { return b == 0; });
  }
  std::uint64_t span_bytes;
  Bytes buffer;
};

TEST(MapHeaderTrust, ArrayGrownPastItsSpanIsRefused) {
  EmbeddedMap map(MapSpec{"a", MapType::kArray, 4, 8, 4});
  map.SetHeaderWord(kMapOffMaxEntries, 1000);
  Bytes out(8);
  EXPECT_FALSE(map.view().Lookup(Key32(500), out).ok());
  EXPECT_FALSE(map.view().LookupOffset(Key32(500)).ok());
  EXPECT_FALSE(map.view().Update(Key32(500), Value64(~0ull)).ok());
  EXPECT_FALSE(map.view().Delete(Key32(500)).ok());
  EXPECT_TRUE(map.TailUntouched());
  // Slots inside the span still work under the rewritten header.
  EXPECT_TRUE(map.view().Update(Key32(3), Value64(9)).ok());
  ASSERT_TRUE(map.view().Lookup(Key32(3), out).ok());
  EXPECT_EQ(LoadLE<std::uint64_t>(out.data()), 9u);
}

TEST(MapHeaderTrust, ArrayShrunkBelowItsSpanIsBoundedByTheHeader) {
  EmbeddedMap map(MapSpec{"a", MapType::kArray, 4, 8, 4});
  map.SetHeaderWord(kMapOffMaxEntries, 2);
  Bytes out(8);
  EXPECT_TRUE(map.view().Lookup(Key32(1), out).ok());
  EXPECT_FALSE(map.view().Lookup(Key32(2), out).ok());
  EXPECT_FALSE(map.view().Update(Key32(2), Value64(1)).ok());
}

TEST(MapHeaderTrust, ArrayValueWidenedPastItsSpanIsRefused) {
  EmbeddedMap map(MapSpec{"a", MapType::kArray, 4, 8, 4});
  map.SetHeaderWord(kMapOffValueSize, 64);
  Bytes value(64, 0xee);
  Bytes out(64);
  EXPECT_FALSE(map.view().Update(Key32(3), value).ok());
  EXPECT_FALSE(map.view().Lookup(Key32(3), out).ok());
  EXPECT_FALSE(map.view().Dump().ok());
  EXPECT_TRUE(map.TailUntouched());
}

TEST(MapHeaderTrust, ArrayKeysAreFourByteIndices) {
  Bytes raw(256, 0);
  EXPECT_FALSE(MapView(raw).Init(MapSpec{"a", MapType::kArray, 2, 8, 4}).ok());
  EXPECT_FALSE(MapView(raw).Init(MapSpec{"a", MapType::kArray, 8, 8, 4}).ok());
  // A header rewritten to 2-byte keys: a 2-byte key is never read as 4.
  EmbeddedMap map(MapSpec{"a", MapType::kArray, 4, 8, 4});
  map.SetHeaderWord(kMapOffKeySize, 2);
  const Bytes short_key(2, 0);
  Bytes out(8);
  EXPECT_FALSE(map.view().Lookup(short_key, out).ok());
  EXPECT_FALSE(map.view().Update(short_key, Value64(1)).ok());
  Bytes next(2);
  EXPECT_FALSE(map.view().NextKey({}, next).ok());
}

TEST(MapHeaderTrust, HashGrownPastItsSpanIsRefused) {
  EmbeddedMap map(MapSpec{"h", MapType::kHash, 4, 8, 4});
  ASSERT_TRUE(map.view().Update(Key32(1), Value64(1)).ok());
  map.SetHeaderWord(kMapOffMaxEntries, 1000);
  Bytes out(8);
  for (std::uint32_t k = 0; k < 64; ++k) {
    EXPECT_FALSE(map.view().Lookup(Key32(k), out).ok()) << k;
    EXPECT_FALSE(map.view().Update(Key32(k), Value64(~0ull)).ok()) << k;
  }
  EXPECT_FALSE(map.view().Dump().ok());
  EXPECT_TRUE(map.TailUntouched());
}

TEST(MapHeaderTrust, RingGrownPastItsSpanIsRefused) {
  EmbeddedMap map(MapSpec{"r", MapType::kRingBuf, 0, 8, 4});
  map.SetHeaderWord(kMapOffMaxEntries, 1000);
  EXPECT_FALSE(map.view().RingOutput(Bytes(200, 0xee)).ok());
  EXPECT_FALSE(map.view().RingConsume().ok());
  EXPECT_TRUE(map.TailUntouched());
}

TEST(MapHeaderTrust, RingCursorsAndRecordsAreChecked) {
  EmbeddedMap map(MapSpec{"r", MapType::kRingBuf, 0, 8, 4});
  ASSERT_TRUE(map.view().RingOutput(Bytes(8, 1)).ok());
  // A record length running past the data region.
  StoreLE<std::uint64_t>(map.buffer.data() + kMapHeaderBytes + 16, 4096);
  EXPECT_FALSE(map.view().RingConsume().ok());
  // A head further ahead of the tail than the data region holds.
  StoreLE<std::uint64_t>(map.buffer.data() + kRingHeadOffset, 1 << 20);
  EXPECT_FALSE(map.view().RingOutput(Bytes(8, 2)).ok());
  EXPECT_FALSE(map.view().RingConsume().ok());
  EXPECT_TRUE(map.TailUntouched());
}

// ---- hash maps ----

TEST(HashMap, InsertLookupDelete) {
  LocalMap map = MakeMap(MapType::kHash, 4, 8, 16);
  ASSERT_TRUE(map.view().Update(Key32(100), Value64(1)).ok());
  ASSERT_TRUE(map.view().Update(Key32(200), Value64(2)).ok());
  EXPECT_EQ(map.view().Used().value(), 2u);

  Bytes out(8);
  ASSERT_TRUE(map.view().Lookup(Key32(100), out).ok());
  EXPECT_EQ(LoadLE<std::uint64_t>(out.data()), 1u);

  ASSERT_TRUE(map.view().Delete(Key32(100)).ok());
  EXPECT_FALSE(map.view().Lookup(Key32(100), out).ok());
  EXPECT_EQ(map.view().Used().value(), 1u);
  // The other key survives.
  ASSERT_TRUE(map.view().Lookup(Key32(200), out).ok());
}

TEST(HashMap, MissingKeyIsNotFound) {
  LocalMap map = MakeMap(MapType::kHash, 4, 8, 16);
  Bytes out(8);
  auto status = map.view().Lookup(Key32(1), out);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(HashMap, OverwriteKeepsUsedCount) {
  LocalMap map = MakeMap(MapType::kHash, 4, 8, 16);
  ASSERT_TRUE(map.view().Update(Key32(7), Value64(1)).ok());
  ASSERT_TRUE(map.view().Update(Key32(7), Value64(2)).ok());
  EXPECT_EQ(map.view().Used().value(), 1u);
  Bytes out(8);
  ASSERT_TRUE(map.view().Lookup(Key32(7), out).ok());
  EXPECT_EQ(LoadLE<std::uint64_t>(out.data()), 2u);
}

TEST(HashMap, EnforcesMaxEntries) {
  LocalMap map = MakeMap(MapType::kHash, 4, 8, 4);
  for (std::uint32_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(map.view().Update(Key32(k), Value64(k)).ok());
  }
  EXPECT_EQ(map.view().Update(Key32(99), Value64(9)).code(),
            StatusCode::kResourceExhausted);
}

TEST(HashMap, TombstoneSlotsAreReusable) {
  LocalMap map = MakeMap(MapType::kHash, 4, 8, 4);
  for (std::uint32_t round = 0; round < 50; ++round) {
    ASSERT_TRUE(map.view().Update(Key32(round), Value64(round)).ok())
        << "round " << round;
    ASSERT_TRUE(map.view().Delete(Key32(round)).ok());
  }
  EXPECT_EQ(map.view().Used().value(), 0u);
}

TEST(HashMap, LookupSurvivesTombstonesInProbeChain) {
  LocalMap map = MakeMap(MapType::kHash, 4, 8, 8);
  // Insert several keys, delete some, then verify the rest remain
  // reachable even if their probe chains crossed deleted slots.
  for (std::uint32_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(map.view().Update(Key32(k), Value64(k * 10)).ok());
  }
  for (std::uint32_t k = 0; k < 8; k += 2) {
    ASSERT_TRUE(map.view().Delete(Key32(k)).ok());
  }
  Bytes out(8);
  for (std::uint32_t k = 1; k < 8; k += 2) {
    ASSERT_TRUE(map.view().Lookup(Key32(k), out).ok()) << "key " << k;
    EXPECT_EQ(LoadLE<std::uint64_t>(out.data()), k * 10);
  }
}

TEST(HashMap, WideKeysAndValues) {
  LocalMap map = MakeMap(MapType::kHash, 20, 40, 8);
  Bytes key(20);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = 0x40 + i;
  Bytes value(40, 0xab);
  ASSERT_TRUE(map.view().Update(key, value).ok());
  Bytes out(40);
  ASSERT_TRUE(map.view().Lookup(key, out).ok());
  EXPECT_EQ(out, value);
  // A key differing in the last byte is distinct.
  key[19] ^= 1;
  EXPECT_FALSE(map.view().Lookup(key, out).ok());
}

// Property test: the hash map agrees with std::unordered_map across a
// random operation sequence, for several geometries.
struct HashGeometryParam {
  std::uint32_t key_size;
  std::uint32_t value_size;
  std::uint32_t max_entries;
  std::uint64_t seed;
};

class HashMapProperty : public ::testing::TestWithParam<HashGeometryParam> {};

TEST_P(HashMapProperty, MatchesReferenceModel) {
  const auto& param = GetParam();
  LocalMap map = MakeMap(MapType::kHash, param.key_size, param.value_size,
                         param.max_entries);
  std::unordered_map<std::string, Bytes> reference;
  Rng rng(param.seed);

  auto make_key = [&](std::uint64_t id) {
    Bytes key(param.key_size, 0);
    StoreLE<std::uint32_t>(key.data(), static_cast<std::uint32_t>(id));
    return key;
  };

  for (int op = 0; op < 2000; ++op) {
    const std::uint64_t id = rng.NextBounded(param.max_entries * 2);
    Bytes key = make_key(id);
    const std::string ref_key(key.begin(), key.end());
    const double roll = rng.NextDouble();
    if (roll < 0.5) {  // update
      Bytes value(param.value_size);
      for (auto& b : value) {
        b = static_cast<std::uint8_t>(rng.NextBounded(256));
      }
      Status s = map.view().Update(key, value);
      if (reference.size() >= param.max_entries &&
          reference.count(ref_key) == 0) {
        EXPECT_FALSE(s.ok());
      } else {
        ASSERT_TRUE(s.ok());
        reference[ref_key] = value;
      }
    } else if (roll < 0.75) {  // delete
      Status s = map.view().Delete(key);
      EXPECT_EQ(s.ok(), reference.erase(ref_key) > 0);
    } else {  // lookup
      Bytes out(param.value_size);
      Status s = map.view().Lookup(key, out);
      auto it = reference.find(ref_key);
      ASSERT_EQ(s.ok(), it != reference.end());
      if (s.ok()) {
        EXPECT_EQ(out, it->second);
      }
    }
    ASSERT_EQ(map.view().Used().value(), reference.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, HashMapProperty,
    ::testing::Values(HashGeometryParam{4, 8, 16, 1},
                      HashGeometryParam{4, 8, 64, 2},
                      HashGeometryParam{8, 16, 32, 3},
                      HashGeometryParam{16, 4, 8, 4},
                      HashGeometryParam{5, 3, 40, 5},   // odd sizes
                      HashGeometryParam{4, 64, 128, 6}));

// ---- ring buffers ----

TEST(RingBuf, OutputConsumeRoundTrip) {
  LocalMap map = MakeMap(MapType::kRingBuf, 0, 32, 16);
  Bytes rec1 = {1, 2, 3};
  Bytes rec2 = {4, 5, 6, 7, 8};
  ASSERT_TRUE(map.view().RingOutput(rec1).ok());
  ASSERT_TRUE(map.view().RingOutput(rec2).ok());
  auto records = map.view().RingConsume();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0], rec1);
  EXPECT_EQ((*records)[1], rec2);
  // Consuming again yields nothing.
  EXPECT_TRUE(map.view().RingConsume()->empty());
}

TEST(RingBuf, FillsUpWithoutConsumer) {
  LocalMap map = MakeMap(MapType::kRingBuf, 0, 8, 4);
  Bytes rec(8, 0xcc);
  int accepted = 0;
  while (map.view().RingOutput(rec).ok()) ++accepted;
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 100);
  // Draining frees space.
  ASSERT_TRUE(map.view().RingConsume().ok());
  EXPECT_TRUE(map.view().RingOutput(rec).ok());
}

TEST(RingBuf, WrapsWithSkipMarker) {
  LocalMap map = MakeMap(MapType::kRingBuf, 0, 16, 8);
  // Interleave output/consume so the cursor wraps several times; payload
  // sizes chosen to land the wrap mid-buffer.
  Rng rng(5);
  std::uint64_t produced = 0, consumed = 0;
  for (int round = 0; round < 200; ++round) {
    Bytes rec(1 + rng.NextBounded(24));
    for (auto& b : rec) b = static_cast<std::uint8_t>(produced);
    if (map.view().RingOutput(rec).ok()) ++produced;
    if (round % 3 == 2) {
      auto records = map.view().RingConsume();
      ASSERT_TRUE(records.ok());
      consumed += records->size();
    }
  }
  consumed += map.view().RingConsume()->size();
  EXPECT_EQ(produced, consumed);
  EXPECT_GT(produced, 100u);
}

TEST(RingBuf, PreservesRecordContentAcrossWraps) {
  LocalMap map = MakeMap(MapType::kRingBuf, 0, 8, 8);
  std::uint64_t next_value = 0, expect_value = 0;
  for (int round = 0; round < 100; ++round) {
    Bytes rec(8);
    StoreLE(rec.data(), next_value);
    if (map.view().RingOutput(rec).ok()) ++next_value;
    auto records = map.view().RingConsume();
    ASSERT_TRUE(records.ok());
    for (const Bytes& r : *records) {
      ASSERT_EQ(r.size(), 8u);
      EXPECT_EQ(LoadLE<std::uint64_t>(r.data()), expect_value);
      ++expect_value;
    }
  }
  EXPECT_EQ(expect_value, next_value);
}

TEST(RingBuf, RejectsOversizedRecord) {
  LocalMap map = MakeMap(MapType::kRingBuf, 0, 8, 2);
  Bytes huge(1024, 0);
  EXPECT_FALSE(map.view().RingOutput(huge).ok());
}

TEST(RingBuf, LookupAndUpdateUnsupported) {
  LocalMap map = MakeMap(MapType::kRingBuf, 0, 8, 4);
  Bytes out(8);
  EXPECT_FALSE(map.view().Lookup(Key32(0), out).ok());
  EXPECT_FALSE(map.view().Update(Key32(0), Value64(0)).ok());
}

}  // namespace
}  // namespace rdx::bpf
