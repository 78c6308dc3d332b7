// Unit tests for the common vocabulary: Status/StatusOr, deterministic
// RNG, statistics, and byte utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <string_view>
#include <utility>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"

namespace rdx {
namespace {

// ---- Status ----

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  EXPECT_EQ(InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ResourceExhausted("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(PermissionDenied("x").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(Aborted("x").code(), StatusCode::kAborted);
  EXPECT_EQ(Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Internal("boom").message(), "boom");
  EXPECT_EQ(Internal("boom").ToString(), "INTERNAL: boom");
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(NotFound("a"), NotFound("a"));
  EXPECT_FALSE(NotFound("a") == NotFound("b"));
  EXPECT_FALSE(NotFound("a") == Internal("a"));
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v(NotFound("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOr, MoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(7));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> taken = std::move(v).value();
  EXPECT_EQ(*taken, 7);
}

StatusOr<int> Half(int n) {
  if (n % 2 != 0) return InvalidArgument("odd");
  return n / 2;
}

Status UseHalf(int n, int& out) {
  RDX_ASSIGN_OR_RETURN(out, Half(n));
  return OkStatus();
}

TEST(StatusOr, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(8, out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_EQ(UseHalf(7, out).code(), StatusCode::kInvalidArgument);
}

// ---- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += rng.NextExponential(250.0);
  EXPECT_NEAR(sum / kN, 250.0, 10.0);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(13);
  int low = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    if (rng.NextZipf(1000, 0.99) < 10) ++low;
  }
  // With skew 0.99 the top-1% of keys should absorb far more than 1%.
  EXPECT_GT(low, kN / 10);
}

TEST(Rng, ZipfZeroSkewIsRoughlyUniform) {
  Rng rng(13);
  int low = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    if (rng.NextZipf(1000, 0.0) < 10) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / kN, 0.01, 0.01);
}

// ---- Summary / Histogram ----

TEST(Summary, TracksMoments) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-9);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Histogram, ExactForSmallValues) {
  Histogram h;
  for (std::uint64_t v = 0; v < 16; ++v) h.Add(v);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 15u);
  EXPECT_EQ(h.Percentile(1.0), 15u);
}

TEST(Histogram, PercentileWithinRelativeError) {
  Histogram h;
  Rng rng(3);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = rng.NextBounded(1'000'000) + 1;
    values.push_back(v);
    h.Add(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const std::uint64_t exact =
        values[static_cast<std::size_t>(q * (values.size() - 1))];
    const std::uint64_t approx = h.Percentile(q);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                static_cast<double>(exact) * 0.10)
        << "q=" << q;
  }
}

TEST(Histogram, MergeCombinesPopulations) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.Add(10);
  for (int i = 0; i < 100; ++i) b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_LT(a.Percentile(0.25), 20u);
  EXPECT_GT(a.Percentile(0.75), 900u);
}

TEST(Histogram, MeanMatchesSum) {
  Histogram h;
  h.Add(10);
  h.Add(20);
  h.Add(30);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

// ---- bytes ----

TEST(Bytes, LoadStoreRoundTrip) {
  std::uint8_t buf[8];
  StoreLE<std::uint32_t>(buf, 0xdeadbeef);
  EXPECT_EQ(LoadLE<std::uint32_t>(buf), 0xdeadbeefu);
  StoreLE<std::uint64_t>(buf, 0x0123456789abcdefull);
  EXPECT_EQ(LoadLE<std::uint64_t>(buf), 0x0123456789abcdefull);
}

TEST(Bytes, StoreIsLittleEndian) {
  std::uint8_t buf[4];
  StoreLE<std::uint32_t>(buf, 0x11223344);
  EXPECT_EQ(buf[0], 0x44);
  EXPECT_EQ(buf[3], 0x11);
}

TEST(Bytes, AppendGrowsBuffer) {
  Bytes out;
  AppendLE<std::uint16_t>(out, 0xaabb);
  AppendLE<std::uint32_t>(out, 0x11223344);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(LoadLE<std::uint16_t>(out.data()), 0xaabbu);
  EXPECT_EQ(LoadLE<std::uint32_t>(out.data() + 2), 0x11223344u);
}

TEST(Bytes, Fnv1aMatchesKnownVector) {
  // FNV-1a("a") = 0xaf63dc4c8601ec8c
  const std::uint8_t a[] = {'a'};
  EXPECT_EQ(Fnv1a64(a), 0xaf63dc4c8601ec8cull);
  // Empty input hashes to the offset basis.
  EXPECT_EQ(Fnv1a64(ByteSpan{}), 0xcbf29ce484222325ull);
}

TEST(Bytes, ImageHashMatchesPublishedXxh64Values) {
  auto hash = [](std::string_view s) {
    return ImageHash(
        {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  };
  EXPECT_EQ(hash(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(hash("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(hash("abc"), 0x44bc2cf5ad770999ull);
  // 39 bytes: one 32-byte stripe through the four lanes, then a 4-byte
  // and three 1-byte tail steps.
  EXPECT_EQ(hash("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ull);
}

// Every single-bit flip changes the hash at every length up to 80 bytes:
// each tail length (0-7 past a word), the 32-byte switch to four lanes,
// and each lane of two full stripes. Zero-filled inputs of different
// lengths hash apart too, since the length is folded in.
TEST(Bytes, ImageHashSeesEverySingleBitFlip) {
  std::uint64_t previous_zeros = 0;
  for (std::size_t len = 0; len <= 80; ++len) {
    Bytes data(len);
    for (std::size_t i = 0; i < len; ++i) {
      data[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    const std::uint64_t base = ImageHash(data);
    for (std::size_t bit = 0; bit < len * 8; ++bit) {
      data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_NE(ImageHash(data), base) << "length " << len << " bit " << bit;
      data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    const std::uint64_t zeros = ImageHash(Bytes(len, 0));
    if (len > 0) {
      EXPECT_NE(zeros, previous_zeros) << "length " << len;
    }
    previous_zeros = zeros;
  }
}

TEST(Stats, SummaryToJsonCarriesAllFields) {
  Summary s;
  s.Add(1.0);
  s.Add(2.0);
  s.Add(3.0);
  const std::string json = s.ToJson();
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mean\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"min\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"stddev\": 1"), std::string::npos) << json;
}

TEST(Stats, HistogramToJsonCarriesPercentiles) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.Add(v);
  const std::string json = h.ToJson();
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos) << json;
  for (const char* key : {"\"mean\"", "\"min\"", "\"p50\"", "\"p90\"",
                          "\"p99\"", "\"max\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << json;
  }
}

TEST(Stats, HistogramMergePreservesSmallerMin) {
  // Regression guard: merging a histogram whose min is larger must not
  // clobber the destination's smaller min (and vice versa).
  Histogram small;
  small.Add(5);
  Histogram large;
  large.Add(1000);
  small.Merge(large);
  EXPECT_EQ(small.count(), 2u);
  EXPECT_EQ(small.min(), 5u);
  EXPECT_EQ(small.max(), 1000u);

  Histogram other;
  other.Add(2000);
  other.Merge(small);
  EXPECT_EQ(other.min(), 5u);
  EXPECT_EQ(other.max(), 2000u);

  // Merging an empty histogram changes nothing.
  Histogram empty;
  const std::string before = other.ToJson();
  other.Merge(empty);
  EXPECT_EQ(other.min(), 5u);
  EXPECT_EQ(other.ToJson(), before);
  Histogram into_empty;
  into_empty.Merge(small);
  EXPECT_EQ(into_empty.min(), 5u);
  EXPECT_EQ(into_empty.count(), 2u);
  EXPECT_EQ(into_empty.ToJson(), small.ToJson());
  EXPECT_EQ(into_empty.Percentile(0.99), small.Percentile(0.99));
}

// A histogram holds no buckets until its first sample; empty, it reads
// the same whether just made, merged with another empty one, or moved
// out of (the state TakeMetrics leaves behind).
TEST(Stats, EmptyHistogramReadsZero) {
  const std::string zero =
      "{\"count\": 0, \"mean\": 0.000, \"min\": 0, \"p50\": 0, "
      "\"p90\": 0, \"p99\": 0, \"max\": 0}";
  Histogram fresh;
  EXPECT_EQ(fresh.count(), 0u);
  EXPECT_EQ(fresh.Percentile(0.5), 0u);
  EXPECT_EQ(fresh.Percentile(1.0), 0u);
  EXPECT_EQ(fresh.ToJson(), zero);
  fresh.Merge(Histogram{});
  EXPECT_EQ(fresh.ToJson(), zero);

  Histogram used;
  used.Add(70);
  Histogram taken = std::exchange(used, Histogram{});
  EXPECT_EQ(used.ToJson(), zero);
  EXPECT_EQ(taken.count(), 1u);
  // And it fills from there as a new one does.
  used.Add(7);
  EXPECT_EQ(used.count(), 1u);
  EXPECT_EQ(used.Percentile(0.5), 7u);
  EXPECT_EQ(used.min(), 7u);
}

TEST(Bytes, FnvSensitiveToEveryByte) {
  Bytes data(64, 0);
  const std::uint64_t base = Fnv1a64(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 1;
    EXPECT_NE(Fnv1a64(data), base) << "byte " << i;
    data[i] = 0;
  }
}

TEST(Bytes, ToHex) {
  const std::uint8_t data[] = {0xde, 0xad, 0x00, 0x0f};
  EXPECT_EQ(ToHex(data), "dead000f");
  EXPECT_EQ(ToHex(ByteSpan{}), "");
}

}  // namespace
}  // namespace rdx
