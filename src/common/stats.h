// Statistics collection used by the benchmark harnesses: streaming
// summary statistics and a log-bucketed latency histogram with percentile
// queries (HdrHistogram-style, coarse).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rdx {

// Streaming mean/min/max/variance (Welford).
class Summary {
 public:
  void Add(double x);
  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double variance() const;
  double stddev() const;

  // JSON object, e.g. {"count": 3, "mean": 1.5, "min": 1.0, "max": 2.0,
  // "stddev": 0.5} — consumed by the metrics registry snapshot.
  std::string ToJson() const;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Log-linear histogram over non-negative integer samples (e.g. latencies
// in nanoseconds). Each power-of-two range is split into 16 linear
// sub-buckets, giving <= ~6% relative quantile error — plenty for
// reproducing figure shapes.
class Histogram {
 public:
  Histogram();

  void Add(std::uint64_t value);
  void Merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  // q in [0, 1]; returns a representative value of the bucket containing
  // the q-quantile sample.
  std::uint64_t Percentile(double q) const;

  // JSON object with count/mean/min/p50/p90/p99/max — consumed by the
  // metrics registry snapshot.
  std::string ToJson() const;

 private:
  static constexpr int kSubBucketBits = 4;  // 16 sub-buckets per octave
  static std::size_t BucketIndex(std::uint64_t value);
  static std::uint64_t BucketMidpoint(std::size_t index);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace rdx
