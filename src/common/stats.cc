#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace rdx {

void Summary::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Summary::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

std::string Summary::ToJson() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"count\": %llu, \"mean\": %.6g, \"min\": %.6g, "
                "\"max\": %.6g, \"stddev\": %.6g}",
                static_cast<unsigned long long>(count_), mean(), min(),
                max(), stddev());
  return buf;
}

Histogram::Histogram() : buckets_(64 << kSubBucketBits, 0) {}

std::size_t Histogram::BucketIndex(std::uint64_t value) {
  if (value < (1u << kSubBucketBits)) return static_cast<std::size_t>(value);
  const int msb = 63 - std::countl_zero(value);
  const int shift = msb - kSubBucketBits;
  const std::uint64_t sub = (value >> shift) & ((1u << kSubBucketBits) - 1);
  return static_cast<std::size_t>(
      ((msb - kSubBucketBits + 1) << kSubBucketBits) + sub);
}

std::uint64_t Histogram::BucketMidpoint(std::size_t index) {
  if (index < (1u << kSubBucketBits)) return index;
  const std::size_t octave = (index >> kSubBucketBits);
  const std::uint64_t sub = index & ((1u << kSubBucketBits) - 1);
  const int shift = static_cast<int>(octave) - 1;
  const std::uint64_t base =
      ((1ull << kSubBucketBits) + sub) << shift;
  const std::uint64_t width = 1ull << shift;
  return base + width / 2;
}

void Histogram::Add(std::uint64_t value) {
  if (count_ == 0) {
    min_ = value;
  } else {
    min_ = std::min(min_, value);
  }
  max_ = std::max(max_, value);
  ++count_;
  sum_ += static_cast<double>(value);
  std::size_t idx = BucketIndex(value);
  if (idx >= buckets_.size()) idx = buckets_.size() - 1;
  ++buckets_[idx];
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
  } else {
    min_ = std::min(min_, other.min_);
  }
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

std::uint64_t Histogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target && buckets_[i] > 0) {
      return std::clamp(BucketMidpoint(i), min_, max_);
    }
  }
  return max_;
}

std::string Histogram::ToJson() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "{\"count\": %llu, \"mean\": %.3f, \"min\": %llu, \"p50\": %llu, "
      "\"p90\": %llu, \"p99\": %llu, \"max\": %llu}",
      static_cast<unsigned long long>(count_), mean(),
      static_cast<unsigned long long>(min()),
      static_cast<unsigned long long>(Percentile(0.50)),
      static_cast<unsigned long long>(Percentile(0.90)),
      static_cast<unsigned long long>(Percentile(0.99)),
      static_cast<unsigned long long>(max_));
  return buf;
}

}  // namespace rdx
