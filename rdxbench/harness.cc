#include "harness.h"

#include <algorithm>
#include <cmath>
#include <memory>

namespace rdxbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 finaliser over (seed, index): nearby seeds and indices give
  // unrelated streams.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Spans::Begin(Layer layer) {
  stack_.push_back({layer, HostClock::now(), events_->Now(), 0.0});
}

void Spans::End() {
  const Open open = stack_.back();
  stack_.pop_back();
  const double ns =
      std::chrono::duration<double, std::nano>(HostClock::now() - open.start)
          .count();
  Total& total = totals_[static_cast<int>(open.layer)];
  total.host_ns += ns;
  total.self_host_ns += ns - open.child_ns;
  total.virtual_ns +=
      static_cast<double>(events_->Now() - open.virtual_start);
  ++total.count;
  if (!stack_.empty()) stack_.back().child_ns += ns;
}

bool Loop::StepOnce() {
  bool stepped = false;
  {
    ScopedSpan span(spans_, Layer::kSim);
    stepped = events_.Step();
  }
  if (!stepped) return false;
  ++steps_;
  if (observers_.empty()) return true;
  ScopedSpan span(spans_, Layer::kHarness);
  notifying_ = true;
  for (std::size_t i = 0; i < observers_.size();) {
    if (observers_[i]()) {
      ++i;
    } else {
      observers_[i] = std::move(observers_.back());
      observers_.pop_back();
    }
  }
  notifying_ = false;
  for (auto& observer : added_) observers_.push_back(std::move(observer));
  added_.clear();
  return true;
}

void Loop::Observe(std::function<bool()> observer) {
  // An observer may register another; it joins after this pass so the
  // vector being iterated never reallocates under the running callback.
  (notifying_ ? added_ : observers_).push_back(std::move(observer));
}

bool Loop::RunUntilFlag(const bool& flag) {
  while (!flag) {
    if (!StepOnce()) return false;
  }
  return true;
}

void Loop::RunFor(rdx::sim::Duration span) {
  bool reached = false;
  events_.ScheduleAfter(span, [&reached] { reached = true; });
  RunUntilFlag(reached);
}

bool Loop::RunUntilDone(const std::function<bool()>& done,
                        rdx::sim::Duration limit) {
  // The deadline flag outlives this call: the event may still be queued
  // when `done` wins.
  auto expired = std::make_shared<bool>(false);
  events_.ScheduleAfter(limit, [expired] { *expired = true; });
  while (!done() && !*expired) {
    if (!StepOnce()) break;
  }
  return done();
}

}  // namespace rdxbench
