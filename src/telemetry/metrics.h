// Pull-style metrics registry. Subsystems either expose raw counters that
// a capture helper here scrapes (fabric, cache model), or implement their
// own ExportMetrics(reg) when the state lives behind private members
// (sandbox, control plane, health monitor). The registry renders one
// stable-ordered JSON snapshot; histograms reuse common/stats.h.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/stats.h"
#include "rdma/fabric.h"
#include "sim/cache.h"
#include "telemetry/span.h"

namespace rdx::telemetry {

class MetricsRegistry {
 public:
  // Monotonic counters.
  void Count(const std::string& name, std::uint64_t delta = 1) {
    counters_[name] += delta;
  }
  void SetCounter(const std::string& name, std::uint64_t value) {
    counters_[name] = value;
  }
  std::uint64_t counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  // Point-in-time gauges.
  void SetGauge(const std::string& name, double value) {
    gauges_[name] = value;
  }
  double gauge(const std::string& name) const {
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
  }

  // Distributions. Hist() creates on first use so call sites can Add()
  // directly; SetHist() replaces wholesale (for merged snapshots).
  Histogram& Hist(const std::string& name) { return hists_[name]; }
  void SetHist(const std::string& name, const Histogram& h) {
    hists_[name] = h;
  }

  std::size_t counter_count() const { return counters_.size(); }

  // {"counters": {...}, "gauges": {...}, "histograms": {...}} with keys
  // in lexicographic order (std::map) so snapshots diff cleanly.
  std::string SnapshotJson() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> hists_;
};

// Scrapes the fabric's per-QP accounting into `reg`: per-QP op/failure/
// byte counters, per-opcode breakdown, post-to-completion latency
// histograms, and fabric-wide totals (including one merged latency
// histogram across all QPs).
void CaptureFabricMetrics(MetricsRegistry& reg, const rdma::Fabric& fabric);

// Scrapes the cache-coherence model's visibility-path counters.
void CaptureCacheMetrics(MetricsRegistry& reg, const sim::CacheModel& cache,
                         const std::string& prefix = "cache");

// Drops 'C' (counter-sample) events for the fabric totals and each QP's
// op count onto the timeline, so RDMA traffic shows up as counter tracks
// alongside the spans in the exported trace.
void EmitFabricCounterEvents(Tracer& tracer, const rdma::Fabric& fabric);

}  // namespace rdx::telemetry
