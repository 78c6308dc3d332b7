#include "core/reliability.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/log.h"
#include "core/for_all.h"
#include "rdma/qp.h"

namespace rdx::core {

template <class Source>
sim::Task<Status> RecoveryManager::Attempt(CodeFlow& flow, const Source& src,
                                           int hook) {
  co_return co_await sim::Await<Status>([&](auto verdict) {
    const sim::EventQueue::EventId deadline = cp_.events().ScheduleAfter(
        policy_.attempt_deadline,
        [verdict] { verdict(Unavailable("deploy attempt timed out")); });
    sim::Start(cp_.Inject(flow, src, hook),
               [this, deadline, verdict](StatusOr<InjectTrace> r) {
                 cp_.events().Cancel(deadline);
                 verdict(r.status());
               });
  });
}

template <class Source>
sim::Task<StatusOr<RecoveryOutcome>> RecoveryManager::DeployReliably(
    CodeFlow& flow, Source src, int hook, int max_retries) {
  if (max_retries < 0) max_retries = policy_.max_retries;
  // Generation this deploy is responsible for committing. Captured before
  // the first attempt so retry probes can tell "my commit landed, only the
  // acknowledgement was lost" from "not deployed".
  const std::uint64_t target_version = flow.HookVersion(hook) + 1;
  const sim::SimTime t0 = cp_.events().Now();
  RecoveryOutcome out;
  for (out.attempts = 1;; ++out.attempts) {
    const Status s = co_await Attempt(flow, src, hook);
    if (s.ok()) break;
    // Deterministic failures do not heal with time: a quarantined program
    // (kPermissionDenied), a malformed one (kInvalidArgument), or an
    // exhausted remote scratchpad (kScratchExhausted) would fail forever.
    // Abort immediately instead of burning the backoff schedule.
    if (s.code() == StatusCode::kScratchExhausted ||
        s.code() == StatusCode::kPermissionDenied ||
        s.code() == StatusCode::kInvalidArgument) {
      RDX_DEBUG("recovery: hook %d on node %u non-retryable failure: %s",
                hook, flow.node(), s.message().c_str());
      co_return s;
    }
    if (out.attempts > max_retries) {
      RDX_DEBUG("recovery: hook %d on node %u gave up after %d attempts: %s",
                hook, flow.node(), out.attempts, s.message().c_str());
      co_return s;
    }
    RDX_DEBUG("recovery: hook %d on node %u attempt %d failed (%s), recovering",
              hook, flow.node(), out.attempts, s.message().c_str());

    rdma::QueuePair* qp = flow.qp;
    bool reachable = true;
    if (qp == nullptr || qp->state() != rdma::QpState::kRts) {
      ++out.reconnects;
      // A node still unreachable keeps backing off; the next failure
      // reconnects again.
      const Status reconnected = co_await cp_.ReconnectCodeFlow(flow);
      reachable = reconnected.ok();
    }
    if (reachable) {
      // Idempotency probe: did the failed attempt actually commit? If the
      // remote hook slot already carries our target generation, adopt it
      // rather than deploying the same version twice.
      const StatusOr<ControlPlane::HookProbe> probe =
          co_await cp_.ProbeHook(flow, hook);
      if (probe.ok() && probe->desc_addr != 0 &&
          probe->version == target_version) {
        auto& dep = flow.hooks_[hook];
        if (dep.desc_addr != 0 && dep.desc_addr != probe->desc_addr) {
          dep.desc_history.push_back(dep);
        }
        // The image region behind the adopted desc is unknown: the next
        // update takes a fresh transactional allocation, and the region is
        // never reused.
        static_cast<CodeFlow::ImageRegion&>(dep) = {probe->desc_addr, 0, 0,
                                                    dep.fingerprint};
        dep.version = probe->version;
        out.adopted = true;
        RDX_DEBUG("recovery: hook %d on node %u adopted committed v%llu",
                  hook, flow.node(), (unsigned long long)probe->version);
        // Data-plane visibility for the adopted commit (the original
        // attempt may have died before its flush).
        (void)co_await cp_.CcEvent(flow, hook);
        break;
      }
    }
    co_await sim::Sleep(cp_.events(), BackoffDelay(out.attempts));
  }
  out.version = flow.HookVersion(hook);
  out.elapsed = cp_.events().Now() - t0;
  co_return out;
}
template sim::Task<StatusOr<RecoveryOutcome>> RecoveryManager::DeployReliably(
    CodeFlow&, bpf::Program, int, int);
template sim::Task<StatusOr<RecoveryOutcome>> RecoveryManager::DeployReliably(
    CodeFlow&, wasm::FilterModule, int, int);

sim::Duration RecoveryManager::BackoffDelay(int attempt) {
  double delay = static_cast<double>(policy_.base_backoff) *
                 std::pow(policy_.backoff_multiplier, attempt - 1);
  // Deterministic jitter: scale by [1-j, 1+j) from the seeded stream.
  delay *= 1.0 + policy_.jitter * (2.0 * rng_.NextDouble() - 1.0);
  return static_cast<sim::Duration>(std::max(delay, 1.0));
}

// ---- HealthMonitor -------------------------------------------------------

void HealthMonitor::Watch(CodeFlow& flow) {
  WatchedFlow wf;
  wf.flow = &flow;
  wf.snapshots.assign(flow.remote_view().hook_count, HookSnapshot{});
  watched_.push_back(std::move(wf));
}

void HealthMonitor::Start() {
  if (running_) return;
  running_ = true;
  sim::Start(Tick(), [] {});
}

sim::Task<void> HealthMonitor::Tick() {
  while (running_) {
    // Stop cancels this event, and with it the loop.
    co_await sim::Await<void>([this](auto tick) {
      next_tick_ =
          cp_.events().ScheduleAfter(policy_.poll_period, std::move(tick));
    });
    if (!running_) break;
    co_await PollNow();
  }
}

void HealthMonitor::Stop() {
  if (!running_) return;
  running_ = false;
  cp_.events().Cancel(next_tick_);
}

sim::Task<void> HealthMonitor::PollNow() {
  ++polls_;
  auto poll = [&](std::size_t i) { return PollFlow(watched_[i]); };
  (void)co_await ForAll(watched_.size(), poll);
}

sim::Task<Status> HealthMonitor::PollFlow(WatchedFlow& wf) {
  const StatusOr<std::vector<HealthView>> views =
      co_await cp_.ReadHealthAll(*wf.flow);
  // Unreachable node — liveness is the lease layer's problem, not the
  // guardrail monitor's.
  if (!views.ok()) co_return OkStatus();
  if (wf.snapshots.size() < views->size()) {
    wf.snapshots.resize(views->size());
  }
  auto inspect = [&](std::size_t i) {
    return Inspect(wf, static_cast<int>(i), (*views)[i]);
  };
  co_return co_await ForAll(views->size(), inspect);
}

sim::Task<Status> HealthMonitor::Inspect(WatchedFlow& wf, int hook,
                                         const HealthView& now) {
  HookSnapshot& snap = wf.snapshots[hook];
  const HealthView last = snap.last;
  snap.last = now;
  const std::uint64_t d_traps = now.traps - last.traps;
  const std::uint64_t d_fuel = now.fuel_exhaustions - last.fuel_exhaustions;
  const std::uint64_t d_failsafe =
      now.failsafe_detaches - last.failsafe_detaches;
  // The consecutive counter alone is not evidence: it can sit stale above
  // the threshold after a quarantine already fixed the hook. Require
  // failure *progress* within this poll interval.
  const bool fresh_failures = d_traps > 0 || d_fuel > 0;

  std::string reason;
  if (d_failsafe > 0) {
    reason = "local fail-safe fired";
  } else if (fresh_failures &&
             now.consecutive_failures >= policy_.consecutive_threshold) {
    reason = "crash-loop";
  } else if (d_traps >= policy_.trap_delta_threshold) {
    reason = "trap storm";
  } else if (d_fuel >= policy_.fuel_delta_threshold) {
    reason = "fuel exhaustion storm";
  }
  if (reason.empty() || snap.quarantine_inflight) co_return OkStatus();

  auto it = wf.flow->hooks_.find(hook);
  const std::uint64_t bad_desc =
      it == wf.flow->hooks_.end() ? 0 : it->second.desc_addr;
  if (bad_desc == 0) {
    // Nothing this control plane deployed there — record only.
    records_.push_back(QuarantineRecord{wf.flow->node(), hook, reason, 0, 0,
                                        false, cp_.events().Now()});
    co_return OkStatus();
  }
  // Revert target: the last image that ever completed on this hook. If
  // the misbehaving image IS that image, detach outright.
  const std::uint64_t good_desc =
      now.last_good_desc == bad_desc ? 0 : now.last_good_desc;

  QuarantineRecord rec{wf.flow->node(), hook,     reason, bad_desc,
                       good_desc,       false, cp_.events().Now()};
  if (!policy_.auto_quarantine) {
    records_.push_back(std::move(rec));
    co_return OkStatus();
  }
  snap.quarantine_inflight = true;
  RDX_DEBUG("guardrail: node %u hook %d %s -> quarantine (bad=%llx good=%llx)",
            wf.flow->node(), hook, reason.c_str(),
            (unsigned long long)bad_desc, (unsigned long long)good_desc);
  const Status s = co_await cp_.QuarantineHook(*wf.flow, hook, bad_desc,
                                               good_desc);
  wf.snapshots[hook].quarantine_inflight = false;
  rec.quarantined = s.ok();
  records_.push_back(std::move(rec));
  co_return OkStatus();
}

void HealthMonitor::ExportMetrics(telemetry::MetricsRegistry& reg) const {
  reg.SetCounter("monitor.polls", polls_);
  reg.SetCounter("monitor.detections", records_.size());
  std::uint64_t quarantines = 0;
  for (const QuarantineRecord& rec : records_) {
    if (rec.quarantined) ++quarantines;
  }
  reg.SetCounter("monitor.quarantines", quarantines);
  reg.SetCounter("monitor.watched_flows", watched_.size());
  // Last harvested snapshot of every watched hook — the monitor's RDMA
  // view of the remote HealthBlocks, which may lag the sandbox's own
  // (local) counters by up to one poll period.
  char key[96];
  for (const WatchedFlow& wf : watched_) {
    const unsigned node = wf.flow->node();
    for (std::size_t h = 0; h < wf.snapshots.size(); ++h) {
      const HealthView& hv = wf.snapshots[h].last;
      if (hv.executions == 0 && hv.traps == 0 && hv.fuel_exhaustions == 0 &&
          hv.failsafe_detaches == 0) {
        continue;
      }
      std::snprintf(key, sizeof(key), "health.node%u.hook%zu.executions",
                    node, h);
      reg.SetCounter(key, hv.executions);
      std::snprintf(key, sizeof(key), "health.node%u.hook%zu.traps", node, h);
      reg.SetCounter(key, hv.traps);
      std::snprintf(key, sizeof(key),
                    "health.node%u.hook%zu.fuel_exhaustions", node, h);
      reg.SetCounter(key, hv.fuel_exhaustions);
      std::snprintf(key, sizeof(key),
                    "health.node%u.hook%zu.failsafe_detaches", node, h);
      reg.SetCounter(key, hv.failsafe_detaches);
    }
  }
}

}  // namespace rdx::core
