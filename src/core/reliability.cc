#include "core/reliability.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/log.h"
#include "core/for_all.h"
#include "rdma/qp.h"

namespace rdx::core {

// One in-flight reliable deploy. Attempts are numbered; the deadline
// timer and late completions of a superseded attempt are filtered by
// comparing their sequence number against `attempt_seq`.
struct RecoveryManager::AttemptState {
  CodeFlow* flow = nullptr;
  int hook = 0;
  // Runs one injection; calls back with its verdict.
  std::function<void(std::function<void(Status)>)> attempt;
  DeployDone done;
  int max_retries = 0;
  // Generation this deploy is responsible for committing. Captured
  // before the first attempt so retry probes can tell "my commit
  // landed, only the acknowledgement was lost" from "not deployed".
  std::uint64_t target_version = 0;
  int attempts = 0;
  int reconnects = 0;
  bool adopted = false;
  bool finished = false;
  sim::SimTime t0 = 0;
  int attempt_seq = 0;
  sim::EventQueue::EventId deadline_id = 0;
};

template <class Source>
void RecoveryManager::DeployReliably(CodeFlow& flow, const Source& src,
                                     int hook, DeployDone done,
                                     int max_retries) {
  CodeFlow* f = &flow;
  ControlPlane& cp = cp_;
  Start(
      flow, hook,
      [f, &cp, src, hook](std::function<void(Status)> verdict) {
        cp.Inject(*f, src, hook,
                  [verdict = std::move(verdict)](StatusOr<InjectTrace> r) {
                    verdict(r.status());
                  });
      },
      std::move(done), max_retries);
}
template void RecoveryManager::DeployReliably(CodeFlow&, const bpf::Program&,
                                              int, DeployDone, int);
template void RecoveryManager::DeployReliably(CodeFlow&,
                                              const wasm::FilterModule&, int,
                                              DeployDone, int);

void RecoveryManager::Start(
    CodeFlow& flow, int hook,
    std::function<void(std::function<void(Status)>)> attempt, DeployDone done,
    int max_retries) {
  auto st = std::make_shared<AttemptState>();
  st->flow = &flow;
  st->hook = hook;
  st->attempt = std::move(attempt);
  st->done = std::move(done);
  st->max_retries = max_retries >= 0 ? max_retries : policy_.max_retries;
  st->target_version = flow.HookVersion(hook) + 1;
  st->t0 = cp_.events().Now();
  RunAttempt(std::move(st));
}

void RecoveryManager::RunAttempt(std::shared_ptr<AttemptState> st) {
  if (st->finished) return;
  ++st->attempts;
  const int seq = ++st->attempt_seq;
  st->deadline_id =
      cp_.events().ScheduleAfter(policy_.attempt_deadline, [this, st, seq] {
        if (st->finished || seq != st->attempt_seq) return;
        // Invalidate the in-flight attempt: its completion, if it ever
        // arrives, must not race the retry.
        ++st->attempt_seq;
        HandleFailure(st, Unavailable("deploy attempt timed out"));
      });
  st->attempt([this, st, seq](Status s) {
    if (st->finished || seq != st->attempt_seq) return;
    cp_.events().Cancel(st->deadline_id);
    if (s.ok()) {
      FinishOk(st);
    } else {
      HandleFailure(st, std::move(s));
    }
  });
}

void RecoveryManager::HandleFailure(std::shared_ptr<AttemptState> st,
                                    Status s) {
  if (st->finished) return;
  // Deterministic failures do not heal with time: a quarantined program
  // (kPermissionDenied), a malformed one (kInvalidArgument), or an
  // exhausted remote scratchpad (kScratchExhausted) would fail forever.
  // Abort immediately instead of burning the backoff schedule.
  if (s.code() == StatusCode::kScratchExhausted ||
      s.code() == StatusCode::kPermissionDenied ||
      s.code() == StatusCode::kInvalidArgument) {
    st->finished = true;
    RDX_DEBUG("recovery: hook %d on node %u non-retryable failure: %s",
              st->hook, st->flow->node(), s.message().c_str());
    st->done(std::move(s));
    return;
  }
  if (st->attempts > st->max_retries) {
    st->finished = true;
    RDX_DEBUG("recovery: hook %d on node %u gave up after %d attempts: %s",
              st->hook, st->flow->node(), st->attempts, s.message().c_str());
    st->done(std::move(s));
    return;
  }
  RDX_DEBUG("recovery: hook %d on node %u attempt %d failed (%s), recovering",
            st->hook, st->flow->node(), st->attempts, s.message().c_str());

  auto probe_then_backoff = [this, st] {
    if (st->finished) return;
    // Idempotency probe: did the failed attempt actually commit? If the
    // remote hook slot already carries our target generation, adopt it
    // rather than deploying the same version twice.
    cp_.ProbeHook(*st->flow, st->hook, [this,
                                       st](StatusOr<ControlPlane::HookProbe>
                                               probe) {
      if (st->finished) return;
      if (probe.ok() && probe.value().desc_addr != 0 &&
          probe.value().version == st->target_version) {
        auto& dep = st->flow->hooks_[st->hook];
        if (dep.desc_addr != 0 && dep.desc_addr != probe.value().desc_addr) {
          dep.desc_history.push_back(CodeFlow::PastImage{
              dep.desc_addr, dep.region_capacity + kImageDescBytes,
              dep.fingerprint});
        }
        dep.desc_addr = probe.value().desc_addr;
        // The image region behind the adopted desc is unknown; force the
        // next update onto a fresh transactional allocation.
        dep.image_addr = 0;
        dep.region_capacity = 0;
        dep.version = probe.value().version;
        st->adopted = true;
        RDX_DEBUG("recovery: hook %d on node %u adopted committed v%llu",
                  st->hook, st->flow->node(),
                  (unsigned long long)probe.value().version);
        // Data-plane visibility for the adopted commit (the original
        // attempt may have died before its flush).
        cp_.CcEvent(*st->flow, st->hook, [this, st](Status) {
          if (!st->finished) FinishOk(st);
        });
        return;
      }
      Backoff(st);
    });
  };

  rdma::QueuePair* qp = st->flow->qp;
  if (qp == nullptr || qp->state() != rdma::QpState::kRts) {
    ++st->reconnects;
    cp_.ReconnectCodeFlow(*st->flow,
                          [st, probe_then_backoff, this](Status rs) {
                            if (st->finished) return;
                            if (!rs.ok()) {
                              // Node still unreachable; keep backing off —
                              // the next failure reconnects again.
                              Backoff(st);
                              return;
                            }
                            probe_then_backoff();
                          });
    return;
  }
  probe_then_backoff();
}

void RecoveryManager::Backoff(std::shared_ptr<AttemptState> st) {
  if (st->finished) return;
  if (st->attempts > st->max_retries) {
    st->finished = true;
    st->done(Unavailable("deploy retries exhausted"));
    return;
  }
  cp_.events().ScheduleAfter(BackoffDelay(st->attempts),
                             [this, st] { RunAttempt(st); });
}

void RecoveryManager::FinishOk(std::shared_ptr<AttemptState> st) {
  st->finished = true;
  RecoveryOutcome out;
  out.attempts = st->attempts;
  out.reconnects = st->reconnects;
  out.adopted = st->adopted;
  out.version = st->flow->HookVersion(st->hook);
  out.elapsed = cp_.events().Now() - st->t0;
  st->done(std::move(out));
}

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
  // The closure self-references through a weak_ptr; pending events and
  // continuations hold the strong ref, so the loop frees itself on Stop.
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak = tick;
  *tick = [this, weak] {
    auto self = weak.lock();
    if (!running_ || !self) return;
    PollNow([this, self] {
      if (!running_) return;
      next_tick_ =
          cp_.events().ScheduleAfter(policy_.poll_period, [self] { (*self)(); });
    });
  };
  next_tick_ =
      cp_.events().ScheduleAfter(policy_.poll_period, [tick] { (*tick)(); });
}

void HealthMonitor::Stop() {
  if (!running_) return;
  running_ = false;
  cp_.events().Cancel(next_tick_);
}

void HealthMonitor::PollNow(std::function<void()> done) {
  ++polls_;
  ForAll(
      watched_.size(),
      [this](std::size_t i, std::function<void(Status)> flow_done) {
        PollFlow(watched_[i], [flow_done] { flow_done(OkStatus()); });
      },
      [done = std::move(done)](Status) {
        if (done) done();
      });
}

void HealthMonitor::PollFlow(WatchedFlow& wf, std::function<void()> done) {
  cp_.ReadHealthAll(
      *wf.flow,
      [this, &wf, done = std::move(done)](
          StatusOr<std::vector<HealthView>> views) mutable {
        if (!views.ok()) {
          // Unreachable node — liveness is the lease layer's problem,
          // not the guardrail monitor's.
          done();
          return;
        }
        if (wf.snapshots.size() < views->size()) {
          wf.snapshots.resize(views->size());
        }
        ForAll(
            views->size(),
            [&](std::size_t i, std::function<void(Status)> hook_done) {
              Inspect(wf, static_cast<int>(i), (*views)[i],
                      [hook_done] { hook_done(OkStatus()); });
            },
            [done = std::move(done)](Status) { done(); });
      });
}

void HealthMonitor::Inspect(WatchedFlow& wf, int hook, const HealthView& now,
                            std::function<void()> done) {
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
  if (reason.empty() || snap.quarantine_inflight) {
    done();
    return;
  }

  auto it = wf.flow->hooks_.find(hook);
  const std::uint64_t bad_desc =
      it == wf.flow->hooks_.end() ? 0 : it->second.desc_addr;
  if (bad_desc == 0) {
    // Nothing this control plane deployed there — record only.
    records_.push_back(QuarantineRecord{wf.flow->node(), hook, reason, 0, 0,
                                        false, cp_.events().Now()});
    done();
    return;
  }
  // Revert target: the last image that ever completed on this hook. If
  // the misbehaving image IS that image, detach outright.
  const std::uint64_t good_desc =
      now.last_good_desc == bad_desc ? 0 : now.last_good_desc;

  QuarantineRecord rec{wf.flow->node(), hook,     reason, bad_desc,
                       good_desc,       false, cp_.events().Now()};
  if (!policy_.auto_quarantine) {
    records_.push_back(std::move(rec));
    done();
    return;
  }
  snap.quarantine_inflight = true;
  RDX_DEBUG("guardrail: node %u hook %d %s -> quarantine (bad=%llx good=%llx)",
            wf.flow->node(), hook, reason.c_str(),
            (unsigned long long)bad_desc, (unsigned long long)good_desc);
  cp_.QuarantineHook(
      *wf.flow, hook, bad_desc, good_desc,
      [this, &wf, hook, rec = std::move(rec),
       done = std::move(done)](Status s) mutable {
        wf.snapshots[hook].quarantine_inflight = false;
        rec.quarantined = s.ok();
        records_.push_back(std::move(rec));
        done();
      });
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
