#include "rdma/fabric.h"

#include <algorithm>

#include "common/log.h"

namespace rdx::rdma {

const char* WcStatusName(WcStatus status) {
  switch (status) {
    case WcStatus::kSuccess: return "SUCCESS";
    case WcStatus::kLocalProtectionError: return "LOCAL_PROTECTION_ERROR";
    case WcStatus::kRemoteAccessError: return "REMOTE_ACCESS_ERROR";
    case WcStatus::kRemoteInvalidRequest: return "REMOTE_INVALID_REQUEST";
    case WcStatus::kWorkRequestFlushed: return "WORK_REQUEST_FLUSHED";
    case WcStatus::kRetryExceeded: return "RETRY_EXCEEDED";
  }
  return "UNKNOWN";
}

Status QueuePair::PostSend(const SendWr& wr) {
  return PostSendChain(std::span<const SendWr>(&wr, 1));
}

Status QueuePair::PostSendChain(std::span<const SendWr> wrs) {
  if (state_ == QpState::kError) {
    // Flushed immediately, as a real RC QP would.
    for (const SendWr& wr : wrs) {
      WorkCompletion wc;
      wc.wr_id = wr.wr_id;
      wc.status = WcStatus::kWorkRequestFlushed;
      wc.opcode = wr.opcode;
      wc.qp_num = num_;
      send_cq_.Push(wc);
    }
    return FailedPrecondition("QP in error state");
  }
  if (state_ != QpState::kRts) {
    return FailedPrecondition("QP not ready to send");
  }
  if (wrs.empty()) return OkStatus();
  for (const SendWr& wr : wrs) {
    if (wr.send_inline &&
        (wr.opcode == Opcode::kWrite || wr.opcode == Opcode::kSend) &&
        wr.local.length > fabric_.link().max_inline_data) {
      return InvalidArgument("inline payload exceeds max_inline_data");
    }
  }
  if (signal_period_ <= 1 || wrs.size() == 1) {
    fabric_.ExecuteChain(*this, wrs);
    return OkStatus();
  }
  // Selective signaling: within the chain, WRITEs signal only every
  // `signal_period_`-th WR. Data-returning ops (READ/atomics) and SENDs
  // keep their caller-set flag — their consumers need the completion.
  // The tail is always signaled so the poster can learn the chain
  // retired; failed WRs signal regardless of the flag (see Complete).
  std::vector<SendWr> rewritten(wrs.begin(), wrs.end());
  std::uint32_t unsignaled_run = 0;
  for (std::size_t i = 0; i + 1 < rewritten.size(); ++i) {
    SendWr& wr = rewritten[i];
    if (wr.opcode != Opcode::kWrite) continue;
    if (++unsignaled_run >= signal_period_) {
      wr.signaled = true;
      unsignaled_run = 0;
    } else {
      wr.signaled = false;
    }
  }
  rewritten.back().signaled = true;
  fabric_.ExecuteChain(*this, rewritten);
  return OkStatus();
}

Status QueuePair::PostRecv(const RecvWr& wr) {
  if (state_ == QpState::kError) {
    return FailedPrecondition("QP in error state");
  }
  recv_queue_.push_back(wr);
  return OkStatus();
}

Node& Fabric::AddNode(std::string name, std::uint64_t memory_bytes) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(id, std::move(name), memory_bytes));
  Node& n = *nodes_.back();
  // Deregistering an MR shoots down any cached translation of its keys
  // (the RNIC must not honor a stale MTT entry after dereg).
  n.memory_.SetDeregisterHook([this, id](MemoryKey lkey, MemoryKey rkey) {
    InvalidateMtt(id, lkey);
    InvalidateMtt(id, rkey);
  });
  return n;
}

void Fabric::InvalidateMtt(NodeId node, MemoryKey key) {
  // Both lkey and rkey translations of a node's memory live in the caches
  // of QPs hosted on that node (requester role caches lkeys, responder
  // role caches rkeys).
  for (auto& qp : nodes_.at(node)->qps_) {
    auto it = qp_mtt_.find(qp->num());
    if (it != qp_mtt_.end()) it->second.Invalidate(key);
  }
}

MttCache& Fabric::MttFor(QpNum num) {
  auto it = qp_mtt_.find(num);
  if (it == qp_mtt_.end()) {
    it = qp_mtt_.emplace(num, MttCache(link_.mtt_cache_entries)).first;
  }
  return it->second;
}

std::uint64_t Fabric::mtt_hits() const {
  std::uint64_t total = 0;
  for (const auto& [num, cache] : qp_mtt_) total += cache.hits();
  return total;
}

std::uint64_t Fabric::mtt_misses() const {
  std::uint64_t total = 0;
  for (const auto& [num, cache] : qp_mtt_) total += cache.misses();
  return total;
}

std::uint64_t Fabric::mtt_invalidations() const {
  std::uint64_t total = 0;
  for (const auto& [num, cache] : qp_mtt_) total += cache.invalidations();
  return total;
}

CompletionQueue& Fabric::CreateCq(NodeId node, std::uint32_t capacity) {
  auto& n = *nodes_.at(node);
  n.cqs_.push_back(std::make_unique<CompletionQueue>(capacity));
  return *n.cqs_.back();
}

QueuePair& Fabric::CreateQp(NodeId node, CompletionQueue& send_cq,
                            CompletionQueue& recv_cq) {
  auto& n = *nodes_.at(node);
  n.qps_.push_back(std::make_unique<QueuePair>(*this, node, next_qp_num_++,
                                               send_cq, recv_cq));
  return *n.qps_.back();
}

Status Fabric::Connect(QueuePair& a, QueuePair& b) {
  if (a.state() != QpState::kInit || b.state() != QpState::kInit) {
    return FailedPrecondition("QP already connected");
  }
  a.SetConnected(b.node(), b.num());
  b.SetConnected(a.node(), a.num());
  return OkStatus();
}

std::vector<QueuePair*> Fabric::QpsTouching(NodeId node) {
  std::vector<QueuePair*> out;
  for (auto& n : nodes_) {
    for (auto& qp : n->qps_) {
      if (qp->node() == node || qp->remote_node() == node) {
        out.push_back(qp.get());
      }
    }
  }
  return out;
}

namespace {
// Wire sizes: one-sided WRITE/SEND carry the payload outbound; READ
// carries the payload on the response; atomics are header-sized.
constexpr std::size_t kHeaderBytes = 64;

std::size_t OutboundBytes(const SendWr& wr) {
  switch (wr.opcode) {
    case Opcode::kWrite:
    case Opcode::kSend:
      return kHeaderBytes + wr.local.length;
    default:
      return kHeaderBytes;
  }
}

std::size_t ResponseBytes(const SendWr& wr) {
  switch (wr.opcode) {
    case Opcode::kRead:
      return kHeaderBytes + wr.local.length;
    case Opcode::kCompareSwap:
    case Opcode::kFetchAdd:
      return kHeaderBytes + 8;
    default:
      return kHeaderBytes;  // ACK
  }
}

// How long the requester NIC keeps retransmitting before it gives up and
// reports RETRY_EXCEEDED (≈ retry_cnt × local ACK timeout on real HCAs).
constexpr sim::Duration kRetryExceededDelay = sim::Micros(30);
}  // namespace

void Fabric::ExecuteChain(QueuePair& qp, std::span<const SendWr> wrs) {
  ++doorbells_rung_;
  if (wrs.size() > 1) chained_wrs_ += wrs.size();
  QpTiming& timing = qp_timing_[qp.num()];
  // One doorbell for the whole chain, then the NIC walks the linked
  // list: a descriptor fetch per WQE before it can be serialized, and
  // WQE i+1's processing cannot start before WQE i's finished (single
  // per-QP processing pipeline, tracked by nic_free).
  const sim::SimTime base =
      std::max(events_.Now(), timing.nic_free) + link_.doorbell_latency;
  for (std::size_t i = 0; i < wrs.size(); ++i) {
    const sim::SimTime fetched = base + static_cast<sim::Duration>(i + 1) *
                                            link_.wqe_fetch_latency;
    const sim::SimTime ready = std::max(fetched, timing.nic_free);
    ExecuteOne(qp, wrs[i], ready);
  }
}

void Fabric::ExecuteOne(QueuePair& qp, const SendWr& wr,
                        sim::SimTime nic_ready) {
  // Local gather validation happens at post time. Inline payloads are
  // copied into the WQE by the CPU (no MR lookup, only bounds apply);
  // everything else is gathered by the RNIC via DMA against the lkey.
  Node& local = *nodes_.at(qp.node());
  OpOutcome preflight;

  const bool is_payload_op =
      wr.opcode == Opcode::kWrite || wr.opcode == Opcode::kSend;
  const bool is_inline = wr.send_inline && is_payload_op &&
                         wr.local.length <= link_.max_inline_data;

  // The gather is checked before anything is copied, so the payload is
  // built from its source in one copy.
  Bytes payload;
  if (is_payload_op) {
    const StatusOr<ByteSpan> source =
        is_inline ? local.memory().ReadSpan(wr.local.addr, wr.local.length)
                  : local.memory().DmaReadSpan(wr.local.lkey, /*remote=*/false,
                                               wr.local.addr, wr.local.length);
    if (!source.ok()) {
      preflight.status = WcStatus::kLocalProtectionError;
      Complete(qp, wr, preflight, events_.Now());
      return;
    }
    payload.assign(source->begin(), source->end());
  }

  // Fault hook: the injector may lose the packet, stretch the wire, or
  // flip payload bytes before the NIC serializes them.
  FaultHook::WireFault fault;
  if (fault_hook_ != nullptr) {
    fault = fault_hook_->OnExecute(qp, wr, &payload);
  }

  // Timing: the sender NIC serializes the payload onto the wire
  // (store-and-forward), the remote effect applies after propagation, and
  // RC ordering clamps both arrival and completion to post order.
  QpTiming& timing = qp_timing_[qp.num()];
  const sim::SimTime now = events_.Now();
  // The WQE is NIC-visible at `nic_ready` (doorbell ring + descriptor
  // fetches, chain-amortized by the caller); per-WQE processing then
  // adds the local MTT translation and, for non-inline payloads, the
  // payload DMA fetch from host memory. Inline payloads skip both — the
  // data already rode the descriptor.
  sim::Duration nic_extra = 0;
  if (is_inline) {
    ++inline_wrs_;
    ++qp_stats_[qp.num()].inline_wrs;
  } else if (wr.local.length > 0) {
    nic_extra += MttFor(qp.num()).Lookup(wr.local.lkey)
                     ? link_.mtt_hit_latency
                     : link_.mtt_miss_latency;
    if (is_payload_op) nic_extra += link_.payload_fetch_latency;
  }
  const sim::SimTime ready = nic_ready + nic_extra;
  timing.nic_free = std::max(timing.nic_free, ready);

  if (fault.drop) {
    // Lost on the wire: retransmits burn down the retry budget, then the
    // requester reports RETRY_EXCEEDED. Completion order still holds,
    // and the error CQE pays its write-back like any other.
    const sim::SimTime completion =
        std::max(ready + kRetryExceededDelay, timing.last_completion) +
        link_.cqe_write_latency;
    timing.last_completion = completion;
    events_.ScheduleAt(completion, [this, &qp, wr, now]() {
      OpOutcome dropped;
      dropped.status = qp.state() == QpState::kError
                           ? WcStatus::kWorkRequestFlushed
                           : WcStatus::kRetryExceeded;
      Complete(qp, wr, dropped, now);
    });
    return;
  }

  const sim::SimTime tx_start = std::max(ready, timing.wire_free);
  const double tx_ns =
      static_cast<double>(OutboundBytes(wr)) / link_.bytes_per_ns;
  timing.wire_free = tx_start + static_cast<sim::Duration>(tx_ns);
  // The responder NIC resolves the rkey before applying the op: its own
  // MTT cache (the remote end of this connection), hit or miss.
  sim::Duration remote_lookup = 0;
  if (wr.opcode != Opcode::kSend) {
    remote_lookup = MttFor(qp.remote_qp()).Lookup(wr.rkey)
                        ? link_.mtt_hit_latency
                        : link_.mtt_miss_latency;
  }
  sim::SimTime arrival = timing.wire_free + link_.base_latency +
                         fault.extra_latency + remote_lookup;
  arrival = std::max(arrival, timing.last_arrival);
  timing.last_arrival = arrival;
  const sim::Duration response = link_.OneWay(ResponseBytes(wr));

  // Remote effect applies at `arrival`; requester completion after the
  // response flight. Capture payload by value: the local buffer may be
  // reused by the caller after PostSend returns (RNIC semantics would
  // forbid that, but the copy makes the simulation robust).
  events_.ScheduleAt(arrival, [this, &qp, wr, now,
                               payload = std::move(payload),
                               response]() mutable {
    if (qp.state() == QpState::kError) {
      // The QP failed while this WR was in flight: it is flushed, and the
      // requester still gets a completion for it — after the completion
      // of whatever WR killed the QP (RC completion order).
      QpTiming& t = qp_timing_[qp.num()];
      const sim::SimTime flush_at =
          std::max(events_.Now(), t.last_completion) +
          link_.cqe_write_latency;
      t.last_completion = flush_at;
      events_.ScheduleAt(flush_at, [this, &qp, wr, now]() {
        OpOutcome flushed;
        flushed.status = WcStatus::kWorkRequestFlushed;
        Complete(qp, wr, flushed, now);
      });
      return;
    }
    SendWr wr_copy = wr;
    OpOutcome outcome;
    if (fault_hook_ != nullptr && fault_hook_->NodeDown(qp.remote_node())) {
      // Dead peer: no ACK ever comes back.
      outcome.status = WcStatus::kRetryExceeded;
    } else {
      outcome = ApplyRemote(qp, wr, payload);
    }
    if (outcome.status != WcStatus::kSuccess) {
      // The responder NAKs (or the retry budget burns out) at this point
      // in the packet stream: the QP stops here, so WRs still in flight
      // behind this one are flushed at their arrival, not executed. The
      // failed WR's own completion is still delivered with its status.
      qp.SetError();
    }
    ++ops_executed_;
    QpTiming& t = qp_timing_[qp.num()];
    // Unsignaled successes retire without a CQE write-back; signaled WRs
    // and failures (which always produce an error CQE) pay for theirs.
    const bool writes_cqe =
        wr_copy.signaled || outcome.status != WcStatus::kSuccess;
    sim::SimTime completion =
        std::max(events_.Now() + response, t.last_completion) +
        (writes_cqe ? link_.cqe_write_latency : sim::Duration{0});
    t.last_completion = completion;
    events_.ScheduleAt(completion, [this, &qp, wr_copy,
                                    outcome = std::move(outcome), now]() {
      Complete(qp, wr_copy, outcome, now);
    });
  });
}

Fabric::OpOutcome Fabric::ApplyRemote(QueuePair& qp, const SendWr& wr,
                                      const Bytes& payload) {
  OpOutcome outcome;
  Node& remote = *nodes_.at(qp.remote_node());
  switch (wr.opcode) {
    case Opcode::kWrite: {
      Status s = remote.memory().DmaWrite(wr.rkey, /*remote=*/true,
                                          wr.remote_addr, payload);
      outcome.status =
          s.ok() ? WcStatus::kSuccess : WcStatus::kRemoteAccessError;
      outcome.byte_len = wr.local.length;
      if (s.ok()) bytes_written_ += wr.local.length;
      break;
    }
    case Opcode::kRead: {
      const StatusOr<ByteSpan> source = remote.memory().DmaReadSpan(
          wr.rkey, /*remote=*/true, wr.remote_addr, wr.local.length);
      if (source.ok()) {
        outcome.read_payload.assign(source->begin(), source->end());
      }
      outcome.status =
          source.ok() ? WcStatus::kSuccess : WcStatus::kRemoteAccessError;
      outcome.byte_len = wr.local.length;
      break;
    }
    case Opcode::kSend: {
      QueuePair* remote_qp = nullptr;
      for (auto& q : remote.qps_) {
        if (q->num() == qp.remote_qp()) remote_qp = q.get();
      }
      RecvWr recv;
      if (remote_qp == nullptr || !remote_qp->PopRecv(recv)) {
        // Receiver-not-ready with retries exhausted.
        outcome.status = WcStatus::kRetryExceeded;
        break;
      }
      if (payload.size() > recv.local.length) {
        outcome.status = WcStatus::kRemoteInvalidRequest;
        break;
      }
      Status s = remote.memory().DmaWrite(recv.local.lkey, /*remote=*/false,
                                          recv.local.addr, payload);
      outcome.status =
          s.ok() ? WcStatus::kSuccess : WcStatus::kRemoteAccessError;
      outcome.byte_len = static_cast<std::uint32_t>(payload.size());
      if (s.ok()) {
        outcome.recv_consumed = true;
        outcome.recv_wr_id = recv.wr_id;
        WorkCompletion rwc;
        rwc.wr_id = recv.wr_id;
        rwc.status = WcStatus::kSuccess;
        rwc.opcode = Opcode::kSend;
        rwc.byte_len = outcome.byte_len;
        rwc.qp_num = remote_qp->num();
        rwc.completed_at = events_.Now();
        remote_qp->recv_cq().Push(rwc);
      }
      break;
    }
    case Opcode::kCompareSwap: {
      auto r = remote.memory().DmaCompareSwap(wr.rkey, wr.remote_addr,
                                              wr.compare_add, wr.swap);
      if (r.ok()) {
        outcome.atomic_original = r.value();
        outcome.byte_len = 8;
      } else {
        outcome.status = WcStatus::kRemoteInvalidRequest;
      }
      break;
    }
    case Opcode::kFetchAdd: {
      auto r = remote.memory().DmaFetchAdd(wr.rkey, wr.remote_addr,
                                           wr.compare_add);
      if (r.ok()) {
        outcome.atomic_original = r.value();
        outcome.byte_len = 8;
      } else {
        outcome.status = WcStatus::kRemoteInvalidRequest;
      }
      break;
    }
  }
  return outcome;
}

void Fabric::Complete(QueuePair& qp, const SendWr& wr,
                      const OpOutcome& outcome, sim::SimTime posted_at) {
  Node& local = *nodes_.at(qp.node());
  WcStatus status = outcome.status;

  // Scatter READ/atomic results into the local buffer.
  if (status == WcStatus::kSuccess && wr.opcode == Opcode::kRead) {
    Status s = local.memory().DmaWrite(wr.local.lkey, /*remote=*/false,
                                       wr.local.addr, outcome.read_payload);
    if (!s.ok()) status = WcStatus::kLocalProtectionError;
  }
  if (status == WcStatus::kSuccess && (wr.opcode == Opcode::kCompareSwap ||
                                       wr.opcode == Opcode::kFetchAdd)) {
    std::uint8_t buf[8];
    StoreLE(buf, outcome.atomic_original);
    Status s = local.memory().DmaWrite(wr.local.lkey, /*remote=*/false,
                                       wr.local.addr, buf);
    if (!s.ok()) status = WcStatus::kLocalProtectionError;
  }

  if (status != WcStatus::kSuccess) {
    RDX_DEBUG("QP %u op %d failed: %s", qp.num(),
              static_cast<int>(wr.opcode), WcStatusName(status));
    qp.SetError();
  }

  QpStats& stats = qp_stats_[qp.num()];
  ++stats.ops;
  ++stats.ops_by_opcode[static_cast<int>(wr.opcode)];
  stats.latency_ns.Add(static_cast<std::uint64_t>(events_.Now() - posted_at));
  if (status != WcStatus::kSuccess) {
    ++stats.failures;
  } else {
    switch (wr.opcode) {
      case Opcode::kWrite:
      case Opcode::kSend:
        stats.bytes_out += outcome.byte_len;
        break;
      case Opcode::kRead:
      case Opcode::kCompareSwap:
      case Opcode::kFetchAdd:
        stats.bytes_in += outcome.byte_len;
        break;
    }
  }

  if (fault_hook_ != nullptr) fault_hook_->OnComplete(qp, wr, status);

  // Verbs error semantics: failures ALWAYS produce an error completion,
  // in order, even for unsignaled WRs — only unsignaled *successes* are
  // coalesced into the next delivered entry (implied by RC ordering).
  if (wr.signaled || status != WcStatus::kSuccess) {
    WorkCompletion wc;
    wc.wr_id = wr.wr_id;
    wc.status = status;
    wc.opcode = wr.opcode;
    wc.byte_len = outcome.byte_len;
    wc.qp_num = qp.num();
    wc.completed_at = events_.Now();
    wc.atomic_original = outcome.atomic_original;
    qp.send_cq().Push(wc);
  } else {
    ++unsignaled_wrs_;
    ++stats.unsignaled;
    ++coalesced_completions_;
    qp.send_cq().NoteCoalesced();
  }
}

}  // namespace rdx::rdma
