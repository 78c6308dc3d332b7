#include "core/codeflow.h"

#include <algorithm>
#include <cstdio>

#include "common/log.h"
#include "core/gatekeeper.h"

namespace rdx::core {

namespace {
constexpr std::uint64_t kLocalArenaBytes = 16u << 20;
constexpr std::uint64_t kAllocAlign = 64;
// Selective-signaling period of every CodeFlow QP: within a doorbell-batched
// chain only every 4th WRITE (and always the tail) writes a CQE; PostChain
// reconstructs the implied completions from RC ordering.
constexpr std::uint32_t kSignalingPeriod = 4;

std::uint64_t AlignUp(std::uint64_t n, std::uint64_t a) {
  return (n + a - 1) & ~(a - 1);
}

std::uint64_t SlotAddr(const CodeFlow& flow, int hook) {
  return flow.remote_view().hook_table_addr +
         static_cast<std::uint64_t>(hook) * 8;
}

// Versions count update generations of a hook (comparable across nodes,
// which is what mixed-version detection needs).
std::uint64_t NextVersionFor(CodeFlow& flow, int hook) {
  return flow.HookVersion(hook) + 1;
}
}  // namespace

bool ArtifactCache::HasImage(Kind kind, std::uint64_t fp) const {
  auto it = entries_.find({kind, fp});
  return it != entries_.end() &&
         !std::holds_alternative<std::monostate>(it->second.image);
}

void ArtifactCache::Invalidate(std::uint64_t fp) {
  const std::size_t evicted =
      entries_.erase({Kind::kEbpf, fp}) + entries_.erase({Kind::kWasm, fp});
  if (evicted != 0) ++invalidations_;
}

std::size_t ArtifactCache::entries() const {
  std::size_t n = 0;
  for (const auto& [key, entry] : entries_) {
    n += entry.verdict.has_value() +
         !std::holds_alternative<std::monostate>(entry.image);
  }
  return n;
}

StatusOr<std::uint64_t> CodeFlow::Symbol(std::uint64_t hash) const {
  auto it = symbols_.find(hash);
  if (it == symbols_.end()) return NotFound("symbol not exported by target");
  return it->second;
}

ControlPlane::ControlPlane(sim::EventQueue& events, rdma::Fabric& fabric,
                           rdma::NodeId self, ControlPlaneConfig config)
    : events_(events),
      fabric_(fabric),
      self_(self),
      config_(config),
      cpu_(events, config.cost.cores_per_node, config.cost.cpu_hz) {
  cq_ = &fabric_.CreateCq(self_, 65536);
  cq_->SetNotify([this](const rdma::WorkCompletion& wc) {
    auto it = pending_.find(wc.wr_id);
    if (it == pending_.end()) return false;
    auto handler = std::move(it->second.on_complete);
    pending_.erase(it);
    handler(wc);
    return true;
  });
  // Local staging arena: WRITE sources and READ/atomic landing buffers.
  auto& mem = fabric_.node(self_).memory();
  auto arena = mem.Allocate(kLocalArenaBytes, 4096);
  auto mr = mem.Register(arena.value(), kLocalArenaBytes,
                         rdma::kAccessLocalWrite);
  local_mr_ = mr.value();
}

// ---- the post path -----------------------------------------------------

void ControlPlane::Post(
    CodeFlow& flow, rdma::SendWr wr,
    std::function<void(const rdma::WorkCompletion&)> done) {
  wr.signaled = true;
  PostChain(flow, {wr}, std::move(done));
}

void ControlPlane::PostChain(
    CodeFlow& flow, std::vector<rdma::SendWr> wrs,
    std::function<void(const rdma::WorkCompletion&)> per_wr_done) {
  if (wrs.empty()) return;
  // Selective signaling (qp.h) means only every Kth WRITE in a chain
  // writes a CQE, yet every WR here has a pending_ entry expecting one.
  // RC ordering closes the gap: when a completion for chain index i
  // arrives — signaled success, NAK, or flush — every WR before i must
  // have *succeeded* (the first failure errors the QP at its own index,
  // and flushes follow it), so their completions are implied. The state
  // below reconstructs them, in order, before delivering entry i.
  struct ChainState {
    rdma::NodeId target;
    std::function<void(const rdma::WorkCompletion&)> done;
    std::uint64_t first_id = 0;
    std::size_t cursor = 0;  // chain index of the next undelivered WR
  };
  auto chain = std::make_shared<ChainState>(
      ChainState{flow.node_, std::move(per_wr_done), next_wr_id_});
  auto deliver = [this, chain](const rdma::WorkCompletion& wc) {
    // Every successful completion renews the target node's health lease.
    auto complete = [&](const rdma::WorkCompletion& c) {
      if (c.status == rdma::WcStatus::kSuccess) {
        last_success_[chain->target] = events_.Now();
      }
      chain->done(c);
    };
    const std::size_t idx =
        static_cast<std::size_t>(wc.wr_id - chain->first_id);
    for (; chain->cursor < idx; ++chain->cursor) {
      auto it = pending_.find(chain->first_id + chain->cursor);
      if (it == pending_.end()) continue;
      rdma::WorkCompletion implied;
      implied.wr_id = it->first;
      implied.status = rdma::WcStatus::kSuccess;
      implied.opcode = it->second.opcode;
      implied.byte_len = it->second.byte_len;
      implied.qp_num = wc.qp_num;
      implied.completed_at = wc.completed_at;
      pending_.erase(it);
      complete(implied);
    }
    chain->cursor = idx + 1;
    complete(wc);
  };
  for (rdma::SendWr& wr : wrs) {
    wr.wr_id = next_wr_id_++;
    // Small control writes (commit qwords, cc events, ring cursors, XState
    // values) ride the WQE itself: no payload DMA fetch, no source MR.
    if (wr.opcode == rdma::Opcode::kWrite &&
        wr.local.length <= fabric_.link().max_inline_data) {
      wr.send_inline = true;
    }
    pending_.emplace(wr.wr_id,
                     PendingOp{deliver, wr.opcode, wr.local.length});
  }
  if (!flow.qp->PostSendChain(wrs).ok()) {
    // Error-state flushes were already delivered through the CQ; surface
    // completions for any WR the QP rejected without flushing.
    for (const rdma::SendWr& wr : wrs) {
      auto it = pending_.find(wr.wr_id);
      if (it == pending_.end()) continue;
      auto handler = std::move(it->second.on_complete);
      pending_.erase(it);
      rdma::WorkCompletion wc;
      wc.wr_id = wr.wr_id;
      wc.status = rdma::WcStatus::kWorkRequestFlushed;
      wc.opcode = wr.opcode;
      handler(wc);
    }
  }
}

StatusOr<rdma::SendWr> ControlPlane::ScratchWr(CodeFlow& flow,
                                               rdma::Opcode op,
                                               std::uint64_t remote_addr,
                                               std::uint64_t len) {
  // Ring allocation inside the local arena. The fabric copies WRITE
  // payloads at post time and scatters READ results at completion time, so
  // reuse after wrap cannot corrupt in-flight operations.
  const std::uint64_t bytes = AlignUp(std::max<std::uint64_t>(len, 1),
                                      kAllocAlign);
  if (bytes > kLocalArenaBytes) return ResourceExhausted("payload too large");
  if (arena_cursor_ + bytes > kLocalArenaBytes) arena_cursor_ = 0;
  rdma::SendWr wr;
  wr.opcode = op;
  wr.local = {local_mr_.addr + arena_cursor_, static_cast<std::uint32_t>(len),
              local_mr_.lkey};
  arena_cursor_ += bytes;
  wr.remote_addr = remote_addr;
  wr.rkey = flow.rkey;
  return wr;
}

void ControlPlane::RemoteRead(CodeFlow& flow, std::uint64_t remote_addr,
                              std::uint64_t len, const char* failure,
                              Done fail, std::function<void(Bytes)> next) {
  auto wr = ScratchWr(flow, rdma::Opcode::kRead, remote_addr, len);
  if (!wr.ok()) {
    fail(wr.status());
    return;
  }
  Post(flow, *wr, [this, buf = wr->local.addr, len, failure, fail,
                   next = std::move(next)](const rdma::WorkCompletion& wc) {
    if (wc.status != rdma::WcStatus::kSuccess) {
      fail(Unavailable(failure));
      return;
    }
    Bytes raw(len);
    (void)fabric_.node(self_).memory().Read(buf, raw);
    next(std::move(raw));
  });
}

void ControlPlane::RemoteAtomic(
    CodeFlow& flow, rdma::Opcode op, std::uint64_t remote_addr,
    std::uint64_t compare_add, std::uint64_t swap, const char* failure,
    std::function<void(StatusOr<std::uint64_t>)> done) {
  // An 8-byte landing buffer always fits the staging arena.
  rdma::SendWr wr = ScratchWr(flow, op, remote_addr).value();
  wr.compare_add = compare_add;
  wr.swap = swap;
  Post(flow, wr,
       [failure, done = std::move(done)](const rdma::WorkCompletion& wc) {
         if (wc.status != rdma::WcStatus::kSuccess) {
           done(Unavailable(failure));
           return;
         }
         done(wc.atomic_original);
       });
}

// ---- CodeFlow lifecycle ------------------------------------------------

void ControlPlane::CreateCodeFlow(
    Sandbox& sandbox, const Sandbox::Registration& reg,
    std::function<void(StatusOr<CodeFlow*>)> done) {
  auto flow_owner = std::make_unique<CodeFlow>();
  CodeFlow* flow = flow_owner.get();
  flows_.push_back(std::move(flow_owner));
  flow->node_ = sandbox.node().id();
  flow->sandbox = &sandbox;
  flow->rkey = reg.rkey;
  flow->remote_view_.cb_addr = reg.cb_addr;
  ReconnectCodeFlow(*flow, [flow, done = std::move(done)](Status s) {
    done(s.ok() ? StatusOr<CodeFlow*>(flow) : StatusOr<CodeFlow*>(s));
  });
}

void ControlPlane::ReconnectCodeFlow(CodeFlow& flow, Done done) {
  // QP plumbing (the CM exchange). On reconnect the old QP is unusable
  // once errored (real verbs would destroy it); bring up a fresh pair on
  // both ends and re-run the handshake over it.
  rdma::QueuePair& local_qp = fabric_.CreateQp(self_, *cq_, *cq_);
  rdma::CompletionQueue& remote_cq = fabric_.CreateCq(flow.node_);
  rdma::QueuePair& remote_qp =
      fabric_.CreateQp(flow.node_, remote_cq, remote_cq);
  Status connected = fabric_.Connect(local_qp, remote_qp);
  if (!connected.ok()) {
    done(connected);
    return;
  }
  local_qp.SetSignalingPeriod(kSignalingPeriod);
  flow.qp = &local_qp;
  Handshake(&flow, std::move(done));
}

void ControlPlane::Handshake(CodeFlow* flow, Done done) {
  // Step 1: read the control block.
  RemoteRead(*flow, flow->remote_view_.cb_addr, kControlBlockBytes,
             "control block read failed", done,
             [this, flow, done](Bytes cb) {
    auto word = [&](std::uint64_t off) {
      return LoadLE<std::uint64_t>(cb.data() + off);
    };
    if (word(kCbMagic) != kControlBlockMagic) {
      done(FailedPrecondition("remote control block has bad magic"));
      return;
    }
    ControlBlockView& view = flow->remote_view_;
    view.epoch = word(kCbEpoch);
    view.hook_table_addr = word(kCbHookTableAddr);
    view.hook_count = word(kCbHookCount);
    view.meta_xstate_addr = word(kCbMetaXstateAddr);
    view.meta_capacity = word(kCbMetaCapacity);
    view.scratch_addr = word(kCbScratchAddr);
    view.scratch_size = word(kCbScratchSize);
    view.symtab_addr = word(kCbSymtabAddr);
    view.symtab_len = word(kCbSymtabLen);
    view.health_addr = word(kCbHealthAddr);
    view.trace_addr = word(kCbTraceAddr);

    // Reboot detection on re-handshake: if we had deployed state but the
    // remote scratch allocator is back at its base, the node lost its
    // memory since our last handshake. Every deployed XState, image, and
    // hook binding is gone — restart the bookkeeping from scratch.
    const bool had_state = !flow->hooks_.empty() ||
                           !flow->xstate_addrs_.empty() ||
                           flow->next_meta_slot_ != 0;
    if (had_state && word(kCbScratchBrk) == view.scratch_addr) {
      flow->xstate_addrs_.clear();
      flow->hooks_.clear();
      flow->next_meta_slot_ = 0;
      flow->epoch_ = view.epoch;
    }

    // Step 2: read the symbol table (the exposed global context / GOT).
    RemoteRead(*flow, view.symtab_addr, view.symtab_len,
               "symbol table read failed", done, [flow, done](Bytes raw) {
      const std::uint32_t count =
          raw.size() < 4 ? 0 : LoadLE<std::uint32_t>(raw.data());
      if (raw.size() < 4 || 4 + count * 16ull > raw.size()) {
        done(FailedPrecondition("truncated symbol table"));
        return;
      }
      flow->symbols_.clear();
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint8_t* entry = raw.data() + 4 + i * 16;
        flow->symbols_.emplace(LoadLE<std::uint64_t>(entry),
                               LoadLE<std::uint64_t>(entry + 8));
      }
      done(OkStatus());
    });
  });
}

void ControlPlane::ProbeHook(
    CodeFlow& flow, int hook,
    std::function<void(StatusOr<HookProbe>)> done) {
  RemoteRead(flow, SlotAddr(flow, hook), 8, "hook slot read failed", done,
             [this, &flow, done](Bytes slot) {
    const std::uint64_t desc_addr = LoadLE<std::uint64_t>(slot.data());
    if (desc_addr == 0) {
      done(HookProbe{});
      return;
    }
    RemoteRead(flow, desc_addr + kDescVersion, 8, "desc version read failed",
               done, [desc_addr, done](Bytes version) {
                 done(HookProbe{desc_addr,
                                LoadLE<std::uint64_t>(version.data())});
               });
  });
}

sim::SimTime ControlPlane::LastSuccess(rdma::NodeId node) const {
  auto it = last_success_.find(node);
  return it == last_success_.end() ? -1 : it->second;
}

bool ControlPlane::NodeHealthy(rdma::NodeId node,
                               sim::Duration lease) const {
  const sim::SimTime last = LastSuccess(node);
  return last >= 0 && events_.Now() - last <= lease;
}

// ---- compile pipeline -------------------------------------------------

template <class Source>
void ControlPlane::ValidateCode(const Source& src, Done done) {
  ValidateCode(src, ExtensionKind<Source>::Fingerprint(src), std::move(done));
}

template <class Source>
void ControlPlane::ValidateCode(const Source& src, std::uint64_t fp,
                                Done done) {
  using K = ExtensionKind<Source>;
  // Blacklist check comes before the verify cache: a quarantined program
  // is refused even though it verified fine before (verification is
  // necessary but not sufficient, §5).
  if (IsBlacklisted(fp)) {
    done(PermissionDenied(K::kQuarantined));
    return;
  }
  if (const bool* verdict = artifacts_.Find<bool>(K::kKind, fp)) {
    done(*verdict ? OkStatus() : InvalidArgument(K::kKnownBad));
    return;
  }
  // Real verification work happens now; virtual time is charged to the
  // control plane's CPU (not any data-plane node).
  const Status verdict = K::Validate(src);
  artifacts_.Put(K::kKind, fp, verdict.ok());
  cpu_.Submit((config_.cost.*K::kValidateCycles)(src.size()),
              [done = std::move(done), verdict] { done(verdict); });
}

template <class Source>
void ControlPlane::JitCompileCode(
    const Source& src,
    std::function<void(StatusOr<const ImageOf<Source>*>)> done) {
  JitCompileCode(src, ExtensionKind<Source>::Fingerprint(src),
                 std::move(done));
}

template <class Source>
void ControlPlane::JitCompileCode(
    const Source& src, std::uint64_t fp,
    std::function<void(StatusOr<const ImageOf<Source>*>)> done) {
  using K = ExtensionKind<Source>;
  if (const auto* hit = artifacts_.Find<ImageOf<Source>>(K::kKind, fp)) {
    done(hit);
    return;
  }
  auto image = K::Compile(src);
  cpu_.Submit((config_.cost.*K::kCompileCycles)(src.size()),
              [this, fp, image = std::move(image), done = std::move(done)] {
                if (!image.ok()) {
                  done(image.status());
                  return;
                }
                done(artifacts_.Put(K::kKind, fp, image.value()));
              });
}

template <class Source>
void ControlPlane::Build(
    const Source& src,
    std::function<void(StatusOr<const ImageOf<Source>*>)> done,
    InjectTrace* trace) {
  const sim::SimTime t0 = events_.Now();
  const std::uint64_t fp = ExtensionKind<Source>::Fingerprint(src);
  ValidateCode(src, fp, [this, &src, fp, trace, t0,
                         done = std::move(done)](Status s) mutable {
    if (!s.ok()) {
      done(s);
      return;
    }
    const sim::SimTime t1 = events_.Now();
    if (trace != nullptr) trace->validate = t1 - t0;
    JitCompileCode(src, fp, [this, trace, t1, done = std::move(done)](
                                StatusOr<const ImageOf<Source>*> image) {
      if (image.ok() && trace != nullptr) trace->jit = events_.Now() - t1;
      done(image);
    });
  });
}

// ---- link -------------------------------------------------------------

template <class Image>
void ControlPlane::LinkCode(CodeFlow& flow, const Image& image,
                            std::uint64_t fp,
                            std::function<void(StatusOr<Bytes>)> done) {
  using K = ExtensionKind<Image>;
  if (!linked_wire_ || linked_wire_->kind != K::kKind ||
      linked_wire_->fp != fp) {
    linked_wire_ = LinkedWire{K::kKind, fp, K::Plan(image), {}, {}};
  }
  LinkedWire& memo = *linked_wire_;
  auto values = ResolveLink(memo.plan, flow.link_target());
  if (!values.ok()) {
    done(values.status());
    return;
  }
  if (memo.wire.empty() || *values != memo.values) {
    Image linked = image;
    K::Apply(memo.plan, *values, linked);
    memo.values = std::move(values).value();
    memo.wire = linked.Serialize();
    ++wires_built_;
  } else {
    ++wires_shared_;
  }
  // One relocation's worth whatever the image's count: what the model has
  // always charged. Charging per relocation is a model change (ROADMAP
  // item 1).
  const std::uint64_t cycles = config_.cost.link_cycles_per_reloc;
  cpu_.Submit(cycles, [done = std::move(done), wire = memo.wire]() mutable {
    done(std::move(wire));
  });
}

// ---- RDMA building blocks ----------------------------------------------

void ControlPlane::RemoteAlloc(
    CodeFlow& flow, std::uint64_t bytes,
    std::function<void(StatusOr<std::uint64_t>)> done) {
  bytes = AlignUp(bytes, kAllocAlign);
  RemoteAtomic(flow, rdma::Opcode::kFetchAdd,
               flow.remote_view_.cb_addr + kCbScratchBrk, bytes, 0,
               "scratchpad FETCH_ADD failed",
               [&flow, bytes, done](StatusOr<std::uint64_t> addr) {
                 const ControlBlockView& view = flow.remote_view();
                 if (addr.ok() &&
                     *addr + bytes > view.scratch_addr + view.scratch_size) {
                   // Deterministic for a given sandbox state —
                   // non-retryable (the recovery layer aborts instead of
                   // backing off).
                   done(ScratchExhausted("remote scratchpad exhausted"));
                   return;
                 }
                 done(addr);
               });
}

void ControlPlane::WriteChunked(CodeFlow& flow, Bytes payload,
                                std::uint64_t remote_addr, Done done) {
  const std::size_t total = payload.size();
  const std::size_t nchunks =
      std::max<std::size_t>(1, (total + config_.chunk_bytes - 1) /
                                   config_.chunk_bytes);
  auto remaining = std::make_shared<std::size_t>(nchunks);
  auto failed = std::make_shared<bool>(false);
  auto& mem = fabric_.node(self_).memory();
  auto on_wc = [remaining, failed, done](const rdma::WorkCompletion& wc) {
    if (wc.status != rdma::WcStatus::kSuccess) *failed = true;
    if (--*remaining == 0) {
      done(*failed ? Unavailable("RDMA write failed") : OkStatus());
    }
  };

  // Multi-chunk payloads go out as one doorbell-batched chain: the NIC
  // walks the WR linked list after a single MMIO ring, amortizing the
  // per-post doorbell cost across the whole transfer.
  const bool batch = config_.use_doorbell_batching && nchunks > 1;
  std::vector<rdma::SendWr> chain;
  if (batch) chain.reserve(nchunks);

  std::size_t off = 0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t len =
        std::min<std::size_t>(config_.chunk_bytes, total - off);
    auto write =
        ScratchWr(flow, rdma::Opcode::kWrite, remote_addr + off, len);
    if (!write.ok()) {
      done(write.status());
      return;
    }
    if (len > 0) {
      (void)mem.Write(write->local.addr, ByteSpan(payload.data() + off, len));
    }
    if (batch) {
      chain.push_back(*write);
    } else {
      Post(flow, *write, on_wc);
    }
    off += len;
  }
  if (batch) PostChain(flow, std::move(chain), on_wc);
}

void ControlPlane::WriteQword(CodeFlow& flow, std::uint64_t remote_addr,
                              std::uint64_t value, Done done) {
  Bytes qword(8);
  StoreLE(qword.data(), value);
  WriteChunked(flow, std::move(qword), remote_addr, std::move(done));
}

// ---- commit ------------------------------------------------------------

void ControlPlane::CommitHook(CodeFlow& flow, int hook,
                              std::uint64_t desc_addr, Done done) {
  if (!config_.use_lock) {
    CommitTail(flow, hook, desc_addr, /*may_chain=*/true, std::move(done));
    return;
  }
  // rdx_mutual_excl around the commit: take the sandbox lock via RDMA
  // CAS, commit, release. Contention retries after a short backoff.
  constexpr std::uint64_t kOwner = 0x4350u;  // "CP"
  Lock(flow, kOwner, [this, &flow, hook, desc_addr,
                      done = std::move(done)](Status s) mutable {
    if (s.code() == StatusCode::kAborted) {
      events_.ScheduleAfter(sim::Micros(5), [this, &flow, hook, desc_addr,
                                             done = std::move(done)]() mutable {
        CommitHook(flow, hook, desc_addr, std::move(done));
      });
      return;
    }
    if (!s.ok()) {
      done(s);
      return;
    }
    CommitTail(flow, hook, desc_addr, /*may_chain=*/true,
               [this, &flow, done = std::move(done)](Status s2) mutable {
                 Unlock(flow, kOwner, [done = std::move(done), s2](Status) {
                   done(s2);
                 });
               });
  });
}

void ControlPlane::CommitTail(CodeFlow& flow, int hook,
                              std::optional<std::uint64_t> slot_desc,
                              bool may_chain, Done done) {
  const std::uint64_t cb = flow.remote_view_.cb_addr;
  const bool chained =
      may_chain && config_.use_doorbell_batching && config_.use_cc_event;
  if (slot_desc && !chained) {
    // Separate posts: the slot write completes before the epoch bump.
    WriteQword(flow, SlotAddr(flow, hook), *slot_desc,
               [this, &flow, hook, done = std::move(done)](Status s) mutable {
                 if (!s.ok()) {
                   done(s);
                   return;
                 }
                 CommitTail(flow, hook, std::nullopt, /*may_chain=*/false,
                            std::move(done));
               });
    return;
  }
  ++flow.epoch_;
  if (!chained) {
    // Remote epoch bump, fire and forget. Visibility: with rdx_cc_event
    // the control plane injects a flush (constant ~2 us); without it the
    // CPU discovers the new slot only when cache pressure evicts the
    // stale line.
    RemoteAtomic(flow, rdma::Opcode::kFetchAdd, cb + kCbEpoch, 1, 0, "",
                 [](StatusOr<std::uint64_t>) {});
    if (config_.use_cc_event) {
      CcEvent(flow, hook, std::move(done));
      return;
    }
    flow.sandbox->ScheduleHookRefresh(
        hook, flow.sandbox->VisibilityDelay(/*coherent_flush=*/false));
    done(OkStatus());
    return;
  }
  // One doorbell for [commit write] + epoch FAA + cc_event flush. RC
  // orders them anyway, so separate posts would only add doorbells and a
  // round trip between commit and visibility. The FAA needs no completion
  // of its own (unsignaled; implied by the tail). 8-byte staging buffers
  // always fit the arena.
  std::vector<rdma::SendWr> chain;
  if (slot_desc) {
    chain.push_back(
        ScratchWr(flow, rdma::Opcode::kWrite, SlotAddr(flow, hook)).value());
    (void)fabric_.node(self_).memory().WriteU64(chain.back().local.addr,
                                                *slot_desc);
  }
  chain.push_back(
      ScratchWr(flow, rdma::Opcode::kFetchAdd, cb + kCbEpoch).value());
  chain.back().compare_add = 1;
  chain.back().signaled = false;
  chain.push_back(
      ScratchWr(flow, rdma::Opcode::kWrite, cb + kCbDoorbell).value());
  auto remaining = std::make_shared<std::size_t>(chain.size());
  auto failed = std::make_shared<bool>(false);
  const char* failure =
      slot_desc ? "commit chain failed" : "cc_event write failed";
  PostChain(flow, std::move(chain),
            [&flow, hook, remaining, failed, failure,
             done = std::move(done)](const rdma::WorkCompletion& wc) {
              if (wc.status != rdma::WcStatus::kSuccess) *failed = true;
              if (--*remaining != 0) return;
              if (*failed) {
                done(Unavailable(failure));
                return;
              }
              flow.sandbox->ScheduleHookRefresh(
                  hook,
                  flow.sandbox->VisibilityDelay(/*coherent_flush=*/true));
              done(OkStatus());
            });
}

void ControlPlane::CcEvent(CodeFlow& flow, int hook, Done done) {
  // Models injecting a tiny cache-coherent flush binary at the event
  // hook: one header-sized verb (at the control block's "event hook"
  // doorbell word) plus the flush execution latency.
  Post(flow,
       ScratchWr(flow, rdma::Opcode::kWrite,
                 flow.remote_view_.cb_addr + kCbDoorbell)
           .value(),
       [&flow, hook, done = std::move(done)](const rdma::WorkCompletion& wc) {
         if (wc.status != rdma::WcStatus::kSuccess) {
           done(Unavailable("cc_event write failed"));
           return;
         }
         flow.sandbox->ScheduleHookRefresh(
             hook, flow.sandbox->VisibilityDelay(/*coherent_flush=*/true));
         done(OkStatus());
       });
}

void ControlPlane::Lock(CodeFlow& flow, std::uint64_t owner, Done done) {
  RemoteAtomic(flow, rdma::Opcode::kCompareSwap,
               flow.remote_view_.cb_addr + kCbLock, /*expect unlocked*/ 0,
               owner, "lock CAS failed",
               [done = std::move(done)](StatusOr<std::uint64_t> original) {
                 if (!original.ok()) {
                   done(original.status());
                   return;
                 }
                 done(*original == 0
                          ? OkStatus()
                          : Aborted("sandbox lock held by another owner"));
               });
}

void ControlPlane::Unlock(CodeFlow& flow, std::uint64_t owner, Done done) {
  RemoteAtomic(flow, rdma::Opcode::kCompareSwap,
               flow.remote_view_.cb_addr + kCbLock, owner, 0,
               "unlock CAS failed",
               [done = std::move(done)](StatusOr<std::uint64_t> original) {
                 if (!original.ok()) {
                   done(original.status());
                   return;
                 }
                 done(*original == 0 ? Aborted("lock was not held")
                                     : OkStatus());
               });
}

void ControlPlane::Tx(CodeFlow& flow, Bytes payload, std::uint64_t qword_addr,
                      std::optional<std::uint64_t> qword_value,
                      std::function<void(StatusOr<std::uint64_t>)> done) {
  // Size the allocation before the payload moves into the continuation.
  const std::uint64_t bytes = payload.size();
  RemoteAlloc(flow, bytes,
              [this, &flow, payload = std::move(payload), qword_addr,
               qword_value, done = std::move(done)](
                  StatusOr<std::uint64_t> addr) mutable {
                if (!addr.ok()) {
                  done(addr.status());
                  return;
                }
                const std::uint64_t payload_addr = addr.value();
                WriteChunked(
                    flow, std::move(payload), payload_addr,
                    [this, &flow, qword_addr, qword_value, payload_addr,
                     done = std::move(done)](Status s) mutable {
                      if (!s.ok()) {
                        done(s);
                        return;
                      }
                      WriteQword(flow, qword_addr,
                                 qword_value.value_or(payload_addr),
                                 [payload_addr, done](Status s2) {
                                   if (!s2.ok()) {
                                     done(s2);
                                     return;
                                   }
                                   done(payload_addr);
                                 });
                    });
              });
}

// ---- XState (§3.4) ------------------------------------------------------

void ControlPlane::DeployXState(
    CodeFlow& flow, const bpf::MapSpec& spec,
    std::function<void(StatusOr<std::uint64_t>)> done) {
  const std::uint64_t bytes = bpf::MapRequiredBytes(spec);
  // Format the XState locally (header + zeroed body), then land it with a
  // remote transaction whose qword swap publishes its address in the
  // Meta-XState directory.
  Bytes storage(bytes, 0);
  bpf::MapView view(storage);
  Status init = view.Init(spec);
  if (!init.ok()) {
    done(init);
    return;
  }
  if (flow.next_meta_slot_ >= flow.remote_view_.meta_capacity) {
    done(ResourceExhausted("Meta-XState directory full"));
    return;
  }
  const std::uint32_t meta_slot = flow.next_meta_slot_++;
  Tx(flow, std::move(storage),
     flow.remote_view_.meta_xstate_addr + meta_slot * 8ull, std::nullopt,
     [&flow, name = spec.name,
      done = std::move(done)](StatusOr<std::uint64_t> xstate_addr) {
       if (xstate_addr.ok()) flow.xstate_addrs_[name] = *xstate_addr;
       done(xstate_addr);
     });
}

void ControlPlane::DeployXStates(
    CodeFlow& flow, std::shared_ptr<const std::vector<bpf::MapSpec>> maps,
    std::size_t i, Done done) {
  while (i < maps->size() && flow.xstate_addrs_.count((*maps)[i].name) != 0) {
    ++i;
  }
  if (i == maps->size()) {
    done(OkStatus());
    return;
  }
  DeployXState(flow, (*maps)[i],
               [this, &flow, maps, i, done = std::move(done)](
                   StatusOr<std::uint64_t> addr) mutable {
                 if (!addr.ok()) {
                   done(addr.status());
                   return;
                 }
                 DeployXStates(flow, std::move(maps), i + 1, std::move(done));
               });
}

void ControlPlane::ReadXState(CodeFlow& flow, std::uint64_t xstate_addr,
                              bool ring, Done fail,
                              std::function<void(Bytes)> next) {
  RemoteRead(
      flow, xstate_addr, bpf::kMapHeaderBytes,
      ring ? "ring header read failed" : "XState header read failed", fail,
      [this, &flow, xstate_addr, ring, fail,
       next = std::move(next)](Bytes header_bytes) mutable {
        auto header = bpf::MapView(header_bytes).Header();
        if (!header.ok()) {
          fail(header.status());
          return;
        }
        if (ring && header->type != bpf::MapType::kRingBuf) {
          fail(FailedPrecondition("XState is not a ring buffer"));
          return;
        }
        const bpf::MapSpec spec{"", header->type, header->key_size,
                                header->value_size, header->max_entries};
        RemoteRead(flow, xstate_addr, bpf::MapRequiredBytes(spec),
                   ring ? "ring body read failed" : "XState body read failed",
                   fail, std::move(next));
      });
}

void ControlPlane::XStateLookup(CodeFlow& flow, std::uint64_t xstate_addr,
                                Bytes key,
                                std::function<void(StatusOr<Bytes>)> done) {
  // Read the full XState storage, then resolve the key locally. (An
  // array-map fast path could read just the value; the general path keeps
  // hash maps correct.)
  ReadXState(flow, xstate_addr, /*ring=*/false, done,
             [key = std::move(key), done](Bytes body) {
               bpf::MapView view(body);
               auto header = view.Header();
               if (!header.ok()) {
                 done(header.status());
                 return;
               }
               Bytes value(header->value_size);
               Status s = view.Lookup(key, value);
               if (!s.ok()) {
                 done(s);
                 return;
               }
               done(std::move(value));
             });
}

void ControlPlane::XStateUpdate(CodeFlow& flow, std::uint64_t xstate_addr,
                                Bytes key, Bytes value, Done done) {
  // Same pattern: fetch storage, apply the update locally, write back the
  // whole storage (conservative dirty range).
  ReadXState(flow, xstate_addr, /*ring=*/false, done,
             [this, &flow, xstate_addr, key = std::move(key),
              value = std::move(value), done](Bytes body) {
               Status s = bpf::MapView(body).Update(key, value);
               if (!s.ok()) {
                 done(s);
                 return;
               }
               WriteChunked(flow, std::move(body), xstate_addr, done);
             });
}

void ControlPlane::CopyXState(CodeFlow& src, std::uint64_t src_addr,
                              CodeFlow& dst, std::uint64_t dst_addr,
                              Done done) {
  // Read the source storage, then move it in one chunked write.
  ReadXState(src, src_addr, /*ring=*/false, done,
             [this, &dst, dst_addr, done](Bytes body) {
               WriteChunked(dst, std::move(body), dst_addr, done);
             });
}

void ControlPlane::XStateDump(
    CodeFlow& flow, std::uint64_t xstate_addr,
    std::function<void(StatusOr<std::vector<std::pair<Bytes, Bytes>>>)>
        done) {
  ReadXState(flow, xstate_addr, /*ring=*/false, done, [done](Bytes body) {
    done(bpf::MapView(body).Dump());
  });
}

void ControlPlane::XStateRingConsume(
    CodeFlow& flow, std::uint64_t xstate_addr,
    std::function<void(StatusOr<std::vector<Bytes>>)> done) {
  // Read the whole ring, decode records locally, then advance the remote
  // tail word. Records produced after our snapshot are simply picked up
  // by the next consume; the tail only moves past records we fully
  // decoded, so the producer/consumer protocol stays correct with
  // one-sided access.
  ReadXState(
      flow, xstate_addr, /*ring=*/true, done,
      [this, &flow, xstate_addr, done](Bytes body) {
        auto records = bpf::MapView(body).RingConsume();
        if (!records.ok() || records->empty()) {
          done(std::move(records));
          return;
        }
        // RingConsume advanced the tail in our local copy; publish it.
        WriteQword(flow, xstate_addr + bpf::kRingTailOffset,
                   LoadLE<std::uint64_t>(body.data() + bpf::kRingTailOffset),
                   [records = std::move(records).value(),
                    done](Status s) mutable {
                     if (!s.ok()) {
                       done(s);
                       return;
                     }
                     done(std::move(records));
                   });
      });
}

// ---- deploy ------------------------------------------------------------

void ControlPlane::DeployImageBytes(CodeFlow& flow, Bytes image_bytes,
                                    int hook, std::uint64_t version,
                                    Done done, InjectTrace* trace,
                                    std::uint64_t fingerprint) {
  events_.ScheduleAfter(config_.cost.rdx_dispatch_overhead,
                        [this, &flow, image_bytes = std::move(image_bytes),
                         hook, version, done = std::move(done), trace,
                         fingerprint]() mutable {
    auto& deployment = flow.hooks_[hook];
    const sim::SimTime transfer_start = events_.Now();

    // Vanilla (non-transactional) path: overwrite the live image region
    // in place when it fits. The naive update order — metadata first,
    // then code — leaves a window during which the data-plane CPU reads a
    // *torn* image (new length/version, mixed code bytes). This is the
    // §3.5 hazard rdx_tx's shadow-copy + qword-swap eliminates.
    if (!config_.use_tx && deployment.desc_addr != 0 &&
        image_bytes.size() <= deployment.region_capacity) {
      const std::uint64_t image_addr = deployment.image_addr;
      Bytes desc(kImageDescBytes);
      StoreDesc(desc.data(), image_addr, image_bytes, version,
                config_.signing_key);
      WriteChunked(
          flow, std::move(desc), deployment.desc_addr,
          [this, &flow, hook, image_addr, version, fingerprint,
           image_bytes = std::move(image_bytes), done = std::move(done),
           trace, transfer_start](Status s) mutable {
            if (!s.ok()) {
              done(s);
              return;
            }
            WriteChunked(
                flow, std::move(image_bytes), image_addr,
                [this, &flow, hook, version, fingerprint,
                 done = std::move(done), trace,
                 transfer_start](Status s2) mutable {
                  if (!s2.ok()) {
                    done(s2);
                    return;
                  }
                  flow.hooks_[hook].version = version;
                  flow.hooks_[hook].fingerprint = fingerprint;
                  if (trace != nullptr) {
                    trace->transfer = events_.Now() - transfer_start;
                  }
                  // No atomic commit; visibility via cache eviction (or
                  // flush if configured).
                  flow.sandbox->ScheduleHookRefresh(
                      hook,
                      flow.sandbox->VisibilityDelay(config_.use_cc_event));
                  done(OkStatus());
                });
          });
      return;
    }

    // Transactional path: prepare (image + desc in a fresh region), then
    // an atomic qword commit.
    PrepareImage(
        flow, std::move(image_bytes), version,
        [this, &flow, hook, done = std::move(done), trace,
         transfer_start](StatusOr<PreparedImage> prepared) mutable {
          if (!prepared.ok()) {
            done(prepared.status());
            return;
          }
          if (trace != nullptr) {
            trace->transfer = events_.Now() - transfer_start;
          }
          const sim::SimTime commit_start = events_.Now();
          CommitPrepared(flow, hook, prepared.value(),
                         [this, done = std::move(done), trace, commit_start,
                          version = prepared->version](Status s) {
                           if (s.ok() && trace != nullptr) {
                             trace->commit = events_.Now() - commit_start;
                             trace->version = version;
                           }
                           done(s);
                         });
        },
        fingerprint);
  });
}

void ControlPlane::PrepareImage(
    CodeFlow& flow, Bytes image_bytes, std::uint64_t version,
    std::function<void(StatusOr<PreparedImage>)> done,
    std::uint64_t fingerprint) {
  const std::uint64_t image_len = image_bytes.size();
  const std::uint64_t region = ImageRegionBytes(image_len);
  RemoteAlloc(flow, region, [this, &flow, version, image_len, region,
                             fingerprint,
                             image_bytes = std::move(image_bytes),
                             done = std::move(done)](
                                StatusOr<std::uint64_t> addr) mutable {
    if (!addr.ok()) {
      done(addr.status());
      return;
    }
    const std::uint64_t image_addr = addr.value();
    const std::uint64_t desc_addr = image_addr + region - kImageDescBytes;
    // Image + desc in one buffer; RC ordering lets the payload writes and
    // the desc write go out back-to-back (doorbell batch).
    WriteChunked(flow,
                 ComposeImageRegion(image_bytes, image_addr, version,
                                    config_.signing_key),
                 image_addr,
                 [image_addr, image_len, region, desc_addr, version,
                  fingerprint, done = std::move(done)](Status s) mutable {
                   if (!s.ok()) {
                     done(s);
                     return;
                   }
                   done(PreparedImage{desc_addr, image_addr, image_len,
                                      region - kImageDescBytes, version,
                                      fingerprint});
                 });
  });
}

ControlPlane::Done ControlPlane::RecordCommit(CodeFlow& flow, int hook,
                                              const PreparedImage& prepared,
                                              Done done) {
  return [this, &flow, hook, prepared, done = std::move(done)](Status s) {
    if (!s.ok()) {
      done(s);
      return;
    }
    auto& deployment = flow.hooks_[hook];
    if (deployment.desc_addr != 0) {
      deployment.desc_history.push_back(CodeFlow::PastImage{
          deployment.desc_addr, deployment.region_capacity + kImageDescBytes,
          deployment.fingerprint});
    }
    deployment.desc_addr = prepared.desc_addr;
    deployment.image_addr = prepared.image_addr;
    deployment.region_capacity = prepared.region_capacity;
    deployment.version = prepared.version;
    deployment.fingerprint = prepared.fingerprint;
    // Reclaim history beyond hook_history_depth: drop each superseded
    // desc's refcount over RDMA; its region is dead scratchpad from here
    // on. Accounting lands on the sandbox's stats once the write
    // completes (simulation-side backref).
    auto& history = deployment.desc_history;
    while (history.size() > config_.hook_history_depth) {
      const CodeFlow::PastImage past = history.front();
      history.erase(history.begin());
      WriteQword(flow, past.desc_addr + kDescRefcount, 0,
                 [&flow, past](Status reclaimed) {
                   if (reclaimed.ok() && flow.sandbox != nullptr) {
                     flow.sandbox->AccountReclaim(past.region_bytes);
                   }
                 });
    }
    done(OkStatus());
  };
}

void ControlPlane::CommitPrepared(CodeFlow& flow, int hook,
                                  const PreparedImage& prepared, Done done) {
  CommitHook(flow, hook, prepared.desc_addr,
             RecordCommit(flow, hook, prepared, std::move(done)));
}

void ControlPlane::CommitPreparedCas(CodeFlow& flow, int hook,
                                     const PreparedImage& prepared,
                                     std::uint64_t expected_desc, Done done) {
  // CAS, not a blind write: wave commits race quarantines and other
  // writers, and a lost race must surface instead of clobbering the slot.
  RemoteAtomic(
      flow, rdma::Opcode::kCompareSwap, SlotAddr(flow, hook), expected_desc,
      prepared.desc_addr, "commit CAS failed",
      [this, &flow, hook, prepared, expected_desc,
       done = std::move(done)](StatusOr<std::uint64_t> original) mutable {
        if (!original.ok()) {
          done(original.status());
          return;
        }
        if (*original != expected_desc) {
          done(Aborted("hook slot moved under commit CAS"));
          return;
        }
        CommitTail(flow, hook, std::nullopt, /*may_chain=*/true,
                   RecordCommit(flow, hook, prepared, std::move(done)));
      });
}

template <class Source>
void ControlPlane::EnsureAndLink(CodeFlow& flow, const Source& src,
                                 const ImageOf<Source>& image,
                                 std::uint64_t fp,
                                 std::function<void(StatusOr<Bytes>)> done,
                                 InjectTrace* trace) {
  const sim::SimTime t0 = events_.Now();
  auto maps = std::make_shared<const std::vector<bpf::MapSpec>>(
      ExtensionKind<Source>::XStates(src));
  DeployXStates(flow, std::move(maps), 0,
                [this, &flow, &image, fp, trace, t0,
                 done = std::move(done)](Status s) mutable {
    if (!s.ok()) {
      done(s);
      return;
    }
    const sim::SimTime t1 = events_.Now();
    if (trace != nullptr) trace->xstate = t1 - t0;
    LinkCode(flow, image, fp,
             [this, trace, t1, done = std::move(done)](
                 StatusOr<Bytes> wire) mutable {
               if (wire.ok() && trace != nullptr) {
                 trace->link = events_.Now() - t1;
               }
               done(std::move(wire));
             });
  });
}

template <class Source>
void ControlPlane::LinkAndPrepare(
    CodeFlow& flow, const Source& src, const ImageOf<Source>& image, int hook,
    std::uint64_t fp, std::function<void(StatusOr<PreparedImage>)> done) {
  EnsureAndLink(
      flow, src, image, fp,
      [this, &flow, hook, fp, done = std::move(done)](
          StatusOr<Bytes> wire) mutable {
        if (!wire.ok()) {
          done(wire.status());
          return;
        }
        PrepareImage(flow, std::move(wire).value(),
                     NextVersionFor(flow, hook), std::move(done), fp);
      },
      nullptr);
}

// ---- composed pipelines --------------------------------------------------

template <class Source>
void ControlPlane::Inject(CodeFlow& flow, const Source& src, int hook,
                          std::function<void(StatusOr<InjectTrace>)> done) {
  using K = ExtensionKind<Source>;
  auto trace = std::make_shared<InjectTrace>();
  const sim::SimTime t0 = events_.Now();
  const std::uint64_t fp = K::Fingerprint(src);
  trace->compile_cache_hit = artifacts_.HasImage(K::kKind, fp);
  auto owned = std::make_shared<const Source>(src);
  // Deploy completion: record the spans and hand back the trace.
  Done finish = [this, &flow, hook, trace, t0,
                 done = std::move(done)](Status s) {
    if (!s.ok()) {
      done(s);
      return;
    }
    trace->total = events_.Now() - t0;
    EmitInjectSpans(flow, hook, K::kName, *trace);
    done(*trace);
  };
  Build(
      *owned,
      [this, &flow, owned, hook, fp, trace, finish = std::move(finish)](
          StatusOr<const ImageOf<Source>*> image) mutable {
        if (!image.ok()) {
          finish(image.status());
          return;
        }
        EnsureAndLink(
            flow, *owned, **image, fp,
            [this, &flow, owned, hook, fp, trace, finish = std::move(finish)](
                StatusOr<Bytes> wire) mutable {
              if (!wire.ok()) {
                finish(wire.status());
                return;
              }
              trace->image_bytes = wire->size();
              DeployImageBytes(flow, std::move(wire).value(), hook,
                               NextVersionFor(flow, hook), std::move(finish),
                               trace.get(), fp);
            },
            trace.get());
      },
      trace.get());
}

// The pipeline steps callers outside this file use, for both kinds.
#define RDX_INSTANTIATE_PIPELINE(Source)                                    \
  template void ControlPlane::ValidateCode(const Source&, Done);             \
  template void ControlPlane::JitCompileCode(                                \
      const Source&, std::function<void(StatusOr<const ImageOf<Source>*>)>); \
  template void ControlPlane::Build(                                         \
      const Source&, std::function<void(StatusOr<const ImageOf<Source>*>)>,  \
      InjectTrace*);                                                         \
  template void ControlPlane::LinkCode(                                      \
      CodeFlow&, const ImageOf<Source>&, std::uint64_t,                      \
      std::function<void(StatusOr<Bytes>)>);                                 \
  template void ControlPlane::LinkAndPrepare(                                \
      CodeFlow&, const Source&, const ImageOf<Source>&, int, std::uint64_t,  \
      std::function<void(StatusOr<PreparedImage>)>);                         \
  template void ControlPlane::Inject(                                        \
      CodeFlow&, const Source&, int,                                         \
      std::function<void(StatusOr<InjectTrace>)>);
RDX_INSTANTIATE_PIPELINE(bpf::Program)
RDX_INSTANTIATE_PIPELINE(wasm::FilterModule)
#undef RDX_INSTANTIATE_PIPELINE

// ---- telemetry -----------------------------------------------------------

void ControlPlane::EmitInjectSpans(const CodeFlow& flow, int hook,
                                   const char* kind,
                                   const InjectTrace& trace) {
  if (tracer_ == nullptr) return;
  const std::uint32_t pid = static_cast<std::uint32_t>(flow.node_);
  const std::uint32_t tid = static_cast<std::uint32_t>(hook);
  const sim::SimTime end = events_.Now();
  const sim::SimTime start = end - trace.total;
  char args[160];
  std::snprintf(args, sizeof(args),
                "\"kind\": \"%s\", \"version\": %llu, "
                "\"image_bytes\": %llu, \"cache_hit\": %s",
                kind, static_cast<unsigned long long>(trace.version),
                static_cast<unsigned long long>(trace.image_bytes),
                trace.compile_cache_hit ? "true" : "false");
  tracer_->AddComplete("inject", pid, tid, start, trace.total, args);
  // The pipeline runs its phases back to back; lay them out sequentially
  // from the start (the remainder up to `end` is dispatch overhead).
  struct Phase {
    const char* name;
    sim::Duration dur;
  };
  const Phase phases[] = {
      {"inject:validate", trace.validate}, {"inject:jit", trace.jit},
      {"inject:xstate", trace.xstate},     {"inject:link", trace.link},
      {"inject:transfer", trace.transfer}, {"inject:commit", trace.commit},
  };
  sim::SimTime t = start;
  for (const Phase& phase : phases) {
    if (phase.dur <= 0) continue;
    tracer_->AddComplete(phase.name, pid, tid, t, phase.dur);
    t += phase.dur;
  }
}

telemetry::RingOps ControlPlane::RingOpsFor(CodeFlow& flow) {
  telemetry::RingOps ops;
  CodeFlow* f = &flow;
  ops.read = [this, f](std::uint64_t addr, std::uint32_t len,
                       std::function<void(StatusOr<Bytes>)> cb) {
    RemoteRead(*f, addr, len, "trace ring read failed", cb, cb);
  };
  ops.fetch_add = [this, f](std::uint64_t addr, std::uint64_t delta,
                            std::function<void(StatusOr<std::uint64_t>)> cb) {
    RemoteAtomic(*f, rdma::Opcode::kFetchAdd, addr, delta, 0,
                 "trace ring cursor FETCH_ADD failed", std::move(cb));
  };
  return ops;
}

void ControlPlane::HarvestTrace(CodeFlow& flow,
                                telemetry::Collector& collector, Done done) {
  if (flow.remote_view_.trace_addr == 0) {
    done(FailedPrecondition("remote sandbox publishes no trace ring"));
    return;
  }
  collector.Harvest(RingOpsFor(flow), flow.remote_view_.trace_addr,
                    static_cast<std::uint32_t>(flow.node_), std::move(done));
}

void ControlPlane::ExportMetrics(telemetry::MetricsRegistry& reg) const {
  reg.SetCounter("cp.quarantines", quarantines_);
  reg.SetCounter("cp.compile_cache_hits", artifacts_.hits());
  reg.SetCounter("cp.compile_cache_misses", artifacts_.misses());
  reg.SetCounter("cp.artifact_cache_entries", artifacts_.entries());
  reg.SetCounter("cp.artifact_cache_invalidations",
                 artifacts_.invalidations());
  reg.SetCounter("cp.blacklisted_fingerprints", blacklist_.size());
  reg.SetCounter("cp.codeflows", flows_.size());
  reg.SetCounter("cp.link.wires_built", wires_built_);
  reg.SetCounter("cp.link.wires_shared", wires_shared_);
}

void ControlPlane::Rollback(CodeFlow& flow, int hook, Done done) {
  auto it = flow.hooks_.find(hook);
  if (it == flow.hooks_.end() || it->second.desc_history.empty()) {
    done(FailedPrecondition("no previous version to roll back to"));
    return;
  }
  const CodeFlow::PastImage prev = it->second.desc_history.back();
  it->second.desc_history.pop_back();
  CommitHook(flow, hook, prev.desc_addr, [&flow, hook, prev,
                                          done = std::move(done)](Status s) {
    if (!s.ok()) {
      done(s);
      return;
    }
    auto& deployment = flow.hooks_[hook];
    deployment.desc_addr = prev.desc_addr;
    deployment.fingerprint = prev.fingerprint;
    // Recover the rolled-back version for introspection.
    deployment.version = flow.sandbox->CommittedVersion(hook);
    done(OkStatus());
  });
}

void ControlPlane::Detach(CodeFlow& flow, int hook, Done done) {
  CommitHook(flow, hook, 0, [&flow, hook, done = std::move(done)](Status s) {
    if (s.ok()) flow.hooks_.erase(hook);
    done(s);
  });
}

// ---- runtime guardrails --------------------------------------------------

void ControlPlane::BlacklistFingerprint(std::uint64_t fingerprint) {
  if (fingerprint == 0) return;
  blacklist_.insert(fingerprint);
  // A quarantined source must never be served from the artifact cache:
  // evict its verdicts and compiled images along with the listing.
  artifacts_.Invalidate(fingerprint);
}

bool ControlPlane::IsBlacklisted(std::uint64_t fingerprint) const {
  return fingerprint != 0 && blacklist_.count(fingerprint) != 0;
}

namespace {
HealthView ParseHealthBlock(const Bytes& raw, std::size_t off) {
  HealthView hv;
  hv.executions = LoadLE<std::uint64_t>(raw.data() + off + kHbExecutions);
  hv.traps = LoadLE<std::uint64_t>(raw.data() + off + kHbTraps);
  hv.fuel_exhaustions =
      LoadLE<std::uint64_t>(raw.data() + off + kHbFuelExhaustions);
  hv.consecutive_failures =
      LoadLE<std::uint64_t>(raw.data() + off + kHbConsecutiveFailures);
  hv.last_good_desc =
      LoadLE<std::uint64_t>(raw.data() + off + kHbLastGoodDesc);
  hv.failsafe_detaches =
      LoadLE<std::uint64_t>(raw.data() + off + kHbFailsafeDetaches);
  return hv;
}
}  // namespace

void ControlPlane::ReadHealth(
    CodeFlow& flow, int hook,
    std::function<void(StatusOr<HealthView>)> done) {
  ReadHealthBlocks(flow, hook, 1, "health block read failed", done,
                   [done](std::vector<HealthView> views) {
                     done(views.front());
                   });
}

void ControlPlane::ReadHealthAll(
    CodeFlow& flow,
    std::function<void(StatusOr<std::vector<HealthView>>)> done) {
  ReadHealthBlocks(flow, 0, flow.remote_view_.hook_count,
                   "health array read failed", done, done);
}

void ControlPlane::ReadHealthBlocks(
    CodeFlow& flow, int first_hook, std::uint64_t count, const char* failure,
    Done fail, std::function<void(std::vector<HealthView>)> next) {
  if (flow.remote_view_.health_addr == 0) {
    fail(FailedPrecondition("remote sandbox publishes no health blocks"));
    return;
  }
  RemoteRead(flow,
             flow.remote_view_.health_addr +
                 static_cast<std::uint64_t>(first_hook) * kHealthBlockBytes,
             count * kHealthBlockBytes, failure, fail,
             [count, next = std::move(next)](Bytes raw) {
               std::vector<HealthView> views;
               views.reserve(count);
               for (std::uint64_t i = 0; i < count; ++i) {
                 views.push_back(ParseHealthBlock(raw, i * kHealthBlockBytes));
               }
               next(std::move(views));
             });
}

void ControlPlane::QuarantineHook(CodeFlow& flow, int hook,
                                  std::uint64_t bad_desc,
                                  std::uint64_t good_desc, Done done) {
  // CAS, not a blind write: if the data-plane fail-safe (or another
  // controller) already swung the slot, we must not clobber its choice.
  const sim::SimTime started = events_.Now();
  RemoteAtomic(
      flow, rdma::Opcode::kCompareSwap, SlotAddr(flow, hook), bad_desc,
      good_desc, "quarantine CAS failed",
      [this, &flow, hook, bad_desc, good_desc, started,
       done = std::move(done)](StatusOr<std::uint64_t> original) mutable {
        if (!original.ok()) {
          done(original.status());
          return;
        }
        // original == good_desc or 0: the local fail-safe beat us to the
        // revert — the bad image is already off the execution path, so
        // carry on with the epoch bump + blacklist.
        if (*original != bad_desc && *original != good_desc &&
            *original != 0) {
          done(Aborted("hook slot changed under quarantine CAS"));
          return;
        }
        FinishQuarantine(flow, hook, bad_desc, good_desc, std::move(done),
                         started);
      });
}

void ControlPlane::FinishQuarantine(CodeFlow& flow, int hook,
                                    std::uint64_t bad_desc,
                                    std::uint64_t good_desc, Done done,
                                    sim::SimTime started) {
  ++quarantines_;
  auto it = flow.hooks_.find(hook);
  if (it != flow.hooks_.end()) {
    // Refuse future redeploys of whatever source program produced the
    // bad image.
    if (it->second.desc_addr == bad_desc) {
      BlacklistFingerprint(it->second.fingerprint);
    }
    // Repair bookkeeping: the surviving image is current again; drop it
    // from the history so a later Rollback does not revisit it.
    it->second.desc_addr = good_desc;
    auto& history = it->second.desc_history;
    for (auto h = history.rbegin(); h != history.rend(); ++h) {
      if (h->desc_addr == good_desc) {
        it->second.fingerprint = h->fingerprint;
        history.erase(std::next(h).base());
        break;
      }
    }
    if (good_desc == 0) it->second.fingerprint = 0;
  }
  // Protection change: a quarantine invalidates the NIC's cached
  // translations for the flow's control region (MTT shootdown, the
  // IBV_REREG_MR analog), so the next verb re-walks the host MTT.
  fabric_.InvalidateMtt(flow.node_, flow.rkey);
  // The slot already moved (CAS); the tail is the epoch bump + flush,
  // posted separately.
  CommitTail(flow, hook, std::nullopt, /*may_chain=*/false,
             [this, &flow, hook, bad_desc, good_desc, started,
              done = std::move(done)](Status s) {
               if (!s.ok()) {
                 done(s);
                 return;
               }
               auto it2 = flow.hooks_.find(hook);
               if (it2 != flow.hooks_.end()) {
                 it2->second.version = flow.sandbox->CommittedVersion(hook);
               }
               if (tracer_ != nullptr) {
                 char args[96];
                 std::snprintf(args, sizeof(args),
                               "\"bad_desc\": %llu, \"good_desc\": %llu",
                               static_cast<unsigned long long>(bad_desc),
                               static_cast<unsigned long long>(good_desc));
                 tracer_->AddComplete("quarantine",
                                      static_cast<std::uint32_t>(flow.node_),
                                      static_cast<std::uint32_t>(hook),
                                      started, events_.Now() - started, args);
               }
               done(OkStatus());
             });
}

}  // namespace rdx::core
