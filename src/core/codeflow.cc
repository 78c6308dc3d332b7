#include "core/codeflow.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/log.h"
#include "core/gatekeeper.h"

namespace rdx::core {

namespace {
constexpr std::uint64_t kAllocAlign = 64;
// Selective-signaling period of every CodeFlow QP: within a doorbell-batched
// chain only every 4th WRITE (and always the tail) writes a CQE; PostChain
// reconstructs the implied completions from RC ordering.
constexpr std::uint32_t kSignalingPeriod = 4;
// Why a commit is refused: the image's source fingerprint is blacklisted
// (quarantined after its deploy validated, or a rollback target built from
// a quarantined source), so it must not go live.
constexpr const char* kQuarantined =
    "fingerprint is quarantined; refusing to commit it";

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

const bool* ArtifactCache::FindVerdict(Kind kind, std::uint64_t fp) {
  auto it = entries_.find({kind, fp});
  const bool* found = it == entries_.end() || !it->second.verdict
                          ? nullptr
                          : &*it->second.verdict;
  ++(found != nullptr ? hits_ : misses_);
  return found;
}

void ArtifactCache::PutVerdict(Kind kind, std::uint64_t fp, bool verdict) {
  entries_[{kind, fp}].verdict = verdict;
}

bool ArtifactCache::HasImage(Kind kind, std::uint64_t fp) const {
  auto it = entries_.find({kind, fp});
  return it != entries_.end() && it->second.published;
}

void ArtifactCache::Invalidate(std::uint64_t fp) {
  const std::size_t evicted =
      entries_.erase({Kind::kEbpf, fp}) + entries_.erase({Kind::kWasm, fp});
  if (evicted != 0) ++invalidations_;
}

std::size_t ArtifactCache::entries() const {
  std::size_t n = 0;
  for (const auto& [key, entry] : entries_) {
    n += entry.verdict.has_value() + entry.published;
  }
  return n;
}

StatusOr<std::uint64_t> CodeFlow::Symbol(std::uint64_t hash) const {
  auto it = symbols_.find(hash);
  if (it == symbols_.end()) return NotFound("symbol not exported by target");
  return it->second;
}

void CodeFlow::GraceFreeBlocks(int hook, std::uint64_t seq_bound,
                               const HealthView& health) {
  for (FreeBlock& block : free_blocks_) {
    if (block.hook == hook && block.seq < seq_bound) {
      block.graced = block.desc_addr != health.visible_desc &&
                     block.desc_addr != health.last_good_desc;
    }
  }
}

std::optional<std::uint64_t> CodeFlow::TakeFreeBlock(int hook,
                                                     std::uint64_t bytes) {
  auto it = std::find_if(
      free_blocks_.begin(), free_blocks_.end(), [&](const FreeBlock& b) {
        return b.graced && b.hook == hook && b.bytes == bytes;
      });
  if (it == free_blocks_.end()) return std::nullopt;
  const std::uint64_t addr = it->addr;
  free_blocks_.erase(it);
  return addr;
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

namespace {
// A per-WR completion handler that reports once all `n` WRs completed: OK,
// or Unavailable(`failure`) if any of them did not succeed.
std::function<void(const rdma::WorkCompletion&)> AllCompleted(
    std::size_t n, const char* failure, std::function<void(Status)> done) {
  struct Count {
    std::size_t remaining;
    bool failed = false;
  };
  auto count = std::make_shared<Count>(Count{n});
  return [count, failure, done = std::move(done)](
             const rdma::WorkCompletion& wc) {
    if (wc.status != rdma::WcStatus::kSuccess) count->failed = true;
    if (--count->remaining == 0) {
      done(count->failed ? Unavailable(failure) : OkStatus());
    }
  };
}
}  // namespace

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
  const bool posted = flow.qp->PostSendChain(wrs).ok();
  // The fabric has copied every WRITE's payload (or never will): its
  // staging slot is free again.
  for (const rdma::SendWr& wr : wrs) {
    if (wr.opcode == rdma::Opcode::kWrite) ReleaseSlot(wr.local);
  }
  if (!posted) {
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

auto ControlPlane::Post(CodeFlow& flow, rdma::SendWr wr) {
  return sim::Await<rdma::WorkCompletion>([this, &flow, wr](auto done) {
    PostChain(flow, std::vector<rdma::SendWr>(1, wr), std::move(done));
  });
}

namespace {
// Index of the smallest slot size (kMinSlot << index) that holds `len`.
std::size_t SlotClass(std::uint64_t len, std::uint64_t min_slot) {
  return static_cast<std::size_t>(
      std::bit_width((std::max<std::uint64_t>(len, 1) - 1) / min_slot));
}
}  // namespace

std::optional<std::uint64_t> ControlPlane::StagingArena::Take(
    std::uint64_t len) {
  std::optional<std::uint64_t> offset;
  if (len <= kMaxClassSlot) {
    const std::size_t cls = SlotClass(len, kMinSlot);
    std::vector<std::uint64_t>& free = free_[cls];
    if (!free.empty()) {
      offset = free.back();
      free.pop_back();
    } else if (bump_ + (kMinSlot << cls) <= top_) {
      offset = bump_;
      bump_ += kMinSlot << cls;
    }
  } else {
    const std::uint64_t bytes = AlignUp(len, kMinSlot);
    for (auto it = free_extents_.begin(); it != free_extents_.end(); ++it) {
      if (it->second < bytes) continue;
      offset = it->first;
      if (it->second > bytes) {
        free_extents_.emplace(it->first + bytes, it->second - bytes);
      }
      free_extents_.erase(it);
      break;
    }
    if (!offset && top_ - bump_ >= bytes) {
      top_ -= bytes;
      offset = top_;
    }
  }
  if (!offset) return std::nullopt;
  ++held_;
  high_water_ = std::max(high_water_, bump_ + (kLocalArenaBytes - top_));
  return offset;
}

void ControlPlane::StagingArena::Give(std::uint64_t offset,
                                      std::uint64_t len) {
  if (--held_ == 0) {
    // Nothing is staged: every slot is free, so the arena starts over
    // from untouched ends, whatever order its slots came back in.
    for (std::vector<std::uint64_t>& free : free_) free.clear();
    free_extents_.clear();
    bump_ = 0;
    top_ = kLocalArenaBytes;
    return;
  }
  if (len <= kMaxClassSlot) {
    free_[SlotClass(len, kMinSlot)].push_back(offset);
    return;
  }
  std::uint64_t bytes = AlignUp(len, kMinSlot);
  // Coalesce with the free extents on either side, or with the untouched
  // middle below.
  auto next = free_extents_.lower_bound(offset);
  if (next != free_extents_.end() && next->first == offset + bytes) {
    bytes += next->second;
    next = free_extents_.erase(next);
  }
  if (offset == top_) {
    top_ += bytes;
    return;
  }
  if (next != free_extents_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == offset) {
      prev->second += bytes;
      return;
    }
  }
  free_extents_.emplace_hint(next, offset, bytes);
}

StatusOr<rdma::SendWr> ControlPlane::ScratchWr(CodeFlow& flow,
                                               rdma::Opcode op,
                                               std::uint64_t remote_addr,
                                               std::uint64_t len) {
  if (len > kLocalArenaBytes) return ResourceExhausted("payload too large");
  const std::optional<std::uint64_t> slot = staging_.Take(len);
  if (!slot) return ResourceExhausted("staging arena full");
  rdma::SendWr wr;
  wr.opcode = op;
  wr.local = {local_mr_.addr + *slot, static_cast<std::uint32_t>(len),
              local_mr_.lkey};
  wr.remote_addr = remote_addr;
  wr.rkey = flow.rkey;
  return wr;
}

sim::Task<StatusOr<Bytes>> ControlPlane::RemoteRead(CodeFlow& flow,
                                                    std::uint64_t remote_addr,
                                                    std::uint64_t len,
                                                    const char* failure) {
  RDX_CO_ASSIGN_OR_RETURN(
      const rdma::SendWr wr,
      ScratchWr(flow, rdma::Opcode::kRead, remote_addr, len));
  const rdma::WorkCompletion wc = co_await Post(flow, wr);
  // The landing is read here and given back before the caller resumes,
  // so a caller's next READ (ReadXState's body after its header) may
  // have the whole arena.
  Status status = Unavailable(failure);
  Bytes raw;
  if (wc.status == rdma::WcStatus::kSuccess) {
    const StatusOr<ByteSpan> landed =
        fabric_.node(self_).memory().ReadSpan(wr.local.addr, len);
    status = landed.status();
    if (landed.ok()) raw.assign(landed->begin(), landed->end());
  }
  ReleaseSlot(wr.local);
  RDX_CO_RETURN_IF_ERROR(status);
  co_return std::move(raw);
}

sim::Task<StatusOr<std::uint64_t>> ControlPlane::RemoteAtomic(
    CodeFlow& flow, rdma::Opcode op, std::uint64_t remote_addr,
    std::uint64_t compare_add, std::uint64_t swap, const char* failure) {
  RDX_CO_ASSIGN_OR_RETURN(rdma::SendWr wr, ScratchWr(flow, op, remote_addr));
  wr.compare_add = compare_add;
  wr.swap = swap;
  const rdma::WorkCompletion wc = co_await Post(flow, wr);
  ReleaseSlot(wr.local);
  if (wc.status != rdma::WcStatus::kSuccess) co_return Unavailable(failure);
  co_return wc.atomic_original;
}

// ---- CodeFlow lifecycle ------------------------------------------------

sim::Task<StatusOr<CodeFlow*>> ControlPlane::CreateCodeFlow(
    Sandbox& sandbox, Sandbox::Registration reg) {
  auto flow_owner = std::make_unique<CodeFlow>();
  CodeFlow* flow = flow_owner.get();
  flows_.push_back(std::move(flow_owner));
  flow->node_ = sandbox.node().id();
  flow->sandbox = &sandbox;
  flow->rkey = reg.rkey;
  flow->remote_view_.cb_addr = reg.cb_addr;
  RDX_CO_RETURN_IF_ERROR(co_await ReconnectCodeFlow(*flow));
  co_return flow;
}

sim::Task<Status> ControlPlane::ReconnectCodeFlow(CodeFlow& flow) {
  // The free list is only as good as the bump cursor it was carved from,
  // and a reboot resets that: drop it, and keep reclaims still in flight
  // off the next one.
  flow.free_blocks_.clear();
  ++flow.free_generation_;
  // QP plumbing (the CM exchange). On reconnect the old QP is unusable
  // once errored (real verbs would destroy it); bring up a fresh pair on
  // both ends and re-run the handshake over it.
  rdma::QueuePair& local_qp = fabric_.CreateQp(self_, *cq_, *cq_);
  rdma::CompletionQueue& remote_cq = fabric_.CreateCq(flow.node_);
  rdma::QueuePair& remote_qp =
      fabric_.CreateQp(flow.node_, remote_cq, remote_cq);
  RDX_CO_RETURN_IF_ERROR(fabric_.Connect(local_qp, remote_qp));
  local_qp.SetSignalingPeriod(kSignalingPeriod);
  flow.qp = &local_qp;

  // Handshake, step 1: read the control block.
  RDX_CO_ASSIGN_OR_RETURN(
      const Bytes cb,
      co_await RemoteRead(flow, flow.remote_view_.cb_addr, kControlBlockBytes,
                          "control block read failed"));
  auto word = [&](std::uint64_t off) {
    return LoadLE<std::uint64_t>(cb.data() + off);
  };
  if (word(kCbMagic) != kControlBlockMagic) {
    co_return FailedPrecondition("remote control block has bad magic");
  }
  ControlBlockView& view = flow.remote_view_;
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
  const bool had_state = !flow.hooks_.empty() ||
                         !flow.xstate_addrs_.empty() ||
                         flow.next_meta_slot_ != 0;
  if (had_state && word(kCbScratchBrk) == view.scratch_addr) {
    flow.xstate_addrs_.clear();
    flow.hooks_.clear();
    flow.next_meta_slot_ = 0;
    flow.epoch_ = view.epoch;
  }

  // Step 2: read the symbol table (the exposed global context / GOT).
  RDX_CO_ASSIGN_OR_RETURN(
      const Bytes raw, co_await RemoteRead(flow, view.symtab_addr,
                                           view.symtab_len,
                                           "symbol table read failed"));
  const std::uint32_t count =
      raw.size() < 4 ? 0 : LoadLE<std::uint32_t>(raw.data());
  if (raw.size() < 4 || 4 + count * 16ull > raw.size()) {
    co_return FailedPrecondition("truncated symbol table");
  }
  flow.symbols_.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* entry = raw.data() + 4 + i * 16;
    flow.symbols_.emplace(LoadLE<std::uint64_t>(entry),
                          LoadLE<std::uint64_t>(entry + 8));
  }
  co_return OkStatus();
}

sim::Task<StatusOr<ControlPlane::HookProbe>> ControlPlane::ProbeHook(
    CodeFlow& flow, int hook) {
  RDX_CO_ASSIGN_OR_RETURN(const Bytes slot,
                          co_await RemoteRead(flow, SlotAddr(flow, hook), 8,
                                              "hook slot read failed"));
  const std::uint64_t desc_addr = LoadLE<std::uint64_t>(slot.data());
  if (desc_addr == 0) co_return HookProbe{};
  RDX_CO_ASSIGN_OR_RETURN(
      const Bytes version,
      co_await RemoteRead(flow, desc_addr + kDescVersion, 8,
                          "desc version read failed"));
  co_return HookProbe{desc_addr, LoadLE<std::uint64_t>(version.data())};
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
sim::Task<Status> ControlPlane::ValidateCode(const Source& src,
                                             std::uint64_t fp) {
  using K = ExtensionKind<Source>;
  // Blacklist check comes before the verify cache: a quarantined program
  // is refused even though it verified fine before (verification is
  // necessary but not sufficient, §5).
  if (IsBlacklisted(fp)) co_return PermissionDenied(K::kQuarantined);
  if (const bool* verdict = artifacts_.FindVerdict(K::kKind, fp)) {
    co_return *verdict ? OkStatus() : InvalidArgument(K::kKnownBad);
  }
  // Real verification work happens now; virtual time is charged to the
  // control plane's CPU (not any data-plane node).
  const Status verdict = K::Validate(src);
  artifacts_.PutVerdict(K::kKind, fp, verdict.ok());
  co_await sim::Charge(cpu_, (config_.cost.*K::kValidateCycles)(src.size()));
  co_return verdict;
}

template <class Source>
sim::Task<StatusOr<ImagePtr<Source>>> ControlPlane::JitCompileCode(
    const Source& src, std::uint64_t fp) {
  using K = ExtensionKind<Source>;
  using Image = ImageOf<Source>;
  if (ImagePtr<Source> hit = artifacts_.Find<Image>(K::kKind, fp)) {
    co_return hit;
  }
  // Every miss pays the compile charge, as if it compiled; only the first
  // one in flight runs the compiler.
  ImagePtr<Source> image = artifacts_.Parked<Image>(K::kKind, fp);
  Status compiled;
  if (image != nullptr) {
    ++images_shared_;
  } else {
    ++images_built_;
    StatusOr<Image> fresh = K::Compile(src);
    compiled = fresh.status();
    if (fresh.ok()) {
      image = std::make_shared<const Image>(std::move(fresh).value());
      artifacts_.Park(K::kKind, fp, image);
    }
  }
  co_await sim::Charge(cpu_, (config_.cost.*K::kCompileCycles)(src.size()));
  if (!compiled.ok()) co_return compiled;
  artifacts_.Publish(K::kKind, fp, image);
  co_return image;
}

template <class Source>
sim::Task<StatusOr<ImagePtr<Source>>> ControlPlane::Build(
    const Source& src, std::uint64_t fp) {
  RDX_CO_RETURN_IF_ERROR(co_await ValidateCode(src, fp));
  co_return co_await JitCompileCode(src, fp);
}

// ---- link -------------------------------------------------------------

template <class Image>
sim::Task<StatusOr<ControlPlane::Wire>> ControlPlane::LinkCode(
    CodeFlow& flow, const Image& image, std::uint64_t fp) {
  using K = ExtensionKind<Image>;
  if (!linked_wire_ || linked_wire_->kind != K::kKind ||
      linked_wire_->fp != fp) {
    linked_wire_ = LinkedWire{K::kKind, fp, K::Plan(image), {}, {}};
  }
  LinkedWire& memo = *linked_wire_;
  auto values = ResolveLink(memo.plan, flow.link_target());
  if (!values.ok()) co_return values.status();
  if (memo.wire == nullptr || *values != memo.values) {
    Image linked = image;
    K::Apply(memo.plan, *values, linked);
    memo.values = std::move(values).value();
    memo.wire = std::make_shared<const Bytes>(linked.Serialize());
    ++wires_built_;
  } else {
    ++wires_shared_;
  }
  Wire wire = memo.wire;
  // One relocation's worth whatever the image's count: what the model has
  // always charged. Charging per relocation is a model change (ROADMAP
  // item 1).
  co_await sim::Charge(cpu_, config_.cost.link_cycles_per_reloc);
  co_return std::move(wire);
}

// ---- RDMA building blocks ----------------------------------------------

sim::Task<StatusOr<std::uint64_t>> ControlPlane::RemoteAlloc(
    CodeFlow& flow, std::uint64_t bytes) {
  bytes = AlignUp(bytes, kAllocAlign);
  RDX_CO_ASSIGN_OR_RETURN(
      const std::uint64_t addr,
      co_await RemoteAtomic(flow, rdma::Opcode::kFetchAdd,
                            flow.remote_view_.cb_addr + kCbScratchBrk, bytes,
                            0, "scratchpad FETCH_ADD failed"));
  const ControlBlockView& view = flow.remote_view();
  if (addr + bytes > view.scratch_addr + view.scratch_size) {
    // Deterministic for a given sandbox state — non-retryable (the
    // recovery layer aborts instead of backing off).
    co_return ScratchExhausted("remote scratchpad exhausted");
  }
  co_return addr;
}

sim::Task<StatusOr<std::uint64_t>> ControlPlane::AllocImageBlock(
    CodeFlow& flow, std::uint64_t bytes) {
  const auto oldest = std::find_if(
      flow.free_blocks_.begin(), flow.free_blocks_.end(),
      [&](const CodeFlow::FreeBlock& b) { return b.bytes == bytes; });
  if (oldest != flow.free_blocks_.end() &&
      flow.remote_view_.health_addr != 0) {
    // The grace check (DESIGN.md "Scratchpad reuse"): the refcount write's
    // completion says nothing about the CPU, so read what it published.
    // Only blocks already on the list when the READ is posted are judged
    // by it.
    const int hook = oldest->hook;
    const std::uint64_t seq_bound = flow.free_seq_;
    RDX_CO_ASSIGN_OR_RETURN(const HealthView health,
                            co_await ReadHealth(flow, hook));
    flow.GraceFreeBlocks(hook, seq_bound, health);
    if (const auto reused = flow.TakeFreeBlock(hook, bytes)) {
      co_return *reused;
    }
  }
  co_return co_await RemoteAlloc(flow, bytes);
}

sim::Task<Status> ControlPlane::WriteChunked(CodeFlow& flow, Wire wire,
                                             ByteSpan tail,
                                             std::uint64_t remote_addr) {
  co_return co_await sim::Await<Status>([&](auto done) {
    // Moved onto the stack of the launch that stages and posts it: the
    // wire's reference dies once its WRs are posted, not after the round
    // trip. Nothing here reads the wire or `tail` after the last post,
    // which may resume and finish the caller.
    const Wire held = std::move(wire);
    const std::array<ByteSpan, 2> parts{held ? ByteSpan(*held) : ByteSpan(),
                                        tail};
    const std::size_t total = parts[0].size() + parts[1].size();
    const std::size_t nchunks = std::max<std::size_t>(
        1, (total + config_.chunk_bytes - 1) / config_.chunk_bytes);
    auto on_wc = AllCompleted(nchunks, "RDMA write failed", done);
    auto& mem = fabric_.node(self_).memory();

    // Multi-chunk payloads go out as doorbell-batched chains: the NIC walks
    // the WR linked list after a single MMIO ring, amortizing the per-post
    // doorbell cost across the chain. One chain, unless the free staging
    // slots run out first.
    const bool batch = config_.use_doorbell_batching && nchunks > 1;
    std::vector<rdma::SendWr> chain;
    const ByteSpan* part = parts.data();
    std::size_t part_off = 0;
    std::size_t off = 0;
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t len =
          std::min<std::size_t>(config_.chunk_bytes, total - off);
      auto write =
          ScratchWr(flow, rdma::Opcode::kWrite, remote_addr + off, len);
      if (!write.ok() && !chain.empty()) {
        PostChain(flow, std::exchange(chain, {}), on_wc);
        write = ScratchWr(flow, rdma::Opcode::kWrite, remote_addr + off, len);
      }
      if (!write.ok()) return done(write.status());
      // Gather the chunk from the parts into its slot.
      std::uint8_t* out = mem.SpanForCpu(write->local.addr, len).data();
      for (std::size_t left = len; left > 0;) {
        const std::size_t n = std::min(left, part->size() - part_off);
        out = std::copy_n(part->data() + part_off, n, out);
        left -= n;
        part_off += n;
        if (part_off == part->size()) {
          ++part;
          part_off = 0;
        }
      }
      off += len;
      if (batch) {
        chain.push_back(*write);
      } else {
        PostChain(flow, std::vector<rdma::SendWr>(1, *write), on_wc);
      }
    }
    if (batch) PostChain(flow, std::move(chain), std::move(on_wc));
  });
}

sim::Task<Status> ControlPlane::WriteQword(CodeFlow& flow,
                                           std::uint64_t remote_addr,
                                           std::uint64_t value) {
  std::array<std::uint8_t, 8> qword;
  StoreLE(qword.data(), value);
  co_return co_await WriteChunked(flow, nullptr, qword, remote_addr);
}

// ---- commit ------------------------------------------------------------

sim::Task<Status> ControlPlane::CommitHook(CodeFlow& flow, int hook,
                                           std::uint64_t desc_addr,
                                           std::uint64_t fp) {
  if (!config_.use_lock) {
    if (IsBlacklisted(fp)) co_return PermissionDenied(kQuarantined);
    co_return co_await CommitTail(flow, hook, desc_addr, /*may_chain=*/true);
  }
  // rdx_mutual_excl around the commit: take the sandbox lock via RDMA
  // CAS, commit, release. Contention retries after a short backoff.
  constexpr std::uint64_t kOwner = 0x4350u;  // "CP"
  for (;;) {
    const Status locked = co_await Lock(flow, kOwner);
    if (locked.code() != StatusCode::kAborted) {
      RDX_CO_RETURN_IF_ERROR(locked);
      break;
    }
    co_await sim::Sleep(events_, sim::Micros(5));
  }
  // The blacklist check waits for the lock: a quarantine can land while
  // another owner holds it.
  Status committed = PermissionDenied(kQuarantined);
  if (!IsBlacklisted(fp)) {
    committed = co_await CommitTail(flow, hook, desc_addr, /*may_chain=*/true);
  }
  (void)co_await Unlock(flow, kOwner);
  co_return committed;
}

sim::Task<Status> ControlPlane::CommitTail(
    CodeFlow& flow, int hook, std::optional<std::uint64_t> slot_desc,
    bool may_chain) {
  const std::uint64_t cb = flow.remote_view_.cb_addr;
  const bool chained =
      may_chain && config_.use_doorbell_batching && config_.use_cc_event;
  if (!chained) {
    // Separate posts: the slot write completes before the epoch bump.
    if (slot_desc) {
      RDX_CO_RETURN_IF_ERROR(
          co_await WriteQword(flow, SlotAddr(flow, hook), *slot_desc));
    }
    ++flow.epoch_;
    // Remote epoch bump, fire and forget. Visibility: with rdx_cc_event
    // the control plane injects a flush (constant ~2 us); without it the
    // CPU discovers the new slot only when cache pressure evicts the
    // stale line.
    sim::Start(RemoteAtomic(flow, rdma::Opcode::kFetchAdd, cb + kCbEpoch, 1,
                            0, ""),
               [](StatusOr<std::uint64_t>) {});
    if (config_.use_cc_event) co_return co_await CcEvent(flow, hook);
    flow.sandbox->ScheduleHookRefresh(
        hook, flow.sandbox->VisibilityDelay(/*coherent_flush=*/false));
    co_return OkStatus();
  }
  // One doorbell for [commit write] + epoch FAA + cc_event flush. RC
  // orders them anyway, so separate posts would only add doorbells and a
  // round trip between commit and visibility. The FAA needs no completion
  // of its own (unsignaled; implied by the tail).
  std::vector<rdma::SendWr> chain;
  auto stage = [&](rdma::Opcode op, std::uint64_t remote_addr) -> Status {
    StatusOr<rdma::SendWr> wr = ScratchWr(flow, op, remote_addr);
    if (!wr.ok()) {
      // Nothing is posted: the slots staged so far go back.
      for (const rdma::SendWr& staged : chain) ReleaseSlot(staged.local);
      return wr.status();
    }
    chain.push_back(*wr);
    return OkStatus();
  };
  if (slot_desc) {
    RDX_CO_RETURN_IF_ERROR(stage(rdma::Opcode::kWrite, SlotAddr(flow, hook)));
    (void)fabric_.node(self_).memory().WriteU64(chain.back().local.addr,
                                                *slot_desc);
  }
  RDX_CO_RETURN_IF_ERROR(stage(rdma::Opcode::kFetchAdd, cb + kCbEpoch));
  chain.back().compare_add = 1;
  chain.back().signaled = false;
  const rdma::Sge faa_landing = chain.back().local;
  RDX_CO_RETURN_IF_ERROR(stage(rdma::Opcode::kWrite, cb + kCbDoorbell));
  ++flow.epoch_;
  const char* failure =
      slot_desc ? "commit chain failed" : "cc_event write failed";
  const Status posted = co_await sim::Await<Status>([&](auto done) {
    const std::size_t n = chain.size();
    PostChain(flow, std::move(chain), AllCompleted(n, failure, done));
  });
  // Every WR of the chain has completed, the FAA's landing with it.
  ReleaseSlot(faa_landing);
  RDX_CO_RETURN_IF_ERROR(posted);
  flow.sandbox->ScheduleHookRefresh(
      hook, flow.sandbox->VisibilityDelay(/*coherent_flush=*/true));
  co_return OkStatus();
}

sim::Task<Status> ControlPlane::CcEvent(CodeFlow& flow, int hook) {
  // Models injecting a tiny cache-coherent flush binary at the event
  // hook: one header-sized verb (at the control block's "event hook"
  // doorbell word) plus the flush execution latency.
  RDX_CO_ASSIGN_OR_RETURN(
      const rdma::SendWr wr,
      ScratchWr(flow, rdma::Opcode::kWrite,
                flow.remote_view_.cb_addr + kCbDoorbell));
  const rdma::WorkCompletion wc = co_await Post(flow, wr);
  if (wc.status != rdma::WcStatus::kSuccess) {
    co_return Unavailable("cc_event write failed");
  }
  flow.sandbox->ScheduleHookRefresh(
      hook, flow.sandbox->VisibilityDelay(/*coherent_flush=*/true));
  co_return OkStatus();
}

sim::Task<Status> ControlPlane::Lock(CodeFlow& flow, std::uint64_t owner) {
  RDX_CO_ASSIGN_OR_RETURN(
      const std::uint64_t original,
      co_await RemoteAtomic(flow, rdma::Opcode::kCompareSwap,
                            flow.remote_view_.cb_addr + kCbLock,
                            /*expect unlocked*/ 0, owner, "lock CAS failed"));
  co_return original == 0 ? OkStatus()
                          : Aborted("sandbox lock held by another owner");
}

sim::Task<Status> ControlPlane::Unlock(CodeFlow& flow, std::uint64_t owner) {
  RDX_CO_ASSIGN_OR_RETURN(
      const std::uint64_t original,
      co_await RemoteAtomic(flow, rdma::Opcode::kCompareSwap,
                            flow.remote_view_.cb_addr + kCbLock, owner, 0,
                            "unlock CAS failed"));
  co_return original == 0 ? Aborted("lock was not held") : OkStatus();
}

sim::Task<StatusOr<std::uint64_t>> ControlPlane::Tx(
    CodeFlow& flow, Bytes payload, std::uint64_t qword_addr,
    std::optional<std::uint64_t> qword_value) {
  RDX_CO_ASSIGN_OR_RETURN(const std::uint64_t payload_addr,
                          co_await RemoteAlloc(flow, payload.size()));
  RDX_CO_RETURN_IF_ERROR(co_await WriteChunked(
      flow, std::make_shared<const Bytes>(std::move(payload)), {},
      payload_addr));
  RDX_CO_RETURN_IF_ERROR(co_await WriteQword(
      flow, qword_addr, qword_value.value_or(payload_addr)));
  co_return payload_addr;
}

// ---- XState (§3.4) ------------------------------------------------------

sim::Task<StatusOr<std::uint64_t>> ControlPlane::DeployXState(
    CodeFlow& flow, bpf::MapSpec spec) {
  const std::uint64_t bytes = bpf::MapRequiredBytes(spec);
  // Format the XState locally (header + zeroed body), then land it with a
  // remote transaction whose qword swap publishes its address in the
  // Meta-XState directory.
  Bytes storage(bytes, 0);
  bpf::MapView view(storage);
  RDX_CO_RETURN_IF_ERROR(view.Init(spec));
  if (flow.next_meta_slot_ >= flow.remote_view_.meta_capacity) {
    co_return ResourceExhausted("Meta-XState directory full");
  }
  const std::uint32_t meta_slot = flow.next_meta_slot_++;
  RDX_CO_ASSIGN_OR_RETURN(
      const std::uint64_t xstate_addr,
      co_await Tx(flow, std::move(storage),
                  flow.remote_view_.meta_xstate_addr + meta_slot * 8ull,
                  std::nullopt));
  flow.xstate_addrs_[spec.name] = xstate_addr;
  co_return xstate_addr;
}

template <class Source>
sim::Task<Status> ControlPlane::DeployXStates(CodeFlow& flow,
                                              const Source& src) {
  for (const bpf::MapSpec& spec : ExtensionKind<Source>::XStates(src)) {
    if (flow.xstate_addrs_.count(spec.name) != 0) continue;
    const StatusOr<std::uint64_t> deployed = co_await DeployXState(flow, spec);
    RDX_CO_RETURN_IF_ERROR(deployed.status());
  }
  co_return OkStatus();
}

sim::Task<StatusOr<Bytes>> ControlPlane::ReadXState(CodeFlow& flow,
                                                    std::uint64_t xstate_addr,
                                                    bool ring) {
  RDX_CO_ASSIGN_OR_RETURN(
      Bytes header_bytes,
      co_await RemoteRead(
          flow, xstate_addr, bpf::kMapHeaderBytes,
          ring ? "ring header read failed" : "XState header read failed"));
  RDX_CO_ASSIGN_OR_RETURN(const bpf::MapHeader header,
                          bpf::MapView(header_bytes).Header());
  if (ring && header.type != bpf::MapType::kRingBuf) {
    co_return FailedPrecondition("XState is not a ring buffer");
  }
  const bpf::MapSpec spec{"", header.type, header.key_size, header.value_size,
                          header.max_entries};
  co_return co_await RemoteRead(
      flow, xstate_addr, bpf::MapRequiredBytes(spec),
      ring ? "ring body read failed" : "XState body read failed");
}

sim::Task<StatusOr<Bytes>> ControlPlane::XStateLookup(
    CodeFlow& flow, std::uint64_t xstate_addr, Bytes key) {
  // Read the full XState storage, then resolve the key locally. (An
  // array-map fast path could read just the value; the general path keeps
  // hash maps correct.)
  RDX_CO_ASSIGN_OR_RETURN(Bytes body,
                          co_await ReadXState(flow, xstate_addr, false));
  bpf::MapView view(body);
  RDX_CO_ASSIGN_OR_RETURN(const bpf::MapHeader header, view.Header());
  Bytes value(header.value_size);
  RDX_CO_RETURN_IF_ERROR(view.Lookup(key, value));
  co_return std::move(value);
}

sim::Task<Status> ControlPlane::XStateUpdate(CodeFlow& flow,
                                             std::uint64_t xstate_addr,
                                             Bytes key, Bytes value) {
  // Same pattern: fetch storage, apply the update locally, write back the
  // whole storage (conservative dirty range).
  RDX_CO_ASSIGN_OR_RETURN(Bytes body,
                          co_await ReadXState(flow, xstate_addr, false));
  RDX_CO_RETURN_IF_ERROR(bpf::MapView(body).Update(key, value));
  co_return co_await WriteChunked(
      flow, std::make_shared<const Bytes>(std::move(body)), {}, xstate_addr);
}

sim::Task<Status> ControlPlane::CopyXState(CodeFlow& src,
                                           std::uint64_t src_addr,
                                           CodeFlow& dst,
                                           std::uint64_t dst_addr) {
  // Read the source storage, then move it in one chunked write.
  RDX_CO_ASSIGN_OR_RETURN(Bytes body,
                          co_await ReadXState(src, src_addr, false));
  co_return co_await WriteChunked(
      dst, std::make_shared<const Bytes>(std::move(body)), {}, dst_addr);
}

sim::Task<StatusOr<std::vector<std::pair<Bytes, Bytes>>>>
ControlPlane::XStateDump(CodeFlow& flow, std::uint64_t xstate_addr) {
  RDX_CO_ASSIGN_OR_RETURN(Bytes body,
                          co_await ReadXState(flow, xstate_addr, false));
  co_return bpf::MapView(body).Dump();
}

sim::Task<StatusOr<std::vector<Bytes>>> ControlPlane::XStateRingConsume(
    CodeFlow& flow, std::uint64_t xstate_addr) {
  // Read the whole ring, decode records locally, then advance the remote
  // tail word. Records produced after our snapshot are simply picked up
  // by the next consume; the tail only moves past records we fully
  // decoded, so the producer/consumer protocol stays correct with
  // one-sided access.
  RDX_CO_ASSIGN_OR_RETURN(Bytes body,
                          co_await ReadXState(flow, xstate_addr, true));
  auto records = bpf::MapView(body).RingConsume();
  if (!records.ok() || records->empty()) co_return std::move(records);
  // RingConsume advanced the tail in our local copy; publish it.
  RDX_CO_RETURN_IF_ERROR(co_await WriteQword(
      flow, xstate_addr + bpf::kRingTailOffset,
      LoadLE<std::uint64_t>(body.data() + bpf::kRingTailOffset)));
  co_return std::move(records);
}

// ---- deploy ------------------------------------------------------------

sim::Task<StatusOr<ControlPlane::PreparedImage>> ControlPlane::PrepareImage(
    CodeFlow& flow, Wire image, std::uint64_t version,
    std::uint64_t fingerprint) {
  const std::uint64_t image_len = image->size();
  const std::uint64_t region = ImageRegionBytes(image_len);
  // The region sits at the start of a power-of-two block, so a reclaimed
  // block can take any image of its size class.
  RDX_CO_ASSIGN_OR_RETURN(
      const std::uint64_t image_addr,
      co_await AllocImageBlock(flow, std::bit_ceil(region)));
  const std::uint64_t desc_addr = image_addr + region - kImageDescBytes;
  // The image, then the rest of the region: zero padding to 64 bytes and
  // the ImageDesc. Both are staged straight from where they are, in one
  // transfer, so RC ordering lets the payload writes and the desc write go
  // out back-to-back (doorbell batch).
  std::array<std::uint8_t, 63 + kImageDescBytes> tail{};
  const std::size_t tail_len = region - image_len;
  StoreDesc(tail.data() + tail_len - kImageDescBytes, image_addr, *image,
            version, config_.signing_key);
  RDX_CO_RETURN_IF_ERROR(co_await WriteChunked(
      flow, std::move(image), ByteSpan(tail.data(), tail_len), image_addr));
  co_return PreparedImage{desc_addr,
                          image_addr,
                          image_len,
                          region - kImageDescBytes,
                          version,
                          fingerprint};
}

void ControlPlane::Reclaim(CodeFlow& flow, int hook,
                           const CodeFlow::ImageRegion& region) {
  // Accounting lands on the sandbox's stats once the write completes
  // (simulation-side backref). The block joins the free list then too,
  // unless its placement is unknown or the flow reconnected meanwhile.
  const std::uint64_t generation = flow.free_generation_;
  sim::Start(
      WriteQword(flow, region.desc_addr + kDescRefcount, 0),
      [&flow, hook, region, generation](Status reclaimed) {
        if (!reclaimed.ok()) return;
        const std::uint64_t bytes = region.region_capacity + kImageDescBytes;
        if (flow.sandbox != nullptr) flow.sandbox->AccountReclaim(bytes);
        if (region.image_addr == 0 || generation != flow.free_generation_) {
          return;
        }
        flow.free_blocks_.push_back(CodeFlow::FreeBlock{
            region.image_addr, std::bit_ceil(bytes), region.desc_addr, hook,
            flow.free_seq_++});
      });
}

void ControlPlane::RecordCommit(CodeFlow& flow, int hook,
                                const PreparedImage& prepared) {
  auto& deployment = flow.hooks_[hook];
  if (deployment.desc_addr != 0) {
    deployment.desc_history.push_back(deployment);
  }
  static_cast<CodeFlow::ImageRegion&>(deployment) = {
      prepared.desc_addr, prepared.image_addr, prepared.region_capacity,
      prepared.fingerprint};
  deployment.version = prepared.version;
  // Reclaim history beyond hook_history_depth.
  auto& history = deployment.desc_history;
  while (history.size() > config_.hook_history_depth) {
    Reclaim(flow, hook, history.front());
    history.erase(history.begin());
  }
}

sim::Task<Status> ControlPlane::CommitPrepared(CodeFlow& flow, int hook,
                                               PreparedImage prepared) {
  RDX_CO_RETURN_IF_ERROR(co_await CommitHook(flow, hook, prepared.desc_addr,
                                             prepared.fingerprint));
  RecordCommit(flow, hook, prepared);
  co_return OkStatus();
}

sim::Task<Status> ControlPlane::CommitPreparedCas(CodeFlow& flow, int hook,
                                                  PreparedImage prepared,
                                                  std::uint64_t expected_desc) {
  if (IsBlacklisted(prepared.fingerprint)) {
    co_return PermissionDenied(kQuarantined);
  }
  // CAS, not a blind write: wave commits race quarantines and other
  // writers, and a lost race must surface instead of clobbering the slot.
  RDX_CO_ASSIGN_OR_RETURN(
      const std::uint64_t original,
      co_await RemoteAtomic(flow, rdma::Opcode::kCompareSwap,
                            SlotAddr(flow, hook), expected_desc,
                            prepared.desc_addr, "commit CAS failed"));
  if (original != expected_desc) {
    co_return Aborted("hook slot moved under commit CAS");
  }
  RDX_CO_RETURN_IF_ERROR(
      co_await CommitTail(flow, hook, std::nullopt, /*may_chain=*/true));
  RecordCommit(flow, hook, prepared);
  co_return OkStatus();
}

template <class Source>
sim::Task<StatusOr<ControlPlane::PreparedImage>> ControlPlane::LinkAndPrepare(
    CodeFlow& flow, const Source& src, const ImageOf<Source>& image, int hook,
    std::uint64_t fp) {
  RDX_CO_RETURN_IF_ERROR(co_await DeployXStates(flow, src));
  RDX_CO_ASSIGN_OR_RETURN(Wire wire, co_await LinkCode(flow, image, fp));
  co_return co_await PrepareImage(flow, std::move(wire),
                                  NextVersionFor(flow, hook), fp);
}

// ---- composed pipelines --------------------------------------------------

template <class Source>
sim::Task<StatusOr<InjectTrace>> ControlPlane::Inject(CodeFlow& flow,
                                                      Source src, int hook) {
  using K = ExtensionKind<Source>;
  InjectTrace trace;
  const sim::SimTime t0 = events_.Now();
  const std::uint64_t fp = K::Fingerprint(src);
  trace.compile_cache_hit = artifacts_.HasImage(K::kKind, fp);
  sim::SimTime phase = t0;
  // Ends the current phase: its duration, from the last call until now.
  auto lap = [&] {
    return events_.Now() - std::exchange(phase, events_.Now());
  };

  RDX_CO_RETURN_IF_ERROR(co_await ValidateCode(src, fp));
  trace.validate = lap();
  RDX_CO_ASSIGN_OR_RETURN(const ImagePtr<Source> image,
                          co_await JitCompileCode(src, fp));
  trace.jit = lap();
  RDX_CO_RETURN_IF_ERROR(co_await DeployXStates(flow, src));
  trace.xstate = lap();
  RDX_CO_ASSIGN_OR_RETURN(Wire wire, co_await LinkCode(flow, *image, fp));
  trace.link = lap();
  trace.image_bytes = wire->size();

  // Deploy: one dispatch charge, then the transfer and the commit.
  const std::uint64_t version = NextVersionFor(flow, hook);
  co_await sim::Sleep(events_, config_.cost.rdx_dispatch_overhead);
  lap();
  const CodeFlow::HookDeployment& deployment = flow.hooks_[hook];
  if (!config_.use_tx && deployment.desc_addr != 0 &&
      wire->size() <= deployment.region_capacity) {
    // Vanilla (non-transactional) path: overwrite the live image region
    // in place when it fits. The naive update order — metadata first,
    // then code — leaves a window during which the data-plane CPU reads a
    // *torn* image (new length/version, mixed code bytes). This is the
    // §3.5 hazard rdx_tx's shadow-copy + qword-swap eliminates.
    if (IsBlacklisted(fp)) co_return PermissionDenied(kQuarantined);
    const std::uint64_t image_addr = deployment.image_addr;
    std::array<std::uint8_t, kImageDescBytes> desc;
    StoreDesc(desc.data(), image_addr, *wire, version, config_.signing_key);
    RDX_CO_RETURN_IF_ERROR(
        co_await WriteChunked(flow, nullptr, desc, deployment.desc_addr));
    RDX_CO_RETURN_IF_ERROR(
        co_await WriteChunked(flow, std::move(wire), {}, image_addr));
    flow.hooks_[hook].version = version;
    flow.hooks_[hook].fingerprint = fp;
    trace.transfer = lap();
    // No atomic commit; visibility via cache eviction (or flush if
    // configured).
    flow.sandbox->ScheduleHookRefresh(
        hook, flow.sandbox->VisibilityDelay(config_.use_cc_event));
  } else {
    // Transactional path: prepare (image + desc in a fresh region), then
    // an atomic qword commit.
    RDX_CO_ASSIGN_OR_RETURN(
        const PreparedImage prepared,
        co_await PrepareImage(flow, std::move(wire), version, fp));
    trace.transfer = lap();
    RDX_CO_RETURN_IF_ERROR(co_await CommitPrepared(flow, hook, prepared));
    trace.commit = lap();
    trace.version = prepared.version;
  }
  trace.total = events_.Now() - t0;
  EmitInjectSpans(flow, hook, K::kName, trace);
  co_return trace;
}

// The pipeline steps callers outside this file use, for both kinds.
#define RDX_INSTANTIATE_PIPELINE(Source)                                      \
  template sim::Task<Status> ControlPlane::ValidateCode(const Source&,         \
                                                        std::uint64_t);        \
  template sim::Task<StatusOr<ImagePtr<Source>>> ControlPlane::Build(          \
      const Source&, std::uint64_t);                                           \
  template sim::Task<StatusOr<ControlPlane::Wire>> ControlPlane::LinkCode(     \
      CodeFlow&, const ImageOf<Source>&, std::uint64_t);                       \
  template sim::Task<StatusOr<ControlPlane::PreparedImage>>                    \
  ControlPlane::LinkAndPrepare(CodeFlow&, const Source&,                       \
                               const ImageOf<Source>&, int, std::uint64_t);    \
  template sim::Task<StatusOr<InjectTrace>> ControlPlane::Inject(CodeFlow&,    \
                                                                 Source, int);
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
  // The pipeline runs its phases back to back, with the dispatch charge
  // between link and transfer: lay the build phases forward from the
  // start and the deploy phases backward from the end.
  sim::SimTime t = start;
  auto lay = [&](const char* name, sim::Duration dur) {
    if (dur > 0) tracer_->AddComplete(name, pid, tid, t, dur);
    t += dur;
  };
  lay("inject:validate", trace.validate);
  lay("inject:jit", trace.jit);
  lay("inject:xstate", trace.xstate);
  lay("inject:link", trace.link);
  t = end - trace.transfer - trace.commit;
  lay("inject:transfer", trace.transfer);
  lay("inject:commit", trace.commit);
}

telemetry::RingOps ControlPlane::RingOpsFor(CodeFlow& flow) {
  return {
      [this, &flow](std::uint64_t addr, std::uint32_t len) {
        return RemoteRead(flow, addr, len, "trace ring read failed");
      },
      [this, &flow](std::uint64_t addr, std::uint64_t delta) {
        return RemoteAtomic(flow, rdma::Opcode::kFetchAdd, addr, delta, 0,
                            "trace ring cursor FETCH_ADD failed");
      }};
}

sim::Task<Status> ControlPlane::HarvestTrace(
    CodeFlow& flow, telemetry::Collector& collector) {
  return collector.Harvest(RingOpsFor(flow), flow.remote_view_.trace_addr,
                           static_cast<std::uint32_t>(flow.node_));
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
  reg.SetCounter("cp.compile.images_built", images_built_);
  reg.SetCounter("cp.compile.images_shared", images_shared_);
  reg.SetCounter("cp.link.wires_built", wires_built_);
  reg.SetCounter("cp.link.wires_shared", wires_shared_);
  reg.SetCounter("cp.staging_high_water_bytes", staging_.high_water());
}

sim::Task<Status> ControlPlane::Rollback(CodeFlow& flow, int hook) {
  auto it = flow.hooks_.find(hook);
  if (it == flow.hooks_.end() || it->second.desc_history.empty()) {
    co_return FailedPrecondition("no previous version to roll back to");
  }
  // The target leaves the history only once it is committed: a failed
  // commit keeps it for the next attempt.
  const CodeFlow::ImageRegion target = it->second.desc_history.back();
  RDX_CO_RETURN_IF_ERROR(
      co_await CommitHook(flow, hook, target.desc_addr, target.fingerprint));
  auto& deployment = flow.hooks_[hook];
  auto& history = deployment.desc_history;
  const auto entry = std::find_if(
      history.rbegin(), history.rend(),
      [&](const CodeFlow::ImageRegion& r) {
        return r.desc_addr == target.desc_addr;
      });
  if (entry != history.rend()) history.erase(std::next(entry).base());
  // The rolled-from region is left as it is, never reclaimed: a rollback
  // posts nothing but its commit.
  static_cast<CodeFlow::ImageRegion&>(deployment) = target;
  // Recover the rolled-back version for introspection.
  deployment.version = flow.sandbox->CommittedVersion(hook);
  co_return OkStatus();
}

sim::Task<Status> ControlPlane::Detach(CodeFlow& flow, int hook) {
  const Status s = co_await CommitHook(flow, hook, 0, /*fp=*/0);
  if (s.ok()) flow.hooks_.erase(hook);
  co_return s;
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
  hv.visible_desc = LoadLE<std::uint64_t>(raw.data() + off + kHbVisibleDesc);
  return hv;
}
}  // namespace

sim::Task<StatusOr<HealthView>> ControlPlane::ReadHealth(CodeFlow& flow,
                                                        int hook) {
  RDX_CO_ASSIGN_OR_RETURN(
      const std::vector<HealthView> views,
      co_await ReadHealthBlocks(flow, hook, 1, "health block read failed"));
  co_return views.front();
}

sim::Task<StatusOr<std::vector<HealthView>>> ControlPlane::ReadHealthBlocks(
    CodeFlow& flow, int first_hook, std::uint64_t count,
    const char* failure) {
  if (flow.remote_view_.health_addr == 0) {
    co_return FailedPrecondition("remote sandbox publishes no health blocks");
  }
  RDX_CO_ASSIGN_OR_RETURN(
      const Bytes raw,
      co_await RemoteRead(flow,
                          flow.remote_view_.health_addr +
                              static_cast<std::uint64_t>(first_hook) *
                                  kHealthBlockBytes,
                          count * kHealthBlockBytes, failure));
  std::vector<HealthView> views;
  views.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    views.push_back(ParseHealthBlock(raw, i * kHealthBlockBytes));
  }
  co_return std::move(views);
}

sim::Task<Status> ControlPlane::QuarantineHook(CodeFlow& flow, int hook,
                                               std::uint64_t bad_desc,
                                               std::uint64_t good_desc) {
  // CAS, not a blind write: if the data-plane fail-safe (or another
  // controller) already swung the slot, we must not clobber its choice.
  const sim::SimTime started = events_.Now();
  RDX_CO_ASSIGN_OR_RETURN(
      const std::uint64_t original,
      co_await RemoteAtomic(flow, rdma::Opcode::kCompareSwap,
                            SlotAddr(flow, hook), bad_desc, good_desc,
                            "quarantine CAS failed"));
  // original == good_desc or 0: the local fail-safe beat us to the
  // revert — the bad image is already off the execution path, so carry
  // on with the epoch bump + blacklist.
  if (original != bad_desc && original != good_desc && original != 0) {
    co_return Aborted("hook slot changed under quarantine CAS");
  }
  ++quarantines_;
  auto it = flow.hooks_.find(hook);
  if (it != flow.hooks_.end()) {
    // Refuse future redeploys of whatever source program produced the
    // bad image.
    if (it->second.desc_addr == bad_desc) {
      BlacklistFingerprint(it->second.fingerprint);
    }
    // Repair bookkeeping: the surviving image is current again; drop it
    // from the history so a later Rollback does not revisit it. The bad
    // image's region is left as it is, never reclaimed. (good_desc 0, a
    // detach, matches neither search.)
    CodeFlow::ImageRegion good{good_desc, 0, 0, 0};
    auto& history = it->second.desc_history;
    const auto past = std::find_if(
        history.rbegin(), history.rend(),
        [&](const CodeFlow::ImageRegion& r) {
          return r.desc_addr == good_desc;
        });
    const auto freed = std::find_if(
        flow.free_blocks_.begin(), flow.free_blocks_.end(),
        [&](const CodeFlow::FreeBlock& b) { return b.desc_addr == good_desc; });
    if (past != history.rend()) {
      good = *past;
      history.erase(std::next(past).base());
    } else if (freed != flow.free_blocks_.end()) {
      // A last-good image older than the history: live again, so off the
      // free list (its fingerprint is not known any more).
      good.image_addr = freed->addr;
      good.region_capacity = good_desc - freed->addr;
      flow.free_blocks_.erase(freed);
    }
    static_cast<CodeFlow::ImageRegion&>(it->second) = good;
  }
  // Protection change: a quarantine invalidates the NIC's cached
  // translations for the flow's control region (MTT shootdown, the
  // IBV_REREG_MR analog), so the next verb re-walks the host MTT.
  fabric_.InvalidateMtt(flow.node_, flow.rkey);
  // The slot already moved (CAS); the tail is the epoch bump + flush,
  // posted separately.
  RDX_CO_RETURN_IF_ERROR(
      co_await CommitTail(flow, hook, std::nullopt, /*may_chain=*/false));
  if (auto it2 = flow.hooks_.find(hook); it2 != flow.hooks_.end()) {
    it2->second.version = flow.sandbox->CommittedVersion(hook);
  }
  if (tracer_ != nullptr) {
    char args[96];
    std::snprintf(args, sizeof(args), "\"bad_desc\": %llu, \"good_desc\": %llu",
                  static_cast<unsigned long long>(bad_desc),
                  static_cast<unsigned long long>(good_desc));
    tracer_->AddComplete("quarantine", static_cast<std::uint32_t>(flow.node_),
                         static_cast<std::uint32_t>(hook), started,
                         events_.Now() - started, args);
  }
  co_return OkStatus();
}

}  // namespace rdx::core
