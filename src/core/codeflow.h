// The RDX remote control plane and the CodeFlow abstraction (Table 1 of
// the paper). One ControlPlane instance runs on a dedicated node; it
// holds a CodeFlow handle per managed sandbox and performs every step of
// the extension life cycle *remotely*:
//
//   rdx_create_codeflow   CreateCodeFlow()   connect a QP, RDMA-read the
//                                            control block + symbol table
//   rdx_validate_code     ValidateCode()     verifier on the CP's CPU
//   rdx_JIT_compile_code  JitCompileCode()   cross-"arch" JIT + compile
//                                            cache keyed by fingerprint
//   rdx_link_code         LinkCode()         patch map relocations with
//                                            node-local XState addresses,
//                                            check helper/host symbols;
//                                            yields the wire bytes
//   rdx_deploy_prog       PrepareImage()     scratchpad block (a reclaimed
//                         + CommitPrepared() one, or FETCH_ADD), chunked
//                                            RDMA WRITEs, ImageDesc,
//                                            atomic qword commit (rdx_tx)
//   rdx_deploy_xstate     DeployXState()     Meta-XState allocation (§3.4)
//   rdx_tx                Tx()               shadow write + qword swap
//   rdx_cc_event          CcEvent()          injected cacheline flush
//   rdx_mutual_excl       Lock()/Unlock()    RDMA CAS sandbox lock
//   rdx_broadcast         (core/broadcast.h) collective CodeFlow + BBU
//
// All operations are asynchronous over the event queue. Each one is a
// coroutine (sim::Task) that the composed flows await in a straight line;
// code that is not a coroutine starts one and carries on (Start, in
// sim/task.h) or steps the event queue until it finishes
// (RunToCompletion, in sim/event_queue.h). The fabric, not wall-clock
// threads, provides concurrency.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "bpf/jit.h"
#include "bpf/verifier.h"
#include "core/extension.h"
#include "core/sandbox.h"
#include "rdma/fabric.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/task.h"
#include "telemetry/collector.h"
#include "wasm/filter.h"

namespace rdx::core {

struct ControlPlaneConfig {
  sim::CostModel cost;
  // Commit through the transactional shadow + qword-swap path. Disabling
  // reproduces "vanilla RDMA" (in-place overwrite, torn reads possible).
  bool use_tx = true;
  // Inject a cache-coherent flush after commits (rdx_cc_event). Without
  // it the data-plane CPU discovers updates only by cache eviction.
  bool use_cc_event = true;
  // Acquire the sandbox lock (rdx_mutual_excl) around commits.
  bool use_lock = false;
  // Max payload per RDMA WRITE work request.
  std::uint32_t chunk_bytes = 256 * 1024;
  // Post multi-WR transfers and the commit tail as doorbell-batched chains
  // (an ibv_post_send linked list) instead of ringing the doorbell per WR.
  // Disable to reproduce the serial per-WR posting cost.
  bool use_doorbell_batching = true;
  // Keyed MAC written into each ImageDesc (integrity, §5). 0 disables.
  std::uint64_t signing_key = 0;
  // How many superseded ImageDescs to keep per hook as rollback targets.
  // Older regions are reclaimed on commit: refcount dropped to 0 over
  // RDMA, the freed bytes accounted in SandboxStats, and the region put on
  // the flow's free list for reuse (DESIGN.md "Scratchpad reuse").
  std::uint32_t hook_history_depth = 8;
};

// Phase timings of one full injection, for the Fig 4b breakdown.
struct InjectTrace {
  sim::Duration validate = 0;
  sim::Duration jit = 0;
  sim::Duration link = 0;
  sim::Duration xstate = 0;
  sim::Duration transfer = 0;  // alloc + image + desc writes
  sim::Duration commit = 0;    // qword swap + flush
  sim::Duration total = 0;
  bool compile_cache_hit = false;
  std::uint64_t image_bytes = 0;
  std::uint64_t version = 0;
};

// Content-addressed JIT artifact cache: verification verdicts and
// compiled images keyed by (extension kind, source-program fingerprint),
// shared by every CodeFlow the control plane manages. A fleet deploy
// validates and compiles once and reuses the artifact for all N targets; a
// redeploy of an identical program skips both phases entirely.
// Invalidation is tied to quarantine — blacklisting a fingerprint evicts
// its artifacts so a quarantined program can never be served from cache
// again.
//
// An image is compiled on the host once per key. The first compile parks
// it in the entry; lookups see it only once it is published, when a CPU
// charge for it ends. A compile that misses while the image is parked
// takes it instead of compiling again. Images are shared: a caller keeps
// its own reference, so Invalidate drops only the cache's.
class ArtifactCache {
 public:
  using Kind = ImageKind;
  template <class T>
  using Ptr = std::shared_ptr<const T>;

  // Each lookup, of a verdict or of a published image, counts one hit or
  // miss; HasImage and Parked probes are free.
  const bool* FindVerdict(Kind kind, std::uint64_t fp);
  void PutVerdict(Kind kind, std::uint64_t fp, bool verdict);
  template <class T>
  Ptr<T> Find(Kind kind, std::uint64_t fp) {
    auto it = entries_.find({kind, fp});
    const Ptr<T> found = it != entries_.end() && it->second.published
                             ? Get<T>(it->second)
                             : nullptr;
    ++(found != nullptr ? hits_ : misses_);
    return found;
  }
  // The image a compile still in flight parked, or null.
  template <class T>
  Ptr<T> Parked(Kind kind, std::uint64_t fp) const {
    auto it = entries_.find({kind, fp});
    return it == entries_.end() || it->second.published ? nullptr
                                                         : Get<T>(it->second);
  }
  template <class T>
  void Park(Kind kind, std::uint64_t fp, Ptr<T> image) {
    entries_[{kind, fp}].image = std::move(image);
  }
  // Makes `image` visible to lookups if it is still the one parked for
  // (kind, fp); an image invalidated meanwhile stays out.
  template <class T>
  void Publish(Kind kind, std::uint64_t fp, const Ptr<T>& image) {
    auto it = entries_.find({kind, fp});
    if (it != entries_.end() && Get<T>(it->second) == image) {
      it->second.published = true;
    }
  }
  bool HasImage(Kind kind, std::uint64_t fp) const;
  // Evicts every artifact derived from `fp` (verdicts + images, parked or
  // published).
  void Invalidate(std::uint64_t fp);
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t invalidations() const { return invalidations_; }
  std::size_t entries() const;  // verdicts + published images

 private:
  struct Entry {
    std::optional<bool> verdict;
    std::variant<std::monostate, Ptr<bpf::JitImage>, Ptr<wasm::WasmImage>>
        image;
    bool published = false;
  };
  template <class T>
  static Ptr<T> Get(const Entry& entry) {
    const Ptr<T>* image = std::get_if<Ptr<T>>(&entry.image);
    return image == nullptr ? nullptr : *image;
  }

  std::map<std::pair<Kind, std::uint64_t>, Entry> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t invalidations_ = 0;
};

// A CodeFlow: the control plane's handle onto one remote sandbox.
class CodeFlow {
 public:
  rdma::NodeId node() const { return node_; }
  const ControlBlockView& remote_view() const { return remote_view_; }
  // Looks up an exported symbol (helper / host function) on the target.
  StatusOr<std::uint64_t> Symbol(std::uint64_t hash) const;
  // Node-local address of the XState deployed for `map_slot` of the most
  // recent LinkCode target (slot -> address registry).
  const XStateMap& xstates() const { return xstate_addrs_; }
  // What LinkCode resolves against: the symbol table read at handshake and
  // the XStates deployed so far.
  LinkTarget link_target() const { return {symbols_, xstate_addrs_}; }
  std::uint64_t epoch() const { return epoch_; }
  // Last committed update generation of a hook (0 = never deployed).
  std::uint64_t HookVersion(int hook) const {
    auto it = hooks_.find(hook);
    return it == hooks_.end() ? 0 : it->second.version;
  }

 private:
  friend class ControlPlane;
  friend class CollectiveCodeFlow;
  friend class Inspector;
  friend class RecoveryManager;
  friend class HealthMonitor;
  rdma::NodeId node_ = rdma::kInvalidNode;
  Sandbox* sandbox = nullptr;  // simulation-side backref for visibility
  rdma::QueuePair* qp = nullptr;
  rdma::MemoryKey rkey = 0;
  ControlBlockView remote_view_;
  SymbolMap symbols_;
  XStateMap xstate_addrs_;
  // Per-hook deployment bookkeeping. An image region: the image at
  // image_addr, then its ImageDesc at image_addr + region_capacity, inside
  // a power-of-two block that starts at image_addr.
  struct ImageRegion {
    std::uint64_t desc_addr = 0;
    // 0 when the placement is unknown (a commit adopted by the recovery
    // layer): such a region is never written in place or reused.
    std::uint64_t image_addr = 0;
    // Image bytes the region holds before its desc (the padded image, not
    // the block).
    std::uint64_t region_capacity = 0;
    // Source-program fingerprint the image was built from (0 = unknown).
    std::uint64_t fingerprint = 0;
  };
  // The committed image plus the version history for rollback (desc
  // addresses stay valid in the scratchpad until reclaimed; only the
  // newest hook_history_depth entries are kept).
  struct HookDeployment : ImageRegion {
    std::uint64_t version = 0;
    std::vector<ImageRegion> desc_history;
  };
  // A reclaimed image block. `graced`: the last READ of its hook's
  // HealthBlock showed that the CPU neither runs its image nor can revert
  // to it. A block is reused only right after such a READ.
  struct FreeBlock {
    std::uint64_t addr = 0;
    std::uint64_t bytes = 0;  // a power of two
    std::uint64_t desc_addr = 0;
    int hook = 0;
    std::uint64_t seq = 0;  // join order on the list
    bool graced = false;
  };
  // Judges `hook`'s blocks that joined before `seq_bound` by `health`, a
  // READ of the hook's HealthBlock posted after they joined: graced unless
  // it names their desc.
  void GraceFreeBlocks(int hook, std::uint64_t seq_bound,
                       const HealthView& health);
  // Takes `hook`'s oldest graced block of exactly `bytes`, or nullopt.
  std::optional<std::uint64_t> TakeFreeBlock(int hook, std::uint64_t bytes);

  std::unordered_map<int, HookDeployment> hooks_;
  // In join order. Dropped on every reconnect (a reboot resets the bump
  // cursor); `free_generation_` keeps reclaims that complete afterwards
  // off the new list.
  std::vector<FreeBlock> free_blocks_;
  std::uint64_t free_seq_ = 0;
  std::uint64_t free_generation_ = 0;
  std::uint32_t next_meta_slot_ = 0;
  std::uint64_t epoch_ = 0;
};

class ControlPlane {
 public:
  using Done = std::function<void(Status)>;
  // A linked image's wire bytes. Immutable and shared: every node that
  // resolves to the same link values deploys the one wire LinkCode built.
  using Wire = std::shared_ptr<const Bytes>;

  // `self` must be a node in the fabric (the control plane's own server);
  // its DRAM provides staging buffers and READ landing zones.
  ControlPlane(sim::EventQueue& events, rdma::Fabric& fabric,
               rdma::NodeId self, ControlPlaneConfig config = {});

  // ---- CodeFlow lifecycle ----
  sim::Task<StatusOr<CodeFlow*>> CreateCodeFlow(Sandbox& sandbox,
                                                Sandbox::Registration reg);
  void CreateCodeFlow(Sandbox& sandbox, const Sandbox::Registration& reg,
                      std::function<void(StatusOr<CodeFlow*>)> done) {
    sim::Start(CreateCodeFlow(sandbox, reg), std::move(done));
  }

  // Recovery: tears down the flow's (errored) QP, establishes a fresh
  // connection, and re-runs the handshake — re-reads the control block
  // and symbol table. If the remote sandbox lost its state since the last
  // handshake (epoch regressed, i.e. the node crashed and rebooted), the
  // flow's XState/hook bookkeeping is reset so deploys start clean.
  sim::Task<Status> ReconnectCodeFlow(CodeFlow& flow);

  // Agentless probe of the committed state of `hook`: reads the hook slot
  // and, when bound, the descriptor's version word. Used to make retried
  // deploys idempotent (was my commit already applied?).
  struct HookProbe {
    std::uint64_t desc_addr = 0;
    std::uint64_t version = 0;
  };
  sim::Task<StatusOr<HookProbe>> ProbeHook(CodeFlow& flow, int hook);

  // ---- health view ----
  // Lease-style liveness from the data path: a node is healthy if some
  // operation on it completed successfully within the last `lease` ns.
  // Returns -1 if the node never completed an operation.
  sim::SimTime LastSuccess(rdma::NodeId node) const;
  bool NodeHealthy(rdma::NodeId node, sim::Duration lease) const;

  // ---- compile pipeline (control-plane CPU) ----
  // One body per step for both extension kinds: `Source` is bpf::Program
  // or wasm::FilterModule, `Image` its compiled form (ExtensionKind), `fp`
  // its fingerprint (computed from `src` when not given). `src` must
  // outlive the returned task.
  // Verifies `src`, charging the control plane's CPU. Verdicts cached; a
  // blacklisted fingerprint is refused before the cache is consulted.
  template <class Source>
  sim::Task<Status> ValidateCode(const Source& src, std::uint64_t fp);
  template <class Source>
  sim::Task<Status> ValidateCode(const Source& src) {
    return ValidateCode(src, ExtensionKind<Source>::Fingerprint(src));
  }
  // ValidateCode, then compile (or take the cached image for) `src`. The
  // caller shares ownership of the image, so it outlives an eviction.
  template <class Source>
  sim::Task<StatusOr<ImagePtr<Source>>> Build(const Source& src,
                                              std::uint64_t fp);
  template <class Source>
  sim::Task<StatusOr<ImagePtr<Source>>> Build(const Source& src) {
    return Build(src, ExtensionKind<Source>::Fingerprint(src));
  }

  // ---- link + deploy ----
  // Resolves the image's relocations against `flow`'s symbol table and
  // XState registry and returns the linked image's wire bytes. `image` must
  // be the artifact compiled from the source whose fingerprint is `fp`.
  // Nodes that resolve to the same values get the same bytes, so the wire
  // is built (copy, patch, Serialize) only when (kind, fp, values) differs
  // from the last one built; otherwise that wire is shared, not copied.
  // Either way the link is charged to the control plane's CPU.
  template <class Image>
  sim::Task<StatusOr<Wire>> LinkCode(CodeFlow& flow, const Image& image,
                                     std::uint64_t fp);
  // Allocates + formats an XState instance on the remote node (§3.4).
  sim::Task<StatusOr<std::uint64_t>> DeployXState(CodeFlow& flow,
                                                  bpf::MapSpec spec);

  // ---- remote XState access (control-plane side) ----
  sim::Task<StatusOr<Bytes>> XStateLookup(CodeFlow& flow,
                                          std::uint64_t xstate_addr,
                                          Bytes key);
  sim::Task<Status> XStateUpdate(CodeFlow& flow, std::uint64_t xstate_addr,
                                 Bytes key, Bytes value);

  // Copies a live XState instance between nodes (read from src, write to
  // dst) — the state-transfer half of extension live migration (§4).
  // `dst_addr` must hold an XState of identical geometry.
  sim::Task<Status> CopyXState(CodeFlow& src, std::uint64_t src_addr,
                               CodeFlow& dst, std::uint64_t dst_addr);

  // Reads an entire remote XState and returns its (key, value) pairs —
  // the agentless equivalent of the per-node map-dump polling whose CPU
  // tax the Redis experiment quantifies.
  sim::Task<StatusOr<std::vector<std::pair<Bytes, Bytes>>>> XStateDump(
      CodeFlow& flow, std::uint64_t xstate_addr);
  void XStateDump(CodeFlow& flow, std::uint64_t xstate_addr,
                  std::function<void(
                      StatusOr<std::vector<std::pair<Bytes, Bytes>>>)>
                      done) {
    sim::Start(XStateDump(flow, xstate_addr), std::move(done));
  }

  // Streaming telemetry: drains a remote ring-buffer XState — reads the
  // ring over RDMA, decodes complete records, and advances the remote
  // tail with an 8-byte write. This is the agentless replacement for the
  // per-node polling daemon whose CPU tax the Redis experiment measures:
  // the extension produces records locally; the control plane consumes
  // them with zero data-plane cycles.
  sim::Task<StatusOr<std::vector<Bytes>>> XStateRingConsume(
      CodeFlow& flow, std::uint64_t xstate_addr);

  // ---- sync primitives (§3.5) ----
  // Remote transaction: land `payload` at a fresh scratchpad address,
  // then swap the 8-byte word at `qword_addr` to `qword_value` (nullopt:
  // to the payload's own address). Reports the payload address.
  sim::Task<StatusOr<std::uint64_t>> Tx(
      CodeFlow& flow, Bytes payload, std::uint64_t qword_addr,
      std::optional<std::uint64_t> qword_value);
  // Cache-coherence event: flush the data-plane CPU's view of `hook`.
  sim::Task<Status> CcEvent(CodeFlow& flow, int hook);
  // Sandbox-level mutual exclusion via RDMA CAS on the lock word.
  sim::Task<Status> Lock(CodeFlow& flow, std::uint64_t owner);
  sim::Task<Status> Unlock(CodeFlow& flow, std::uint64_t owner);

  // ---- two-phase deploy (used by rdx_broadcast) ----
  // Phase 1: land image + ImageDesc in the remote scratchpad, no commit.
  struct PreparedImage {
    std::uint64_t desc_addr = 0;
    std::uint64_t image_addr = 0;
    std::uint64_t image_len = 0;
    std::uint64_t region_capacity = 0;
    std::uint64_t version = 0;
    // Source-program fingerprint (0 when deployed from raw image bytes).
    std::uint64_t fingerprint = 0;
  };
  sim::Task<StatusOr<PreparedImage>> PrepareImage(
      CodeFlow& flow, Wire image, std::uint64_t version,
      std::uint64_t fingerprint = 0);
  // Phase 2: atomically swing the hook slot to the prepared desc. Both
  // commits refuse (PermissionDenied) an image whose fingerprint was
  // blacklisted while it was being deployed.
  sim::Task<Status> CommitPrepared(CodeFlow& flow, int hook,
                                   PreparedImage prepared);
  // Phase 2 by CAS instead of a blind write: swings the slot from
  // `expected_desc` to the prepared desc and fails with Aborted if the
  // slot moved (another writer — e.g. a quarantine — won the race). Used
  // by the pipelined broadcast's fanned-out commit waves.
  sim::Task<Status> CommitPreparedCas(CodeFlow& flow, int hook,
                                      PreparedImage prepared,
                                      std::uint64_t expected_desc);

  // The per-node step of rdx_broadcast and the pipelined deploy: deploy
  // the XStates `src` declares but the node lacks, link `image` (compiled
  // from `src`, whose fingerprint is `fp`) and PrepareImage it for `hook`.
  template <class Source>
  sim::Task<StatusOr<PreparedImage>> LinkAndPrepare(
      CodeFlow& flow, const Source& src, const ImageOf<Source>& image,
      int hook, std::uint64_t fp);

  // ---- composed pipelines ----
  // Full injection: validate -> JIT (cached) -> deploy XState -> link ->
  // deploy -> commit (+flush). The paper's rdx_* calls in one flow; the
  // trace times each phase.
  template <class Source>
  sim::Task<StatusOr<InjectTrace>> Inject(CodeFlow& flow, Source src,
                                          int hook);
  void InjectExtension(CodeFlow& flow, const bpf::Program& prog, int hook,
                       std::function<void(StatusOr<InjectTrace>)> done) {
    sim::Start(Inject(flow, prog, hook), std::move(done));
  }
  void InjectWasmFilter(CodeFlow& flow, const wasm::FilterModule& module,
                        int hook,
                        std::function<void(StatusOr<InjectTrace>)> done) {
    sim::Start(Inject(flow, module, hook), std::move(done));
  }
  // Reverts `hook` to its previous committed version in microseconds
  // (desc re-commit; no re-transfer). §4 "rollback and hot-patching".
  sim::Task<Status> Rollback(CodeFlow& flow, int hook);
  // Detach: commit 0 into the hook slot.
  sim::Task<Status> Detach(CodeFlow& flow, int hook);

  // ---- runtime guardrails (agentless health + quarantine) ----
  // One-sided READ of one hook's HealthBlock — zero data-plane cycles.
  sim::Task<StatusOr<HealthView>> ReadHealth(CodeFlow& flow, int hook);
  // One READ covering every hook's HealthBlock on the node.
  sim::Task<StatusOr<std::vector<HealthView>>> ReadHealthAll(CodeFlow& flow) {
    return ReadHealthBlocks(flow, 0, flow.remote_view_.hook_count,
                            "health array read failed");
  }
  // Remote quarantine of a misbehaving extension: CAS the hook slot from
  // `bad_desc` back to `good_desc` (the last-good image, 0 = detach),
  // bump the epoch, flush the data-plane CPU's view, and blacklist the
  // bad image's source fingerprint so redeploys are refused at
  // ValidateCode time. If the slot already moved off `bad_desc` (the
  // local fail-safe won the race) the quarantine is treated as contained.
  sim::Task<Status> QuarantineHook(CodeFlow& flow, int hook,
                                   std::uint64_t bad_desc,
                                   std::uint64_t good_desc);
  void BlacklistFingerprint(std::uint64_t fingerprint);
  bool IsBlacklisted(std::uint64_t fingerprint) const;
  std::uint64_t quarantines() const { return quarantines_; }

  // ---- telemetry ----
  // When set, the control plane records spans on the shared timeline:
  // per-phase injection breakdowns, quarantine windows, broadcast waves.
  void SetTracer(telemetry::Tracer* tracer) { tracer_ = tracer; }
  telemetry::Tracer* tracer() { return tracer_; }
  // Adapts this flow's QP into the one-sided verb surface the telemetry
  // collector harvests through (READ + FETCH_ADD only).
  telemetry::RingOps RingOpsFor(CodeFlow& flow);
  // Convenience: harvest the flow's sandbox TraceRing into `collector`.
  sim::Task<Status> HarvestTrace(CodeFlow& flow,
                                 telemetry::Collector& collector);
  void HarvestTrace(CodeFlow& flow, telemetry::Collector& collector,
                    Done done) {
    sim::Start(HarvestTrace(flow, collector), std::move(done));
  }
  // Control-plane counters (quarantines, compile caches, flow count,
  // images compiled and shared, link wires built and shared, the staging
  // arena's high-water mark).
  void ExportMetrics(telemetry::MetricsRegistry& reg) const;

  // ---- accessors ----
  sim::EventQueue& events() { return events_; }
  rdma::NodeId self() const { return self_; }
  const ControlPlaneConfig& config() const { return config_; }
  sim::CpuScheduler& cpu() { return cpu_; }
  const ArtifactCache& artifact_cache() const { return artifacts_; }
  std::uint64_t compile_cache_hits() const { return artifacts_.hits(); }
  std::uint64_t compile_cache_misses() const { return artifacts_.misses(); }

 private:
  friend class Inspector;
  struct PendingOp {
    std::function<void(const rdma::WorkCompletion&)> on_complete;
    // What an implied completion of this WR reports.
    rdma::Opcode opcode;
    std::uint32_t byte_len;
  };

  // The one post path: registers a pending completion per WR, inlines
  // WRITEs that fit the WQE, renews the target's health lease on success,
  // and surfaces an error completion for any WR the QP rejected. Several
  // WRs go out as one doorbell-batched chain; `per_wr_done` fires once per
  // WR in RC order (unsignaled successes are implied by later CQEs).
  void PostChain(CodeFlow& flow, std::vector<rdma::SendWr> wrs,
                 std::function<void(const rdma::WorkCompletion&)> per_wr_done);
  // Awaitable one-WR PostChain; yields the WR's completion. (Defined in
  // codeflow.cc, its only user.)
  auto Post(CodeFlow& flow, rdma::SendWr wr);
  // A WR on the flow's rkey whose local side is a staging slot of its
  // own: the WRITE source or the READ/atomic landing buffer. The slot
  // belongs to the WR's post. PostChain gives a WRITE's back once its
  // chain is posted (the fabric has copied the payload by then); the verb
  // that posted a READ or atomic gives its landing back once it has read
  // the completion, before it resumes its caller. ResourceExhausted when
  // no slot is free.
  StatusOr<rdma::SendWr> ScratchWr(CodeFlow& flow, rdma::Opcode op,
                                   std::uint64_t remote_addr,
                                   std::uint64_t len = 8);
  void ReleaseSlot(const rdma::Sge& local) {
    staging_.Give(local.addr - local_mr_.addr, local.length);
  }
  // Single-WR one-sided verbs. A failed completion reports
  // Unavailable(`failure`).
  sim::Task<StatusOr<Bytes>> RemoteRead(CodeFlow& flow,
                                        std::uint64_t remote_addr,
                                        std::uint64_t len,
                                        const char* failure);
  // CAS (`compare_add` expected, `swap` new) or FETCH_ADD (`compare_add`
  // delta); yields the original remote word.
  sim::Task<StatusOr<std::uint64_t>> RemoteAtomic(
      CodeFlow& flow, rdma::Opcode op, std::uint64_t remote_addr,
      std::uint64_t compare_add, std::uint64_t swap, const char* failure);
  // Reads an XState's header to learn its geometry, then its whole
  // storage. `ring` additionally requires a ring buffer.
  sim::Task<StatusOr<Bytes>> ReadXState(CodeFlow& flow,
                                        std::uint64_t xstate_addr, bool ring);
  // Allocates `bytes` in the remote scratchpad via FETCH_ADD on brk.
  sim::Task<StatusOr<std::uint64_t>> RemoteAlloc(CodeFlow& flow,
                                                 std::uint64_t bytes);
  // An image block of `bytes` (a power of two). When the flow has a free
  // block of that size, one READ of the oldest one's hook's HealthBlock
  // (the grace check), then a block of that hook it graces. Otherwise, or
  // if it graces none, RemoteAlloc.
  sim::Task<StatusOr<std::uint64_t>> AllocImageBlock(CodeFlow& flow,
                                                     std::uint64_t bytes);
  // Drops `region`'s refcount to 0 over RDMA; once that write completes,
  // accounts the bytes on the sandbox and puts the block on the free list.
  void Reclaim(CodeFlow& flow, int hook, const CodeFlow::ImageRegion& region);
  // Writes `wire` (which may be null) and then `tail` to `remote_addr`:
  // copies them chunk by chunk into staging slots and posts the chunks,
  // batched into doorbell chains; done after the last WR completes. A
  // chain is posted early when no slot is free for its next chunk, which
  // gives its slots back for the rest. The reference to `wire` is dropped,
  // and `tail` not read, once the last chunk is posted.
  sim::Task<Status> WriteChunked(CodeFlow& flow, Wire wire, ByteSpan tail,
                                 std::uint64_t remote_addr);
  sim::Task<Status> WriteQword(CodeFlow& flow, std::uint64_t remote_addr,
                               std::uint64_t value);
  // Commits desc_addr into the hook slot (under the sandbox lock with
  // use_lock) and makes it visible. The commit point: an image whose
  // source fingerprint `fp` is blacklisted by then (checked once the lock
  // is held) is refused with PermissionDenied and the slot left as it was.
  sim::Task<Status> CommitHook(CodeFlow& flow, int hook,
                               std::uint64_t desc_addr, std::uint64_t fp);
  // The one commit tail: the optional hook-slot write of `slot_desc`, the
  // epoch FAA, then the cc_event flush (or, without use_cc_event, the
  // eviction-delay refresh). With use_doorbell_batching && use_cc_event
  // and `may_chain`, all of it is one doorbell-batched chain; otherwise
  // each WR is its own post.
  sim::Task<Status> CommitTail(CodeFlow& flow, int hook,
                               std::optional<std::uint64_t> slot_desc,
                               bool may_chain);
  // After a successful commit of `prepared`, updates the flow's per-hook
  // bookkeeping: history push, then Reclaim of the regions beyond
  // hook_history_depth.
  void RecordCommit(CodeFlow& flow, int hook, const PreparedImage& prepared);
  // One READ of `count` HealthBlocks starting at `first_hook`.
  sim::Task<StatusOr<std::vector<HealthView>>> ReadHealthBlocks(
      CodeFlow& flow, int first_hook, std::uint64_t count,
      const char* failure);

  // Compiles (or returns the cached image for) `src`, charging the control
  // plane's CPU on every miss. The host compiles once per key: a miss while
  // an earlier compile's charge runs takes the image that compile parked.
  template <class Source>
  sim::Task<StatusOr<ImagePtr<Source>>> JitCompileCode(const Source& src,
                                                       std::uint64_t fp);
  // Deploys the XStates `src` declares that the node lacks, one at a time.
  template <class Source>
  sim::Task<Status> DeployXStates(CodeFlow& flow, const Source& src);
  // Retroactively records the per-phase spans of one completed injection
  // from its InjectTrace deltas (walking back from the end time).
  void EmitInjectSpans(const CodeFlow& flow, int hook, const char* kind,
                       const InjectTrace& trace);

  sim::EventQueue& events_;
  rdma::Fabric& fabric_;
  rdma::NodeId self_;
  ControlPlaneConfig config_;
  sim::CpuScheduler cpu_;
  rdma::CompletionQueue* cq_ = nullptr;

  // The registered local region that stages WRITE sources and lands READ
  // and atomic results (DESIGN.md "Staging buffers"). Its size caps the
  // bytes staged at once.
  static constexpr std::uint64_t kLocalArenaBytes = 16u << 20;
  // Slots up to kMaxClassSlot are powers of two, carved upward from the
  // arena's bottom (a bump cursor) only when that size's free list is
  // empty. Larger landings are carved downward from its top at their
  // 64 B-rounded length and, once given back, kept as coalesced free
  // extents. Once no slot is held the whole arena is untouched again.
  class StagingArena {
   public:
    static constexpr std::uint64_t kMinSlot = 64;
    static constexpr std::size_t kClasses = 13;
    // 256 KiB, the default write chunk.
    static constexpr std::uint64_t kMaxClassSlot = kMinSlot
                                                   << (kClasses - 1);
    // The offset of a free slot of at least `len` bytes, or nullopt.
    std::optional<std::uint64_t> Take(std::uint64_t len);
    // Frees the slot Take returned at `offset` for `len`.
    void Give(std::uint64_t offset, std::uint64_t len);
    // The most of the arena ever carved from its two ends together.
    std::uint64_t high_water() const { return high_water_; }

   private:
    std::array<std::vector<std::uint64_t>, kClasses> free_;
    std::map<std::uint64_t, std::uint64_t> free_extents_;  // offset -> bytes
    std::uint64_t bump_ = 0;
    std::uint64_t top_ = kLocalArenaBytes;
    std::uint64_t held_ = 0;
    std::uint64_t high_water_ = 0;
  };
  rdma::MemoryRegion local_mr_;
  StagingArena staging_;

  std::vector<std::unique_ptr<CodeFlow>> flows_;
  std::unordered_map<std::uint64_t, PendingOp> pending_;
  std::uint64_t next_wr_id_ = 1;
  // Health view: per node, sim time of the last successful completion.
  std::unordered_map<rdma::NodeId, sim::SimTime> last_success_;

  // Content-addressed artifact store: fingerprint -> verdicts + images.
  ArtifactCache artifacts_;

  // The last wire LinkCode built, keyed by everything its bytes depend
  // on: (kind, source fingerprint, resolved link values). One entry, since
  // a fan-out links one artifact to many nodes in a row; the plan is the
  // artifact's, kept while (kind, fp) stays the same.
  struct LinkedWire {
    ImageKind kind;
    std::uint64_t fp;
    LinkPlan plan;
    LinkValues values;
    Wire wire;  // null until built for `values`
  };
  std::optional<LinkedWire> linked_wire_;
  std::uint64_t wires_built_ = 0;
  std::uint64_t wires_shared_ = 0;
  // Compile misses that ran the compiler on the host, and those that took
  // the image an in-flight compile parked.
  std::uint64_t images_built_ = 0;
  std::uint64_t images_shared_ = 0;

  // Quarantined source-program fingerprints; checked before the verify
  // cache so a blacklisted program is refused even if it verified before.
  std::unordered_set<std::uint64_t> blacklist_;
  std::uint64_t quarantines_ = 0;

  telemetry::Tracer* tracer_ = nullptr;  // not owned; optional
};

}  // namespace rdx::core
