// The simulated rack fabric: nodes (DRAM + RNIC), queue-pair plumbing,
// and the DMA engine that executes work requests with calibrated
// latencies over the event queue. Per-QP ordering follows RC semantics:
// work requests start in post order and their completions are delivered
// in order; the first failure moves the QP to Error and flushes the rest.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "rdma/cq.h"
#include "rdma/fault_hook.h"
#include "rdma/memory.h"
#include "rdma/mtt.h"
#include "rdma/qp.h"
#include "rdma/types.h"
#include "sim/event_queue.h"
#include "sim/network.h"

namespace rdx::rdma {

// One server: DRAM, an RNIC with CQs and QPs. Created via Fabric::AddNode.
class Node {
 public:
  Node(NodeId id, std::string name, std::uint64_t memory_bytes)
      : id_(id), name_(std::move(name)), memory_(memory_bytes) {}

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  HostMemory& memory() { return memory_; }
  const HostMemory& memory() const { return memory_; }

 private:
  friend class Fabric;
  NodeId id_;
  std::string name_;
  HostMemory memory_;
  std::vector<std::unique_ptr<CompletionQueue>> cqs_;
  std::vector<std::unique_ptr<QueuePair>> qps_;
};

class Fabric {
 public:
  explicit Fabric(sim::EventQueue& events,
                  sim::LinkModel link = sim::RdmaLink())
      : events_(events), link_(link) {}
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  Node& AddNode(std::string name, std::uint64_t memory_bytes = 64 << 20);
  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }

  CompletionQueue& CreateCq(NodeId node, std::uint32_t capacity = 4096);
  QueuePair& CreateQp(NodeId node, CompletionQueue& send_cq,
                      CompletionQueue& recv_cq);

  // Wires two QPs into a reliable connection (both transition to Rts).
  Status Connect(QueuePair& a, QueuePair& b);

  // Fabric-internal: executes a doorbell-batched chain of WRs posted by
  // QueuePair::PostSendChain (a single PostSend is a one-WR chain). One
  // doorbell ring covers the whole chain; WQE i becomes NIC-visible after
  // the doorbell plus i+1 descriptor fetches, then the usual per-QP wire
  // serialization and RC ordering apply.
  void ExecuteChain(QueuePair& qp, std::span<const SendWr> wrs);

  sim::EventQueue& events() { return events_; }
  const sim::LinkModel& link() const { return link_; }

  // Installs (or clears, with nullptr) the fault-injection hook. At most
  // one hook is active; the fabric does not own it.
  void SetFaultHook(FaultHook* hook) { fault_hook_ = hook; }

  // All QPs that would be disturbed by losing `node`: QPs hosted on it
  // plus QPs on other nodes whose connection terminates there.
  std::vector<QueuePair*> QpsTouching(NodeId node);

  // MTT shootdown: drops cached translations for `key` from every QP
  // hosted on `node` (the node that owns the registered memory). Called
  // automatically on MR deregistration via the HostMemory hook, and by
  // the control plane when quarantining a flow (protection change).
  void InvalidateMtt(NodeId node, MemoryKey key);

  // Counters for tests/benches.
  std::uint64_t ops_executed() const { return ops_executed_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  // Doorbell accounting: every post (single or chained) rings exactly one
  // doorbell; chained_wrs counts WRs that rode a multi-WR chain.
  std::uint64_t doorbells_rung() const { return doorbells_rung_; }
  std::uint64_t chained_wrs() const { return chained_wrs_; }
  // Small-op fast path accounting.
  std::uint64_t inline_wrs() const { return inline_wrs_; }
  std::uint64_t unsignaled_wrs() const { return unsignaled_wrs_; }
  std::uint64_t coalesced_completions() const {
    return coalesced_completions_;
  }
  // MTT cache totals, summed across all per-QP caches.
  std::uint64_t mtt_hits() const;
  std::uint64_t mtt_misses() const;
  std::uint64_t mtt_invalidations() const;

  // Per-QP accounting, recorded when the completion is delivered (so a
  // flushed WR still counts, with its flush latency). Indexed by opcode
  // in enum order: write, read, send, compare-swap, fetch-add.
  struct QpStats {
    std::uint64_t ops = 0;
    std::uint64_t failures = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t ops_by_opcode[5] = {0, 0, 0, 0, 0};
    // Fast-path accounting: WRs whose payload rode the WQE, and
    // successful WRs retired without a CQE (selective signaling).
    std::uint64_t inline_wrs = 0;
    std::uint64_t unsignaled = 0;
    Histogram latency_ns;  // post-to-completion, virtual ns
  };
  const std::unordered_map<QpNum, QpStats>& qp_stats() const {
    return qp_stats_;
  }

 private:
  struct OpOutcome {
    WcStatus status = WcStatus::kSuccess;
    std::uint32_t byte_len = 0;
    std::uint64_t atomic_original = 0;
    Bytes read_payload;  // for kRead: data to land in the local buffer
    bool recv_consumed = false;
    std::uint64_t recv_wr_id = 0;
  };

  // Applies the remote-side effect of `wr` at arrival time.
  OpOutcome ApplyRemote(QueuePair& qp, const SendWr& wr, const Bytes& payload);
  void Complete(QueuePair& qp, const SendWr& wr, const OpOutcome& outcome,
                sim::SimTime posted_at);
  // Shared WR execution path: `nic_ready` is the absolute time the NIC
  // has fetched this WQE and can start processing it (doorbell +
  // descriptor fetches; chains amortize the doorbell share). ExecuteOne
  // adds the per-WQE processing costs (MTT translation, payload DMA
  // fetch for non-inline payloads) and advances the QP's nic_free
  // cursor, so processing serializes across back-to-back WRs.
  void ExecuteOne(QueuePair& qp, const SendWr& wr, sim::SimTime nic_ready);

  // Per-QP MTT cache, created on first use with the link's capacity.
  MttCache& MttFor(QpNum num);

  sim::EventQueue& events_;
  sim::LinkModel link_;
  FaultHook* fault_hook_ = nullptr;
  std::vector<std::unique_ptr<Node>> nodes_;
  QpNum next_qp_num_ = 100;
  std::uint64_t ops_executed_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t doorbells_rung_ = 0;
  std::uint64_t chained_wrs_ = 0;
  std::uint64_t inline_wrs_ = 0;
  std::uint64_t unsignaled_wrs_ = 0;
  std::uint64_t coalesced_completions_ = 0;
  // Per-QP wire/ordering state: RC guarantees that work requests are
  // executed and completed in post order, and the sender NIC serializes
  // payloads onto the wire (store-and-forward).
  struct QpTiming {
    // When the NIC's doorbell/WQE-fetch engine is free for this QP: the
    // NIC drains one doorbell (and its descriptor fetches) at a time, so
    // back-to-back single posts serialize their doorbell cost while a
    // chained post pays it once.
    sim::SimTime nic_free = 0;
    sim::SimTime wire_free = 0;
    sim::SimTime last_arrival = 0;
    sim::SimTime last_completion = 0;
  };
  std::unordered_map<QpNum, QpTiming> qp_timing_;
  std::unordered_map<QpNum, QpStats> qp_stats_;
  // Per-QP NIC translation caches: the requester QP caches lkeys of its
  // own node's memory; in the responder role the same QP caches rkeys
  // (both keys come from the one HostMemory, so they never collide).
  std::unordered_map<QpNum, MttCache> qp_mtt_;
};

}  // namespace rdx::rdma
