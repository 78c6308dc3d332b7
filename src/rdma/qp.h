// Reliable-connection queue pair. Follows the ibverbs life cycle:
// created in Init, transitioned to Rtr/Rts by Fabric::Connect, moved to
// Error on the first failed work request (subsequent WRs are flushed).
#pragma once

#include <cstdint>
#include <deque>
#include <span>

#include "common/status.h"
#include "rdma/cq.h"
#include "rdma/types.h"

namespace rdx::rdma {

class Fabric;

enum class QpState : std::uint8_t { kInit, kRtr, kRts, kError };

class QueuePair {
 public:
  QueuePair(Fabric& fabric, NodeId node, QpNum num, CompletionQueue& send_cq,
            CompletionQueue& recv_cq)
      : fabric_(fabric),
        node_(node),
        num_(num),
        send_cq_(send_cq),
        recv_cq_(recv_cq) {}
  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  QpNum num() const { return num_; }
  NodeId node() const { return node_; }
  QpState state() const { return state_; }
  NodeId remote_node() const { return remote_node_; }
  QpNum remote_qp() const { return remote_qp_; }
  CompletionQueue& send_cq() { return send_cq_; }
  CompletionQueue& recv_cq() { return recv_cq_; }

  // Posts a linked list of work requests with a single doorbell ring
  // (ibv_post_send with wr.next chaining). In Rts the fabric picks the
  // chain up immediately (simulated asynchronously); in Error every WR is
  // flushed. The chain shares one MMIO doorbell; each WQE still pays its
  // descriptor fetch, and RC ordering across the chain is identical to
  // posting the WRs one by one.
  Status PostSendChain(std::span<const SendWr> wrs);
  // A one-WR chain: one doorbell, one descriptor fetch.
  Status PostSend(const SendWr& wr);

  // Posts a receive buffer for incoming SENDs.
  Status PostRecv(const RecvWr& wr);

  // Selective-signaling period for chains of two or more WRs: non-tail
  // WRITE WRs are signaled only every `period`-th WR, counted from the
  // chain head; the chain tail is ALWAYS signaled so a poller is never
  // stranded waiting on a fully-unsignaled chain. 0 or 1 disables the
  // rewrite and honors each WR's own flag. Non-WRITE WRs (READ/atomics/
  // SEND) keep their caller-set flag — their consumers need the returned
  // data. A one-WR post has nothing to coalesce and keeps its own flag.
  void SetSignalingPeriod(std::uint32_t period) { signal_period_ = period; }
  std::uint32_t signaling_period() const { return signal_period_; }

  // Used by Fabric.
  void SetConnected(NodeId remote_node, QpNum remote_qp) {
    remote_node_ = remote_node;
    remote_qp_ = remote_qp;
    state_ = QpState::kRts;
  }
  void SetError() { state_ = QpState::kError; }
  bool PopRecv(RecvWr& out) {
    if (recv_queue_.empty()) return false;
    out = recv_queue_.front();
    recv_queue_.pop_front();
    return true;
  }

 private:
  Fabric& fabric_;
  NodeId node_;
  QpNum num_;
  CompletionQueue& send_cq_;
  CompletionQueue& recv_cq_;
  QpState state_ = QpState::kInit;
  NodeId remote_node_ = kInvalidNode;
  QpNum remote_qp_ = 0;
  std::deque<RecvWr> recv_queue_;
  std::uint32_t signal_period_ = 0;
};

}  // namespace rdx::rdma
