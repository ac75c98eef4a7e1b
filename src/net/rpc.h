// RPC lifecycle layer: explicit ownership for every async request/reply
// exchange in the system.
//
// Every service that issues calls owns an RpcClient. A call's completion
// callback lives in the client's pending-call table from Call() until exactly
// one of the following, after which the entry — and everything the callback
// captured — is released:
//   * a reply arrives            -> cb(decoded status, body)
//   * the per-call deadline hits -> cb(Status::TimedOut)
//   * the destination node is reported failed (orphan reaping)
//                                -> cb(Status::Unavailable)
//   * CancelAll() / destruction  -> cb(Status::Aborted) / silently dropped
//
// A callback can never fire twice and can never outlive its call: Complete()
// moves it out of the table and erases the entry before invoking it, and the
// deadline timer is cancelled (and its closure freed) the moment the call
// resolves. RpcStats counts callbacks currently retained by any table — the
// leak-regression tests assert it returns to zero.
#ifndef ORCHESTRA_NET_RPC_H_
#define ORCHESTRA_NET_RPC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/node_host.h"

namespace orchestra::net {

/// Default per-call deadline; matches the paper's conservative end-to-end
/// failure-detection bound (§V-C).
constexpr sim::SimTime kDefaultRpcTimeoutUs = 60 * sim::kMicrosPerSec;

/// Process-wide lifecycle accounting, used by leak-regression tests.
struct RpcStats {
  /// Completion callbacks currently held in any RpcClient's pending table.
  static int64_t callbacks_alive();
  /// Calls started / resolved since process start (resolved counts replies,
  /// timeouts, reaped orphans, and cancellations).
  static uint64_t calls_started();
  static uint64_t calls_resolved();
};

class RpcClient {
 public:
  using Callback = std::function<void(Status, const std::string& body)>;

  struct Counters {
    uint64_t started = 0;
    uint64_t completed = 0;   // reply arrived
    uint64_t timed_out = 0;   // per-call deadline fired
    uint64_t reaped = 0;      // destination reported failed
    uint64_t cancelled = 0;   // CancelAll / destruction
  };

  /// Calls are sent as (service, code) with a req-id header; replies are
  /// expected on (service, reply_code).
  RpcClient(NodeHost* host, ServiceId service, uint16_t reply_code);
  /// Drops (without invoking) every outstanding callback: at teardown the
  /// surrounding services are being destroyed and must not be re-entered.
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Sends a request; `cb` resolves exactly once (see file comment).
  /// Returns the request id.
  uint64_t Call(NodeId to, uint16_t code, std::string body, Callback cb,
                sim::SimTime timeout_us = kDefaultRpcTimeoutUs);

  /// Fan-out: sends to every target; cb(OK) when all succeed, else the first
  /// error once all have resolved.
  void CallAll(const std::vector<NodeId>& targets, uint16_t code,
               const std::string& body, std::function<void(Status)> cb,
               sim::SimTime timeout_us = kDefaultRpcTimeoutUs);

  /// Sequential replica failover: tries targets in order; the first OK reply
  /// wins. Any per-target error (timeout, drop, NotFound...) moves on to the
  /// next target. When all targets have failed, cb receives the last error
  /// (Unavailable if the target list was empty). No self-referential
  /// closures: each attempt's callback owns the remaining state by value.
  void CallFirst(std::vector<NodeId> targets, uint16_t code, std::string body,
                 Callback cb, sim::SimTime timeout_us = kDefaultRpcTimeoutUs);

  /// Orphan reaping: resolves every pending call addressed to `peer` with
  /// Status::Unavailable. Invoked from OnConnectionDrop and when the
  /// membership layer marks a node failed.
  void FailPeer(NodeId peer);

  /// Resolves every pending call with `st` (callbacks are invoked).
  void CancelAll(Status st);

  /// Releases every pending call WITHOUT invoking its callback — for
  /// fail-stop death of the owning node (nothing may execute there anymore)
  /// and for teardown. Counted under Counters::cancelled.
  void DropAll();

  /// Feeds a reply payload received on (service, reply_code); returns false
  /// if it was malformed or raced with a timeout/reap (already resolved).
  bool HandleReply(std::string_view payload);

  size_t pending_count() const { return pending_.size(); }
  const Counters& counters() const { return counters_; }

  /// Encodes req-id + status + body and sends it as (service, reply_code)
  /// from `host`'s node to `to` — the server half of the envelope.
  static void SendReply(NodeHost* host, NodeId to, ServiceId service,
                        uint16_t reply_code, uint64_t req_id, const Status& st,
                        std::string body);

 private:
  struct PendingCall {
    NodeId to = kInvalidNode;
    Callback cb;
    sim::Simulator::EventId deadline_event = 0;  // enforces the deadline
  };

  enum class Resolution { kReply, kTimeout, kReap, kCancel };

  /// Erases the entry (releasing captured state) and then invokes the
  /// callback; no-op if the call already resolved.
  void Resolve(uint64_t req_id, Resolution how, Status st, const std::string& body);

  NodeHost* host_;
  ServiceId service_;
  uint16_t reply_code_;
  uint64_t next_req_id_ = 1;
  std::unordered_map<uint64_t, PendingCall> pending_;
  Counters counters_;
};

}  // namespace orchestra::net

#endif  // ORCHESTRA_NET_RPC_H_
