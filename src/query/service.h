// QueryService: the per-node distributed query engine (§V).
//
// Worker role (every node in the snapshot):
//  * instantiates the disseminated plan + routing-table snapshot,
//  * drives leaf scans over the versioned pages it owns (distributed scan
//    spillover pushes remote tuples into the plan at their data node),
//  * routes Rehash output by hash under the query's routing table, batches
//    and compresses blocks,
//  * runs the end-of-stream protocol (§V-B) without control messages: the
//    last block of each stream carries EOS and the stream's block count;
//    a scan waits only for the final spillover-fetch frames of its spill
//    peers (docs/ARCHITECTURE.md "Query dataflow"),
//  * on a recovery message: purges tainted state, re-arms EOS for the new
//    phase, restarts leaf scans for inherited ranges, and re-sends cached
//    output that had been destined to failed nodes (§V-D stages 2-4).
//
// Initiator role:
//  * resolves scan bindings (coordinator records) at the chosen epoch,
//  * takes the routing snapshot and disseminates it with the plan (§V-A),
//  * collects shipped rows (with taints) and runs the final stage,
//  * detects failures via connection drops, participant reports, and
//    optional pings; recovers incrementally or by full restart (§V-C/D).
#ifndef ORCHESTRA_QUERY_SERVICE_H_
#define ORCHESTRA_QUERY_SERVICE_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "overlay/gossip.h"
#include "query/operators.h"
#include "query/plan.h"
#include "storage/service.h"

namespace orchestra::query {

/// The spill peers of one node for a partitioned scan (not broadcast, not
/// over a replicate-everywhere relation) of `pages` under `table`: `to` are
/// the data owners of the pages `self` indexes, `from` the index nodes of
/// the pages whose range `self` owns part of; neither holds `self`. Every
/// node derives them by the same rule, so `y` is in ScanSpillPeers(x).to
/// exactly when `x` is in ScanSpillPeers(y).from.
struct SpillPeers {
  std::set<net::NodeId> to, from;
};
SpillPeers ScanSpillPeers(const std::vector<storage::PageDescriptor>& pages,
                          const overlay::RoutingSnapshot& table, net::NodeId self);

struct QueryOptions {
  enum class RecoveryMode : uint8_t { kNone = 0, kRestart = 1, kIncremental = 2 };
  RecoveryMode recovery = RecoveryMode::kIncremental;
  /// Rows per network block (batching, §V-A).
  uint32_t block_rows = 1024;
  /// Background pings to detect "hung" machines (§V-C).
  bool enable_ping = false;
  sim::SimTime ping_interval_us = 1 * sim::kMicrosPerSec;
  int ping_miss_threshold = 3;
  /// Disable provenance tagging (for the recovery-overhead ablation; queries
  /// cannot be recovered incrementally without it).
  bool provenance = true;
};

struct QueryResult {
  std::vector<Tuple> rows;
  sim::SimTime execution_us = 0;
  uint32_t recoveries = 0;
  uint32_t restarts = 0;
  std::vector<net::NodeId> failures_handled;
};

class QueryService : public net::Service {
 public:
  using Callback = std::function<void(Status, QueryResult)>;

  QueryService(net::NodeHost* host, storage::StorageService* storage,
               overlay::GossipService* gossip,
               std::shared_ptr<storage::SnapshotBoard> board);

  /// Initiator entry point: runs `plan` against `epoch` and delivers the
  /// final rows. The epoch defaults (0) to the gossiped current epoch.
  void Execute(const PhysicalPlan& plan, storage::Epoch epoch, QueryOptions options,
               Callback cb);

  void OnMessage(net::NodeId from, uint16_t code, const std::string& payload) override;
  void OnConnectionDrop(net::NodeId peer) override;
  /// Fail-stop death of this node: release every root (initiator state,
  /// including the user's completion callback), exec, and buffered message
  /// without invoking anything — the node is halted.
  void OnSelfFailed() override {
    roots_.clear();
    execs_.clear();
    pending_.clear();
  }

  net::NodeId node() const { return host_->node(); }

  struct Counters {
    uint64_t blocks_sent = 0;
    uint64_t blocks_received = 0;
    uint64_t rows_routed = 0;
    uint64_t rows_shipped = 0;
    uint64_t rows_dropped_tainted = 0;
    uint64_t scans_restarted = 0;
    uint64_t cache_rows_resent = 0;
  };
  const Counters& counters() const { return counters_; }

  /// Human-readable dump of per-query execution state (stall diagnosis).
  std::string DebugString() const;

  // --- Leak regression hooks -------------------------------------------------
  /// Initiator-side queries still holding a completion callback.
  size_t active_root_count() const { return roots_.size(); }
  /// Worker-side executions still instantiated.
  size_t active_exec_count() const { return execs_.size(); }
  /// Messages buffered ahead of their plan across all queries.
  size_t buffered_message_count() const {
    size_t n = 0;
    for (const auto& [qid, msgs] : pending_) n += msgs.size();
    return n;
  }

 private:
  // Codes 3, 4, 5 and 8 are retired (docs/WIRE_FORMATS.md).
  enum QueryCode : uint16_t {
    kPlan = 1,
    kDataBlock = 2,
    kQueryFetch = 6,
    kShipBlock = 7,
    kNodeSuspect = 9,
    kRecover = 10,
    kAbort = 11,
    kPing = 12,
    kPong = 13,
  };

  // --- Stream state (both roles) --------------------------------------------
  /// Receive side of one sender's stream: blocks into a Rehash, Ship blocks
  /// at the initiator, or fetch frames into a scan. Streams are FIFO, so a
  /// final frame whose seq equals the frames received so far proves that
  /// none went missing; a gap leaves the stream open for good.
  struct Inflow {
    uint32_t received = 0;
    bool ended = false;
    uint32_t ended_phase = 0;

    void Arrive(uint32_t seq, bool final, uint32_t phase) {
      received += 1;
      if (final && received == seq) {
        ended = true;
        ended_phase = std::max(ended_phase, phase);
      }
    }
    bool EndedAt(uint32_t phase) const { return ended && ended_phase >= phase; }
  };

  // --- Worker-side state -----------------------------------------------------
  struct RehashState {
    std::map<net::NodeId, std::vector<BlockRow>> buffers;
    std::map<net::NodeId, uint32_t> sent;  // blocks per destination, all phases
    struct CacheEntry {
      BlockRow row;
      net::NodeId dest;
    };
    std::vector<CacheEntry> cache;  // output cache for recovery resend (§V-D)
    bool eos_sent = false;          // final blocks sent for the current phase
  };

  struct ScanState {
    std::deque<storage::PageDescriptor> pending_pages;
    /// Pages this node already scanned whose ids must be re-routed because
    /// their data-storage node failed (partial rescan, §V-D stage 3).
    std::deque<storage::PageDescriptor> pending_partial;
    bool iteration_done = false;
    size_t async_outstanding = 0;
    bool chain_running = false;
    /// Spillover ids batched per data owner (kQueryFetch).
    std::map<net::NodeId, storage::keys::IdListWriter> batches;
    SpillPeers peers;                              // for the current phase
    std::map<net::NodeId, uint32_t> fetch_sent;    // frames per peer, all phases
    std::map<net::NodeId, Inflow> fetch_in;        // frames from each peer
    bool fetch_closed = false;  // final frames sent for the current phase
  };

  struct Exec {
    uint64_t query_id = 0;
    net::NodeId initiator = net::kInvalidNode;
    storage::Epoch epoch = 0;
    bool provenance = true;
    uint32_t block_rows = 1024;
    PhysicalPlan plan;
    overlay::RoutingSnapshot snapshot;    // as disseminated
    overlay::RoutingSnapshot table;       // current (updated by recovery)
    overlay::RoutingSnapshot prev_table;  // table of the previous phase
    ExecContext cx;
    std::vector<std::unique_ptr<Operator>> ops;
    std::vector<int32_t> parents;
    std::map<int32_t, storage::CoordinatorRecord> bindings;
    std::map<int32_t, RehashState> rehash;
    std::map<int32_t, ScanState> scans;
    std::map<int32_t, std::map<net::NodeId, Inflow>> inflow;  // per rehash op
    std::map<int32_t, bool> net_eos_delivered;  // per rehash op, this phase
    std::vector<BlockRow> ship_buffer;
    uint32_t ship_sent = 0;  // Ship blocks, all phases
    bool ship_eos_sent = false;
  };

  // --- Initiator-side state ---------------------------------------------------
  struct Root {
    uint64_t query_id = 0;
    PhysicalPlan plan;
    storage::Epoch epoch = 0;
    QueryOptions options;
    overlay::RoutingSnapshot snapshot;
    overlay::RoutingSnapshot table;
    uint32_t phase = 0;
    std::vector<net::NodeId> failed;
    DynamicBitset failed_bits;
    std::map<int32_t, storage::CoordinatorRecord> bindings;
    std::vector<BlockRow> results;
    std::map<net::NodeId, Inflow> ship_in;
    Callback cb;
    sim::SimTime started_at = 0;
    uint32_t recoveries = 0;
    uint32_t restarts = 0;
    // Ping-based hung-node detection.
    uint64_t ping_round = 0;
    std::map<net::NodeId, uint64_t> last_pong_round;
    bool ping_timer_armed = false;
  };

  // Worker paths.
  void HandlePlan(net::NodeId from, const std::string& payload);
  void HandleDataBlock(net::NodeId from, const std::string& payload);
  void HandleQueryFetch(net::NodeId from, const std::string& payload);
  void HandleRecover(net::NodeId from, const std::string& payload);
  void HandleAbort(Reader* r);

  void StartExec(Exec& ex);
  void AssignScanPages(Exec& ex, int32_t scan_op,
                       const overlay::RoutingSnapshot& table,
                       std::deque<storage::PageDescriptor>* out) const;
  /// Recomputes the scan's spill peers under ex.table (once per phase).
  void SetSpillPeers(Exec& ex, int32_t scan_op);
  void DriveScanChain(uint64_t query_id, int32_t scan_op);
  enum class ScanMode { kFull, kFailedOwnersOnly };
  void ProcessPage(Exec& ex, int32_t scan_op, const storage::Page& page,
                   ScanMode mode);
  void InjectScanRow(Exec& ex, int32_t scan_op, Tuple tuple, DynamicBitset taint);
  /// Reads `n` ids of a list from `r` on this node (StorageService::
  /// ReadIdList) into the scan with `taint`; a version missing here is
  /// fetched from its replicas instead, and the scan's end of stream waits
  /// for it. Corruption on a malformed list.
  Status ReadScanIds(Exec& ex, int32_t scan_op, Reader* r, uint64_t n,
                     const DynamicBitset& taint);
  void SendFetch(Exec& ex, int32_t scan_op, net::NodeId peer, bool final);
  void FinishScanIteration(Exec& ex, int32_t scan_op);
  void CheckScanEos(Exec& ex, int32_t scan_op);
  void RouteRow(Exec& ex, int32_t rehash_op, BlockRow row, bool count_cache);
  void SendRehashBlock(Exec& ex, int32_t rehash_op, net::NodeId dest, bool eos);
  void CheckNetEos(Exec& ex, int32_t op);
  void ShipRow(Exec& ex, BlockRow row);
  void SendShipBlock(Exec& ex, bool eos);
  std::vector<net::NodeId> LiveMembers(const Exec& ex) const;

  // Initiator paths.
  void DisseminatePlan(Root& root);
  void HandleShipBlock(net::NodeId from, const std::string& payload);
  void HandleSuspect(Root& root, net::NodeId node);
  void CheckRootDone(Root& root);
  void FinishRoot(Root& root, Status st);
  void PingTick(uint64_t query_id);
  std::vector<net::NodeId> LiveMembers(const Root& root) const;

  void ChargeBlockCosts(const TupleBlock& block);
  void SendTo(net::NodeId to, uint16_t code, std::string payload) {
    host_->SendTo(to, net::ServiceId::kQuery, code, std::move(payload));
  }
  Exec* FindExec(uint64_t query_id);
  Root* FindRoot(uint64_t query_id);
  void BufferPending(uint64_t query_id, net::NodeId from, uint16_t code,
                     const std::string& payload);
  /// Records a finished/aborted query id (so late messages are not
  /// re-buffered), evicting the oldest ids beyond a fixed cap.
  void MarkAborted(uint64_t query_id);

  net::NodeHost* host_;
  storage::StorageService* storage_;
  overlay::GossipService* gossip_;
  std::shared_ptr<storage::SnapshotBoard> board_;
  std::map<uint64_t, std::unique_ptr<Exec>> execs_;
  std::map<uint64_t, std::unique_ptr<Root>> roots_;
  // Blocks that raced ahead of their plan message (FIFO is per-connection).
  std::map<uint64_t, std::vector<std::tuple<net::NodeId, uint16_t, std::string>>>
      pending_;
  std::set<uint64_t> aborted_;          // recently finished/aborted queries
  std::deque<uint64_t> aborted_order_;  // insertion order, for capped eviction
  // Peers whose connection dropped (fail-stop, ids are never reused): their
  // queries can make no progress, so messages for them are never buffered.
  std::set<net::NodeId> dropped_peers_;
  uint64_t next_query_seq_ = 1;
  Counters counters_;
};

}  // namespace orchestra::query

#endif  // ORCHESTRA_QUERY_SERVICE_H_
