#include "query/service.h"

#include <algorithm>

#include "common/log.h"
#include "common/strings.h"

namespace orchestra::query {

namespace {
constexpr size_t kMaxPendingPerQuery = 4096;
constexpr size_t kMaxAbortedTracked = 1024;

// Query ids are (initiator << kQueryInitiatorShift) | sequence, so the
// initiator of any query is recoverable from the id alone.
constexpr int kQueryInitiatorShift = 40;

DynamicBitset SingletonTaint(size_t bits, net::NodeId node) {
  DynamicBitset b(bits);
  if (node < bits) b.Set(node);
  return b;
}
}  // namespace

SpillPeers ScanSpillPeers(const std::vector<storage::PageDescriptor>& pages,
                          const overlay::RoutingSnapshot& table, net::NodeId self) {
  SpillPeers peers;
  for (const storage::PageDescriptor& desc : pages) {
    net::NodeId index_node = table.OwnerOf(desc.home());
    for (net::NodeId owner : table.OwnersOfRange(desc.range_begin(), desc.range_end())) {
      if (owner == index_node) continue;
      if (index_node == self) peers.to.insert(owner);
      if (owner == self) peers.from.insert(index_node);
    }
  }
  return peers;
}

QueryService::QueryService(net::NodeHost* host, storage::StorageService* storage,
                           overlay::GossipService* gossip,
                           std::shared_ptr<storage::SnapshotBoard> board)
    : host_(host), storage_(storage), gossip_(gossip), board_(std::move(board)) {
  host_->Register(net::ServiceId::kQuery, this);
}

// ===========================================================================
// Initiator: Execute / dissemination / collection

void QueryService::Execute(const PhysicalPlan& plan, storage::Epoch epoch,
                           QueryOptions options, Callback cb) {
  Status valid = plan.Validate();
  if (!valid.ok()) {
    cb(valid, {});
    return;
  }
  if (epoch == 0) epoch = gossip_->epoch();

  auto root = std::make_unique<Root>();
  root->query_id =
      (static_cast<uint64_t>(node()) << kQueryInitiatorShift) | next_query_seq_++;
  root->plan = plan;
  root->epoch = epoch;
  root->options = options;
  root->snapshot = board_->current;
  root->table = root->snapshot;
  root->cb = std::move(cb);
  root->started_at = host_->network()->simulator()->now();
  size_t bits = 0;
  for (const auto& m : root->snapshot.members()) {
    bits = std::max<size_t>(bits, m.node + 1);
  }
  root->failed_bits = DynamicBitset(bits);
  uint64_t qid = root->query_id;
  Root& ref = *root;
  roots_[qid] = std::move(root);

  // Resolve every scan's coordinator record at the chosen epoch; this is what
  // pins the query to one consistent version of the database (§IV).
  auto scan_ids = ref.plan.ScanOpIds();
  if (scan_ids.empty()) {
    FinishRoot(ref, Status::InvalidArgument("plan has no scans"));
    return;
  }
  auto remaining = std::make_shared<size_t>(scan_ids.size());
  auto failed = std::make_shared<Status>();
  for (int32_t op : scan_ids) {
    const std::string& rel = ref.plan.op(op).relation;
    storage_->GetCoordinator(
        rel, epoch,
        [this, qid, op, remaining, failed](Status st, storage::CoordinatorRecord rec) {
          Root* live = FindRoot(qid);
          if (live == nullptr) return;
          if (!st.ok() && failed->ok()) *failed = st;
          if (st.ok()) live->bindings[op] = std::move(rec);
          if (--*remaining == 0) {
            if (!failed->ok()) {
              FinishRoot(*live, *failed);
              return;
            }
            DisseminatePlan(*live);
          }
        });
  }
}

void QueryService::DisseminatePlan(Root& root) {
  Writer w;
  w.PutU64(root.query_id);
  w.PutU32(node());
  w.PutVarint64(root.epoch);
  w.PutBool(root.options.provenance);
  w.PutVarint32(root.options.block_rows);
  root.table.EncodeTo(&w);
  root.plan.EncodeTo(&w);
  w.PutVarint32(static_cast<uint32_t>(root.bindings.size()));
  for (const auto& [op, rec] : root.bindings) {
    w.PutVarint32(static_cast<uint32_t>(op));
    rec.EncodeTo(&w);
  }
  std::string payload = w.Release();
  for (net::NodeId m : LiveMembers(root)) {
    SendTo(m, kPlan, payload);
  }
  if (root.options.enable_ping && !root.ping_timer_armed) {
    root.ping_timer_armed = true;
    uint64_t qid = root.query_id;
    host_->network()->RunOnNode(
        node(), host_->network()->simulator()->now() + root.options.ping_interval_us,
        [this, qid] { PingTick(qid); });
  }
}

std::vector<net::NodeId> QueryService::LiveMembers(const Root& root) const {
  std::vector<net::NodeId> live;
  for (const auto& m : root.table.members()) live.push_back(m.node);
  return live;
}

std::vector<net::NodeId> QueryService::LiveMembers(const Exec& ex) const {
  std::vector<net::NodeId> live;
  for (const auto& m : ex.table.members()) live.push_back(m.node);
  return live;
}

void QueryService::HandleShipBlock(net::NodeId from, const std::string& payload) {
  TupleBlock block;
  if (!TupleBlock::Decode(payload, &block).ok()) return;
  Root* root = FindRoot(block.query_id);
  if (root == nullptr) return;
  ChargeBlockCosts(block);
  for (BlockRow& row : block.rows) {
    if (row.taint.Intersects(root->failed_bits)) {
      counters_.rows_dropped_tainted += 1;
      continue;
    }
    root->results.push_back(std::move(row));
  }
  root->ship_in[from].Arrive(block.seq, block.eos, block.phase);
  if (block.eos) CheckRootDone(*root);
}

void QueryService::CheckRootDone(Root& root) {
  for (net::NodeId m : LiveMembers(root)) {
    auto it = root.ship_in.find(m);
    if (it == root.ship_in.end() || !it->second.EndedAt(root.phase)) return;
  }
  FinishRoot(root, Status::OK());
}

void QueryService::FinishRoot(Root& root, Status st) {
  uint64_t qid = root.query_id;
  QueryResult result;
  if (st.ok()) {
    std::vector<Tuple> raw;
    raw.reserve(root.results.size());
    for (BlockRow& r : root.results) raw.push_back(std::move(r.tuple));
    result.rows = root.plan.final_stage.Apply(raw);
  }
  result.execution_us = host_->network()->simulator()->now() - root.started_at;
  result.recoveries = root.recoveries;
  result.restarts = root.restarts;
  result.failures_handled = root.failed;

  // Tell workers to GC their per-query state.
  Writer w;
  w.PutU64(qid);
  for (net::NodeId m : LiveMembers(root)) SendTo(m, kAbort, w.data());

  Callback cb = std::move(root.cb);
  roots_.erase(qid);
  MarkAborted(qid);
  cb(st, std::move(result));
}

void QueryService::HandleSuspect(Root& root, net::NodeId suspect) {
  if (!root.table.Contains(suspect)) return;
  if (std::find(root.failed.begin(), root.failed.end(), suspect) != root.failed.end()) {
    return;
  }
  root.failed.push_back(suspect);
  if (suspect < root.failed_bits.size()) root.failed_bits.Set(suspect);

  switch (root.options.recovery) {
    case QueryOptions::RecoveryMode::kNone:
      FinishRoot(root, Status::Unavailable("node failed during query"));
      return;

    case QueryOptions::RecoveryMode::kRestart: {
      // Abort everywhere and run the whole query again over the remaining
      // nodes — same routing-table derivation as incremental recovery (§VI-E).
      root.restarts += 1;
      Writer w;
      w.PutU64(root.query_id);
      root.table = root.table.ReassignFailed({suspect}, storage_->replication(),
                                             root.table.version() + 1);
      for (net::NodeId m : LiveMembers(root)) SendTo(m, kAbort, w.data());
      MarkAborted(root.query_id);

      uint64_t old_id = root.query_id;
      uint64_t new_id =
          (static_cast<uint64_t>(node()) << kQueryInitiatorShift) | next_query_seq_++;
      auto node_handle = roots_.extract(old_id);
      node_handle.key() = new_id;
      roots_.insert(std::move(node_handle));
      Root& fresh = *roots_[new_id];
      fresh.query_id = new_id;
      fresh.phase = 0;
      fresh.results.clear();
      fresh.ship_in.clear();
      // The old ping timer dies with the old query id; let DisseminatePlan
      // arm a fresh one for the new id.
      fresh.ping_timer_armed = false;
      DisseminatePlan(fresh);
      return;
    }

    case QueryOptions::RecoveryMode::kIncremental: {
      // §V-D stage 1: reassign the failed ranges among live replicas.
      root.recoveries += 1;
      root.phase += 1;
      root.table = root.table.ReassignFailed({suspect}, storage_->replication(),
                                             root.table.version() + 1);
      // Purge tainted rows already collected.
      auto& results = root.results;
      results.erase(std::remove_if(results.begin(), results.end(),
                                   [&root](const BlockRow& r) {
                                     return r.taint.Intersects(root.failed_bits);
                                   }),
                    results.end());
      Writer w;
      w.PutU64(root.query_id);
      w.PutVarint32(root.phase);
      w.PutVarint32(static_cast<uint32_t>(root.failed.size()));
      for (net::NodeId f : root.failed) w.PutU32(f);
      root.table.EncodeTo(&w);
      for (net::NodeId m : LiveMembers(root)) SendTo(m, kRecover, w.data());
      return;
    }
  }
}

void QueryService::PingTick(uint64_t query_id) {
  Root* root = FindRoot(query_id);
  if (root == nullptr) return;
  root->ping_round += 1;
  Writer w;
  w.PutU64(query_id);
  w.PutU64(root->ping_round);
  std::vector<net::NodeId> suspects;
  for (net::NodeId m : LiveMembers(*root)) {
    if (m == node()) continue;
    SendTo(m, kPing, w.data());
    uint64_t last = root->last_pong_round.count(m) ? root->last_pong_round[m] : 0;
    if (root->ping_round > last &&
        root->ping_round - last >
            static_cast<uint64_t>(root->options.ping_miss_threshold)) {
      suspects.push_back(m);
    }
  }
  for (net::NodeId s : suspects) {
    Root* again = FindRoot(query_id);
    if (again == nullptr) return;
    HandleSuspect(*again, s);
  }
  // HandleSuspect may have finished (or restarted) the query; `root` is only
  // valid if the id still resolves.
  if (Root* live = FindRoot(query_id)) {
    host_->network()->RunOnNode(
        node(),
        host_->network()->simulator()->now() + live->options.ping_interval_us,
        [this, query_id] { PingTick(query_id); });
  }
}

// ===========================================================================
// Message dispatch

void QueryService::OnMessage(net::NodeId from, uint16_t code,
                             const std::string& payload) {
  Reader r(payload);
  switch (code) {
    case kPlan:
      HandlePlan(from, payload);
      return;
    case kDataBlock:
      HandleDataBlock(from, payload);
      return;
    case kQueryFetch:
      HandleQueryFetch(from, payload);
      return;
    case kShipBlock:
      HandleShipBlock(from, payload);
      return;
    case kNodeSuspect: {
      uint64_t qid;
      uint32_t suspect;
      if (!r.GetU64(&qid).ok() || !r.GetU32(&suspect).ok()) return;
      if (Root* root = FindRoot(qid)) HandleSuspect(*root, suspect);
      return;
    }
    case kRecover:
      HandleRecover(from, payload);
      return;
    case kAbort:
      HandleAbort(&r);
      return;
    case kPing: {
      uint64_t qid, round;
      if (!r.GetU64(&qid).ok() || !r.GetU64(&round).ok()) return;
      Writer w;
      w.PutU64(qid);
      w.PutU64(round);
      SendTo(from, kPong, w.Release());
      return;
    }
    case kPong: {
      uint64_t qid, round;
      if (!r.GetU64(&qid).ok() || !r.GetU64(&round).ok()) return;
      if (Root* root = FindRoot(qid)) {
        uint64_t& last = root->last_pong_round[from];
        last = std::max(last, round);
      }
      return;
    }
  }
}

void QueryService::OnConnectionDrop(net::NodeId peer) {
  dropped_peers_.insert(peer);
  // Buffered pre-plan messages that can never be replayed are released now
  // instead of being held for the deployment's lifetime: everything buffered
  // for a query whose initiator died (its kPlan will never arrive), and
  // everything the failed peer itself sent.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if ((it->first >> kQueryInitiatorShift) == peer) {
      // Mark it aborted too: peers that have not yet observed the drop keep
      // shipping blocks for this query, and they must not be re-buffered.
      MarkAborted(it->first);
      it = pending_.erase(it);
      continue;
    }
    auto& msgs = it->second;
    msgs.erase(std::remove_if(msgs.begin(), msgs.end(),
                              [peer](const auto& m) { return std::get<0>(m) == peer; }),
               msgs.end());
    if (msgs.empty()) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  // Initiator: direct detection via the dropped TCP connection (§V-A).
  std::vector<uint64_t> root_ids;
  for (auto& [qid, root] : roots_) root_ids.push_back(qid);
  for (uint64_t qid : root_ids) {
    if (Root* root = FindRoot(qid)) HandleSuspect(*root, peer);
  }
  // Worker: report upstream failures to the query initiator (§V-C), or give
  // up if the initiator itself died.
  std::vector<uint64_t> exec_ids;
  for (auto& [qid, ex] : execs_) exec_ids.push_back(qid);
  for (uint64_t qid : exec_ids) {
    Exec* ex = FindExec(qid);
    if (ex == nullptr) continue;
    if (ex->initiator == peer) {
      execs_.erase(qid);
      MarkAborted(qid);
      continue;
    }
    if (ex->initiator == node()) continue;  // the Root path handles it
    if (ex->table.Contains(peer)) {
      Writer w;
      w.PutU64(qid);
      w.PutU32(peer);
      SendTo(ex->initiator, kNodeSuspect, w.Release());
    }
  }
}

QueryService::Exec* QueryService::FindExec(uint64_t query_id) {
  auto it = execs_.find(query_id);
  return it == execs_.end() ? nullptr : it->second.get();
}

QueryService::Root* QueryService::FindRoot(uint64_t query_id) {
  auto it = roots_.find(query_id);
  return it == roots_.end() ? nullptr : it->second.get();
}

void QueryService::BufferPending(uint64_t query_id, net::NodeId from, uint16_t code,
                                 const std::string& payload) {
  if (aborted_.count(query_id)) return;
  // A query whose initiator's connection has dropped can never deliver its
  // plan here; messages for it (e.g. shuffle blocks from a worker that has
  // not yet observed the drop) would otherwise be buffered forever.
  auto initiator = static_cast<net::NodeId>(query_id >> kQueryInitiatorShift);
  if (dropped_peers_.count(initiator)) return;
  auto& vec = pending_[query_id];
  if (vec.size() < kMaxPendingPerQuery) vec.emplace_back(from, code, payload);
}

// ===========================================================================
// Worker: plan instantiation and scans

void QueryService::HandlePlan(net::NodeId /*from*/, const std::string& payload) {
  Reader r(payload);
  auto ex = std::make_unique<Exec>();
  uint64_t qid;
  if (!r.GetU64(&qid).ok()) return;
  ex->query_id = qid;
  uint32_t initiator;
  if (!r.GetU32(&initiator).ok()) return;
  ex->initiator = initiator;
  uint64_t epoch;
  if (!r.GetVarint64(&epoch).ok()) return;
  ex->epoch = epoch;
  if (!r.GetBool(&ex->provenance).ok()) return;
  if (!r.GetVarint32(&ex->block_rows).ok()) return;
  auto snap = overlay::RoutingSnapshot::Decode(&r);
  if (!snap.ok()) return;
  ex->snapshot = std::move(snap).value();
  ex->table = ex->snapshot;
  ex->prev_table = ex->snapshot;
  if (!PhysicalPlan::DecodeFrom(&r, &ex->plan).ok()) return;
  uint32_t n_bindings;
  if (!r.GetVarint32(&n_bindings).ok()) return;
  for (uint32_t i = 0; i < n_bindings; ++i) {
    uint32_t op;
    storage::CoordinatorRecord rec;
    if (!r.GetVarint32(&op).ok()) return;
    if (!storage::CoordinatorRecord::DecodeFrom(&r, &rec).ok()) return;
    ex->bindings[static_cast<int32_t>(op)] = std::move(rec);
  }

  // Execution context shared by this node's operator instances.
  size_t bits = 0;
  for (const auto& m : ex->snapshot.members()) bits = std::max<size_t>(bits, m.node + 1);
  ex->cx.self = node();
  ex->cx.taint_bits = ex->provenance ? bits : 0;
  ex->cx.phase = 0;
  ex->cx.failed = DynamicBitset(bits);
  ex->cx.costs = &host_->network()->costs();
  ex->cx.charge = [this](double us) { host_->network()->ChargeCpu(node(), us); };
  Exec* raw = ex.get();
  ex->cx.route = [this, raw](int32_t op, BlockRow row) {
    RouteRow(*raw, op, std::move(row), /*count_cache=*/true);
  };
  ex->cx.ship = [this, raw](BlockRow row) { ShipRow(*raw, std::move(row)); };
  ex->cx.rehash_child_eos = [this, raw](int32_t op) {
    // End of this node's stream to every live member: its last block
    // carries the rest of that member's buffer, possibly nothing.
    RehashState& rs = raw->rehash[op];
    if (rs.eos_sent) return;
    rs.eos_sent = true;
    for (net::NodeId m : LiveMembers(*raw)) SendRehashBlock(*raw, op, m, /*eos=*/true);
  };
  ex->cx.ship_child_eos = [this, raw]() {
    if (raw->ship_eos_sent) return;
    raw->ship_eos_sent = true;
    SendShipBlock(*raw, /*eos=*/true);
  };

  // Instantiate operators and wire parents.
  ex->parents = ex->plan.ParentIds();
  ex->ops.resize(ex->plan.ops.size());
  for (const PhysOp& def : ex->plan.ops) {
    ex->ops[def.id] = MakeOperator(&ex->plan.ops[def.id], &ex->cx);
  }
  for (const PhysOp& def : ex->plan.ops) {
    for (size_t c = 0; c < def.children.size(); ++c) {
      ex->ops[def.children[c]]->SetParent(ex->ops[def.id].get(), c);
    }
  }
  for (const PhysOp& def : ex->plan.ops) {
    if (def.kind == OpKind::kRehash) ex->rehash[def.id];
  }

  execs_[qid] = std::move(ex);
  StartExec(*raw);

  // Replay any messages that raced ahead of the plan.
  auto pending = pending_.find(qid);
  if (pending != pending_.end()) {
    auto msgs = std::move(pending->second);
    pending_.erase(pending);
    for (auto& [pfrom, pcode, ppayload] : msgs) OnMessage(pfrom, pcode, ppayload);
  }
}

void QueryService::AssignScanPages(Exec& ex, int32_t scan_op,
                                   const overlay::RoutingSnapshot& table,
                                   std::deque<storage::PageDescriptor>* out) const {
  const PhysOp& op = ex.plan.op(scan_op);
  auto binding = ex.bindings.find(scan_op);
  if (binding == ex.bindings.end()) return;
  auto def = storage_->Relation(op.relation);
  bool replicated = def.ok() && def->replicate_everywhere;
  for (const storage::PageDescriptor& desc : binding->second.pages) {
    if (op.broadcast_local || replicated) {
      // Broadcast scans read the full local replica. Partitioned scans of a
      // replicate-everywhere relation also visit every page at every node:
      // each node injects exactly the tuples it owns by placement hash, so
      // the output is hash-partitioned without any network traffic.
      out->push_back(desc);
    } else if (table.OwnerOf(desc.home()) == node()) {
      out->push_back(desc);
    }
  }
}

void QueryService::SetSpillPeers(Exec& ex, int32_t scan_op) {
  // Only a partitioned full scan pushes tuples to other nodes: broadcast and
  // replicate-everywhere scans read locally, covering scans read the index.
  const PhysOp& op = ex.plan.op(scan_op);
  auto def = storage_->Relation(op.relation);
  auto binding = ex.bindings.find(scan_op);
  bool spills = op.kind == OpKind::kScan && !op.broadcast_local &&
                !(def.ok() && def->replicate_everywhere) && binding != ex.bindings.end();
  ex.scans[scan_op].peers =
      spills ? ScanSpillPeers(binding->second.pages, ex.table, node()) : SpillPeers{};
}

void QueryService::StartExec(Exec& ex) {
  for (int32_t scan_op : ex.plan.ScanOpIds()) {
    ScanState& ss = ex.scans[scan_op];
    SetSpillPeers(ex, scan_op);
    AssignScanPages(ex, scan_op, ex.table, &ss.pending_pages);
    if (ss.pending_pages.empty()) {
      FinishScanIteration(ex, scan_op);
    } else {
      ss.chain_running = true;
      uint64_t qid = ex.query_id;
      host_->network()->RunOnNode(node(), host_->network()->simulator()->now(),
                                  [this, qid, scan_op] {
                                    DriveScanChain(qid, scan_op);
                                  });
    }
  }
}

void QueryService::DriveScanChain(uint64_t query_id, int32_t scan_op) {
  Exec* ex = FindExec(query_id);
  if (ex == nullptr) return;
  ScanState& ss = ex->scans[scan_op];
  if (ss.pending_pages.empty() && ss.pending_partial.empty()) {
    ss.chain_running = false;
    FinishScanIteration(*ex, scan_op);
    return;
  }
  ScanMode mode =
      ss.pending_pages.empty() ? ScanMode::kFailedOwnersOnly : ScanMode::kFull;
  auto& queue =
      ss.pending_pages.empty() ? ss.pending_partial : ss.pending_pages;
  storage::PageDescriptor desc = queue.front();
  queue.pop_front();

  auto page = storage_->ReadPageLocal(desc.id);
  if (page.ok()) {
    ProcessPage(*ex, scan_op, page.value(), mode);
  } else {
    // Stale local replica: fetch the page from a peer (§IV — missing state is
    // fetched, never substituted with an older version).
    ss.async_outstanding += 1;
    storage_->GetPage(desc, [this, query_id, scan_op, mode](Status st,
                                                            storage::Page p) {
      Exec* ex2 = FindExec(query_id);
      if (ex2 == nullptr) return;
      ex2->scans[scan_op].async_outstanding -= 1;
      if (st.ok()) ProcessPage(*ex2, scan_op, p, mode);
      CheckScanEos(*ex2, scan_op);
    });
  }

  // Yield the node between pages so sends interleave and failures can land
  // mid-scan.
  host_->network()->RunOnNode(node(), host_->network()->simulator()->now(),
                              [this, query_id, scan_op] {
                                DriveScanChain(query_id, scan_op);
                              });
}

void QueryService::ProcessPage(Exec& ex, int32_t scan_op, const storage::Page& page,
                               ScanMode mode) {
  const PhysOp& op = ex.plan.op(scan_op);
  const auto& costs = host_->network()->costs();
  // An id participates in a partial rescan only if its data node (under the
  // previous routing table) failed: its spillover injections were purged and
  // its fetch requests died with the node.
  // Placement hashes ride in the page (page.hashes[i] belongs to ids[i]).
  auto prev_owner_failed = [&ex](const HashId& hash) {
    net::NodeId prev = ex.prev_table.OwnerOf(hash);
    return prev < ex.cx.failed.size() && ex.cx.failed.Test(prev);
  };

  if (op.kind == OpKind::kCoveringScan) {
    if (mode == ScanMode::kFailedOwnersOnly) return;  // index-only: no spillover
    // Key attributes come straight from the index page (Table I).
    auto def = storage_->Relation(op.relation);
    if (!def.ok()) return;
    ex.cx.charge(costs.index_entry_us * static_cast<double>(page.ids.size()));
    for (const storage::TupleId& id : page.ids) {
      if (!op.key_filter.Matches(id.key_bytes)) continue;
      Tuple key_vals;
      if (!storage::DecodeTupleKey(def->schema, id.key_bytes, &key_vals).ok()) continue;
      InjectScanRow(ex, scan_op, std::move(key_vals),
                    SingletonTaint(ex.cx.taint_bits, node()));
    }
    return;
  }

  auto def = storage_->Relation(op.relation);
  if (!def.ok()) return;
  bool broadcast = op.broadcast_local;
  bool replicated = def->replicate_everywhere;
  // True broadcast scans contribute identical local state at every node;
  // nothing is lost when a node fails, so no partial rescan is needed.
  if (mode == ScanMode::kFailedOwnersOnly && broadcast) return;

  // Split the page's ids into locally-owned and remote (Algorithm 1 line 8 /
  // Table I distributed scan): remote ids join their data node's fetch
  // batch, to be pushed into the plan there. Ownership routes on the
  // page-carried hashes.
  ScanState& ss = ex.scans[scan_op];
  ex.cx.charge(costs.index_entry_us * static_cast<double>(page.ids.size()));
  storage::keys::IdListWriter local;
  for (size_t i = 0; i < page.ids.size(); ++i) {
    const storage::TupleId& id = page.ids[i];
    if (!op.key_filter.Matches(id.key_bytes)) continue;
    if (mode == ScanMode::kFailedOwnersOnly && !prev_owner_failed(page.hashes[i])) {
      continue;
    }
    if (broadcast) {
      local.Add(page.hashes[i], id);
      continue;
    }
    net::NodeId owner = ex.table.OwnerOf(page.hashes[i]);
    if (replicated) {
      // Every node holds the data; the hash owner injects, others skip.
      if (owner == node()) local.Add(page.hashes[i], id);
      continue;
    }
    if (owner == node() || (owner < ex.cx.failed.size() && ex.cx.failed.Test(owner))) {
      // Ours, or the data owner already failed under this table: read from
      // the local replica or fetch from another replica.
      local.Add(page.hashes[i], id);
      continue;
    }
    storage::keys::IdListWriter& batch = ss.batches[owner];
    batch.Add(page.hashes[i], id);
    if (batch.count() >= ex.block_rows) SendFetch(ex, scan_op, owner, /*final=*/false);
  }
  if (local.count() == 0) return;
  Reader r(local.entries());
  ReadScanIds(ex, scan_op, &r, local.count(), SingletonTaint(ex.cx.taint_bits, node()))
      .ok();
}

void QueryService::InjectScanRow(Exec& ex, int32_t scan_op, Tuple tuple,
                                 DynamicBitset taint) {
  if (ex.cx.taint_bits > 0 && taint.Intersects(ex.cx.failed)) {
    counters_.rows_dropped_tainted += 1;
    return;
  }
  BlockRow row;
  row.tuple = std::move(tuple);
  row.taint = std::move(taint);
  static_cast<ScanOp*>(ex.ops[scan_op].get())->Inject(std::move(row));
}

Status QueryService::ReadScanIds(Exec& ex, int32_t scan_op, Reader* r, uint64_t n,
                                 const DynamicBitset& taint) {
  const std::string& rel = ex.plan.op(scan_op).relation;
  const uint64_t qid = ex.query_id;
  auto fetch = [&](const storage::keys::WireId& id) {
    ex.scans[scan_op].async_outstanding += 1;
    // This node's own read just missed it: ask the other replicas.
    storage_->FetchTuple(rel, storage::TupleId{std::string(id.key_bytes), id.epoch},
                         node(), [this, qid, scan_op, taint](Status st, Tuple t) {
                           Exec* ex2 = FindExec(qid);
                           if (ex2 == nullptr) return;
                           ex2->scans[scan_op].async_outstanding -= 1;
                           if (st.ok()) InjectScanRow(*ex2, scan_op, std::move(t), taint);
                           CheckScanEos(*ex2, scan_op);
                         });
  };
  return storage_->ReadIdList(
      rel, r, n,
      [&](const storage::keys::WireId& id, std::string_view bytes) {
        Reader tr(bytes);
        Tuple t;
        if (storage::DecodeTuple(&tr, &t).ok()) {
          InjectScanRow(ex, scan_op, std::move(t), taint);
        } else {
          fetch(id);
        }
      },
      fetch);
}

void QueryService::SendFetch(Exec& ex, int32_t scan_op, net::NodeId peer, bool final) {
  ScanState& ss = ex.scans[scan_op];
  storage::keys::IdListWriter batch = std::move(ss.batches[peer]);
  ss.batches.erase(peer);
  Writer w;
  w.PutU64(ex.query_id);
  w.PutVarint32(static_cast<uint32_t>(scan_op));
  w.PutVarint32(ex.cx.phase);
  w.PutVarint32(++ss.fetch_sent[peer]);
  w.PutBool(final);
  batch.EncodeTo(&w);
  SendTo(peer, kQueryFetch, w.Release());
}

void QueryService::HandleQueryFetch(net::NodeId from, const std::string& payload) {
  Reader r(payload);
  uint64_t qid;
  uint32_t scan_op, phase, seq;
  bool final;
  uint64_t n;
  if (!r.GetU64(&qid).ok() || !r.GetVarint32(&scan_op).ok() ||
      !r.GetVarint32(&phase).ok() || !r.GetVarint32(&seq).ok() ||
      !r.GetBool(&final).ok() || !r.GetVarint64(&n).ok()) {
    return;
  }
  Exec* ex = FindExec(qid);
  if (ex == nullptr) {
    BufferPending(qid, from, kQueryFetch, payload);
    return;
  }
  if (scan_op >= ex->plan.ops.size()) return;
  DynamicBitset taint(ex->cx.taint_bits);
  if (ex->cx.taint_bits > 0) {
    if (from < ex->cx.taint_bits) taint.Set(from);
    if (node() < ex->cx.taint_bits) taint.Set(node());
  }
  if (!ReadScanIds(*ex, static_cast<int32_t>(scan_op), &r, n, taint).ok()) return;
  ex->scans[static_cast<int32_t>(scan_op)].fetch_in[from].Arrive(seq, final, phase);
  if (final) CheckScanEos(*ex, static_cast<int32_t>(scan_op));
}

void QueryService::FinishScanIteration(Exec& ex, int32_t scan_op) {
  ex.scans[scan_op].iteration_done = true;
  CheckScanEos(ex, scan_op);
}

void QueryService::CheckScanEos(Exec& ex, int32_t scan_op) {
  ScanState& ss = ex.scans[scan_op];
  if (!ss.iteration_done || ss.async_outstanding > 0) return;
  // This node's part of the phase is scanned: close its fetch streams (a
  // scan without spill peers sends nothing).
  if (!ss.fetch_closed) {
    ss.fetch_closed = true;
    for (net::NodeId peer : ss.peers.to) SendFetch(ex, scan_op, peer, /*final=*/true);
  }
  auto* scan = static_cast<ScanOp*>(ex.ops[scan_op].get());
  if (scan->eos_propagated()) return;
  // Every index node that may push tuples here closed its fetch stream for
  // this phase, so no more spillover can arrive (FIFO delivery).
  for (net::NodeId peer : ss.peers.from) {
    auto it = ss.fetch_in.find(peer);
    if (it == ss.fetch_in.end() || !it->second.EndedAt(ex.cx.phase)) return;
  }
  scan->SignalEos();
}

// ===========================================================================
// Worker: rehash / ship dataflow

void QueryService::RouteRow(Exec& ex, int32_t rehash_op, BlockRow row,
                            bool count_cache) {
  const PhysOp& op = ex.plan.op(rehash_op);
  net::NodeId dest = ex.table.OwnerOf(RowHash(row.tuple, op.hash_cols));
  counters_.rows_routed += 1;
  RehashState& rs = ex.rehash[rehash_op];
  if (count_cache && ex.provenance) {
    // Output caching + provenance bookkeeping are the recovery-support
    // overhead the paper measures in §VI-E.
    ex.cx.charge(ex.cx.costs->provenance_tag_us);
    rs.cache.push_back(RehashState::CacheEntry{row, dest});
  }
  auto& buf = rs.buffers[dest];
  buf.push_back(std::move(row));
  if (buf.size() >= ex.block_rows) SendRehashBlock(ex, rehash_op, dest, /*eos=*/false);
}

void QueryService::SendRehashBlock(Exec& ex, int32_t rehash_op, net::NodeId dest,
                                   bool eos) {
  RehashState& rs = ex.rehash[rehash_op];
  TupleBlock block;
  block.query_id = ex.query_id;
  block.dest_op = rehash_op;
  block.phase = ex.cx.phase;
  block.seq = ++rs.sent[dest];
  block.eos = eos;
  block.sender = node();
  auto it = rs.buffers.find(dest);
  if (it != rs.buffers.end()) {
    block.rows = std::move(it->second);
    rs.buffers.erase(it);
  }
  ChargeBlockCosts(block);
  counters_.blocks_sent += 1;
  SendTo(dest, kDataBlock, block.Encode());
}

void QueryService::HandleDataBlock(net::NodeId from, const std::string& payload) {
  TupleBlock block;
  if (!TupleBlock::Decode(payload, &block).ok()) return;
  Exec* ex = FindExec(block.query_id);
  if (ex == nullptr) {
    BufferPending(block.query_id, from, kDataBlock, payload);
    return;
  }
  ChargeBlockCosts(block);
  counters_.blocks_received += 1;

  int32_t parent_id = ex->parents[block.dest_op];
  ORC_CHECK(parent_id >= 0, "rehash without parent");
  Operator* parent = ex->ops[parent_id].get();
  size_t child_idx = 0;
  const auto& siblings = ex->plan.op(parent_id).children;
  for (size_t i = 0; i < siblings.size(); ++i) {
    if (siblings[i] == block.dest_op) child_idx = i;
  }
  for (BlockRow& row : block.rows) {
    if (ex->cx.taint_bits > 0) {
      if (row.taint.size() != ex->cx.taint_bits) {
        DynamicBitset resized(ex->cx.taint_bits);
        for (size_t i = 0; i < row.taint.size() && i < ex->cx.taint_bits; ++i) {
          if (row.taint.Test(i)) resized.Set(i);
        }
        row.taint = std::move(resized);
      }
      row.taint.Set(node());
      ex->cx.charge(ex->cx.costs->provenance_tag_us);
      if (row.taint.Intersects(ex->cx.failed)) {
        counters_.rows_dropped_tainted += 1;
        continue;
      }
    }
    parent->Consume(child_idx, std::move(row));
  }
  ex->inflow[block.dest_op][from].Arrive(block.seq, block.eos, block.phase);
  if (block.eos) CheckNetEos(*ex, block.dest_op);
}

void QueryService::CheckNetEos(Exec& ex, int32_t op) {
  if (ex.net_eos_delivered[op]) return;
  const auto& inflow = ex.inflow[op];
  for (net::NodeId m : LiveMembers(ex)) {
    auto it = inflow.find(m);
    if (it == inflow.end() || !it->second.EndedAt(ex.cx.phase)) return;
  }
  ex.net_eos_delivered[op] = true;
  int32_t parent_id = ex.parents[op];
  const auto& siblings = ex.plan.op(parent_id).children;
  size_t child_idx = 0;
  for (size_t i = 0; i < siblings.size(); ++i) {
    if (siblings[i] == op) child_idx = i;
  }
  ex.ops[parent_id]->OnChildEos(child_idx);
}

void QueryService::ShipRow(Exec& ex, BlockRow row) {
  counters_.rows_shipped += 1;
  ex.ship_buffer.push_back(std::move(row));
  if (ex.ship_buffer.size() >= ex.block_rows) SendShipBlock(ex, /*eos=*/false);
}

void QueryService::SendShipBlock(Exec& ex, bool eos) {
  TupleBlock block;
  block.query_id = ex.query_id;
  block.dest_op = ex.plan.root;
  block.phase = ex.cx.phase;
  block.seq = ++ex.ship_sent;
  block.eos = eos;
  block.sender = node();
  block.rows = std::move(ex.ship_buffer);
  ex.ship_buffer.clear();
  ChargeBlockCosts(block);
  counters_.blocks_sent += 1;
  SendTo(ex.initiator, kShipBlock, block.Encode());
}

// ===========================================================================
// Worker: recovery (§V-D stages 2-4) and teardown

void QueryService::HandleRecover(net::NodeId from, const std::string& payload) {
  Reader r(payload);
  uint64_t qid;
  uint32_t phase, n_failed;
  if (!r.GetU64(&qid).ok() || !r.GetVarint32(&phase).ok() ||
      !r.GetVarint32(&n_failed).ok()) {
    return;
  }
  std::vector<net::NodeId> failed(n_failed);
  for (auto& f : failed) {
    if (!r.GetU32(&f).ok()) return;
  }
  auto table = overlay::RoutingSnapshot::Decode(&r);
  if (!table.ok()) return;

  Exec* ex = FindExec(qid);
  if (ex == nullptr) {
    BufferPending(qid, from, kRecover, payload);
    return;
  }
  if (phase <= ex->cx.phase) return;  // stale / duplicate

  ex->prev_table = ex->table;
  const overlay::RoutingSnapshot& prev_table = ex->prev_table;
  ex->table = std::move(table).value();
  ex->cx.phase = phase;
  for (net::NodeId f : failed) {
    if (f < ex->cx.failed.size()) ex->cx.failed.Set(f);
  }

  // Stage 2: drop all state derived from the failed nodes.
  for (auto& op : ex->ops) op->PurgeTainted();
  for (auto& [op_id, rs] : ex->rehash) {
    rs.cache.erase(std::remove_if(rs.cache.begin(), rs.cache.end(),
                                  [ex](const RehashState::CacheEntry& e) {
                                    return e.row.taint.Intersects(ex->cx.failed);
                                  }),
                   rs.cache.end());
    for (auto& [dest, buf] : rs.buffers) {
      buf.erase(std::remove_if(buf.begin(), buf.end(),
                               [ex](const BlockRow& b) {
                                 return b.taint.Intersects(ex->cx.failed);
                               }),
                buf.end());
    }
    // Unflushed rows routed to a failed node are superseded by the cache
    // resend below (stage 4).
    for (net::NodeId f : failed) rs.buffers.erase(f);
    rs.eos_sent = false;
  }
  ex->ship_buffer.erase(std::remove_if(ex->ship_buffer.begin(), ex->ship_buffer.end(),
                                       [ex](const BlockRow& b) {
                                         return b.taint.Intersects(ex->cx.failed);
                                       }),
                        ex->ship_buffer.end());
  ex->ship_eos_sent = false;

  // Re-arm EOS bookkeeping for the new phase; the EOS wave re-runs.
  for (auto& op : ex->ops) op->ResetForPhase();
  ex->net_eos_delivered.clear();

  // Stage 4: re-create data that was sent to the failed nodes' ranges, now
  // routed under the new table.
  for (auto& [op_id, rs] : ex->rehash) {
    for (auto& entry : rs.cache) {
      bool to_failed = std::find(failed.begin(), failed.end(), entry.dest) !=
                       failed.end();
      if (!to_failed) continue;
      const PhysOp& op = ex->plan.op(op_id);
      entry.dest = ex->table.OwnerOf(RowHash(entry.row.tuple, op.hash_cols));
      rs.buffers[entry.dest].push_back(entry.row);
      counters_.cache_rows_resent += 1;
      if (rs.buffers[entry.dest].size() >= ex->block_rows) {
        SendRehashBlock(*ex, op_id, entry.dest, /*eos=*/false);
      }
    }
  }

  // Stage 3: restart leaf scans for the hash ranges inherited from the
  // failed nodes.
  for (int32_t scan_op : ex->plan.ScanOpIds()) {
    ScanState& ss = ex->scans[scan_op];
    ss.iteration_done = false;
    ss.fetch_closed = false;
    // Batched ids for a failed data node are re-routed by the partial
    // rescan of their (already scanned) pages.
    for (net::NodeId f : failed) ss.batches.erase(f);
    SetSpillPeers(*ex, scan_op);

    std::deque<storage::PageDescriptor> prev_pages, new_pages;
    AssignScanPages(*ex, scan_op, prev_table, &prev_pages);
    AssignScanPages(*ex, scan_op, ex->table, &new_pages);
    auto was_mine = [&prev_pages](const storage::PageDescriptor& d) {
      for (const auto& p : prev_pages) {
        if (p.id == d.id) return true;
      }
      return false;
    };
    for (const auto& d : new_pages) {
      if (!was_mine(d)) {
        ss.pending_pages.push_back(d);  // full rescan of inherited ranges
      } else {
        // Already scanned, but ids whose data node failed must be re-routed
        // (their pushed-into-plan copies were purged as tainted).
        ss.pending_partial.push_back(d);
      }
    }
    if (!ss.pending_pages.empty()) counters_.scans_restarted += 1;
    if (ss.pending_pages.empty() && ss.pending_partial.empty()) {
      FinishScanIteration(*ex, scan_op);
    } else if (!ss.chain_running) {
      ss.chain_running = true;
      host_->network()->RunOnNode(node(), host_->network()->simulator()->now(),
                                  [this, qid, scan_op] {
                                    DriveScanChain(qid, scan_op);
                                  });
    }
  }

  // Final blocks and fetch frames for the new phase may have overtaken this
  // recovery broadcast (they travel on different connections); re-check
  // every condition that would otherwise only fire on message arrival.
  for (const PhysOp& def : ex->plan.ops) {
    if (def.kind == OpKind::kRehash) CheckNetEos(*ex, def.id);
  }
}

void QueryService::HandleAbort(Reader* r) {
  uint64_t qid;
  if (!r->GetU64(&qid).ok()) return;
  execs_.erase(qid);
  pending_.erase(qid);
  MarkAborted(qid);
}

void QueryService::MarkAborted(uint64_t query_id) {
  // FIFO eviction: the set orders by id (initiator in the high bits), so
  // erasing *aborted_.begin() would evict by initiator number — possibly the
  // id just inserted — rather than the oldest record.
  if (aborted_.insert(query_id).second) aborted_order_.push_back(query_id);
  while (aborted_.size() > kMaxAbortedTracked) {
    aborted_.erase(aborted_order_.front());
    aborted_order_.pop_front();
  }
}

std::string QueryService::DebugString() const {
  auto print_in = [](std::string* out, const std::map<net::NodeId, Inflow>& in) {
    for (const auto& [n, f] : in) {
      StrAppend(out, {"n", std::to_string(n), ":", std::to_string(f.received),
                      f.ended ? StrCat({"/eos@", std::to_string(f.ended_phase)}) : "", " "});
    }
  };
  std::string out;
  StrAppend(&out, {"QueryService@n", std::to_string(host_->node()), "\n"});
  for (const auto& [qid, ex] : execs_) {
    StrAppend(&out, {" exec q", std::to_string(qid), " phase=", std::to_string(ex->cx.phase),
                  " ship_eos_sent=", std::to_string(ex->ship_eos_sent), "\n"});
    for (const auto& [op, ss] : ex->scans) {
      StrAppend(&out, {"  scan#", std::to_string(op),
                    " it_done=", std::to_string(ss.iteration_done),
                    " async=", std::to_string(ss.async_outstanding),
                    " pend=", std::to_string(ss.pending_pages.size()),
                    " part=", std::to_string(ss.pending_partial.size()),
                    " eos=", std::to_string(ex->ops[op]->eos_propagated()),
                    " closed=", std::to_string(ss.fetch_closed), " fetch_in="});
      print_in(&out, ss.fetch_in);
      out.append("\n");
    }
    for (const auto& [op, rs] : ex->rehash) {
      StrAppend(&out, {"  rehash#", std::to_string(op),
                    " eos_sent=", std::to_string(rs.eos_sent), " in="});
      auto it = ex->inflow.find(op);
      if (it != ex->inflow.end()) print_in(&out, it->second);
      out.append("\n");
    }
  }
  for (const auto& [qid, root] : roots_) {
    StrAppend(&out, {" root q", std::to_string(qid), " phase=", std::to_string(root->phase),
                  " ship_in="});
    print_in(&out, root->ship_in);
    out.append("\n");
  }
  return out;
}

void QueryService::ChargeBlockCosts(const TupleBlock& block) {
  const auto& costs = host_->network()->costs();
  double kb = static_cast<double>(block.ApproxRawBytes()) / 1024.0;
  host_->network()->ChargeCpu(
      node(), costs.marshal_per_tuple_us * static_cast<double>(block.rows.size()) +
                  (costs.marshal_per_kb_us + costs.compress_per_kb_us) * kb);
}

}  // namespace orchestra::query
