// StorageService: the per-node endpoint of the versioned storage protocol.
// Every node simultaneously plays all Fig. 3 roles for the key ranges it
// owns/replicates: relation coordinator, index node, inverse node, and data
// storage node. The service also implements the client side of
// Retrieve(R, e, f) — Algorithm 1 — with replica-retry on missing state, so
// a retrieval can never observe stale data: a tuple version is reachable
// only through the epoch's page list (§IV).
#ifndef ORCHESTRA_STORAGE_SERVICE_H_
#define ORCHESTRA_STORAGE_SERVICE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "localstore/local_store.h"
#include "net/node_host.h"
#include "net/rpc.h"
#include "overlay/ring.h"
#include "storage/keys.h"
#include "storage/page.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace orchestra::storage {

/// Shared mutable view of the current routing table; the membership layer
/// updates it, services read it. Queries instead pin an explicit snapshot.
struct SnapshotBoard {
  overlay::RoutingSnapshot current;
};

/// Storage protocol message codes (service kStorage).
///
/// kPutTuples and kFetchTuples (and the query engine's kQueryFetch) name
/// tuple versions by id list (keys::IdListWriter): each id carries its
/// placement hash, computed once by the publisher, which receivers splice
/// straight into their localstore keys without recomputing SHA-1.
enum StorageCode : uint16_t {
  kCatalogAdd = 1,
  // One coalesced frame per destination node and publish: nrels, then per
  // relation: rel and an id list, each entry followed by the tuple bytes. The
  // publisher batches every tuple write bound for a node — across all
  // relations and partitions — into a single kPutTuples RPC.
  kPutTuples = 2,
  // One page-write frame per destination node and publish: n, then n
  // PageWrite entries (page.h), each a whole page or a delta against its
  // base version. The reply body lists the frame indices of deltas the node
  // refused (base missing, delta mismatch, CRC) — the publisher resends
  // exactly those as full pages. An entry at a fenced epoch is not stored
  // and makes the reply kFenced (as for kPutTuples).
  kPutPage = 3,
  kPutCoordinator = 4,
  kGetCoordinator = 5,
  kGetPage = 6,
  kGetInverse = 7,
  kGetTuple = 8,
  // Algorithm 1, step 4: one scan frame per index node and Retrieve, naming
  // every page of the epoch that node serves at the current replica index.
  // The reply body lists the frame indices of pages the node does not hold;
  // the requester asks each page's next replica for exactly those.
  kScanPage = 9,
  kFetchTuples = 10,  // Algorithm 1, step 8: index node -> data node (id list)
  kTupleData = 11,    // Algorithm 1, step 9: data node -> requester (direct)
  kReplicaPush = 12,  // background re-replication (PAST-style, §III-C);
                      // leads with the pusher's GC watermark so a restarted
                      // node catches up without waiting for the next publish
  kGetMaxEpoch = 13,  // highest coordinator epoch this node stores
  kSetWatermark = 14, // one-way: (participant, GC low-watermark) advertisement
  // Multi-writer epoch claims: the pre-write serialization point. A claim
  // names (epoch, participant, node, attempt nonce); replicas grant
  // first-come (idempotent for the same participant) and answer a
  // conflicting claim with a kEpochTaken status whose body carries the
  // stored winner instance. Claims are NEVER taken over (takeover rules
  // break under membership churn): a wedged epoch is unwedged by its own
  // participant's retry or instance-exact release only.
  kClaimEpoch = 15,
  kGetEpochClaim = 16,   // read back a claim's stored EpochClaimRecord
                         // (participant, node, ClaimState, nonce)
  kReleaseEpoch = 17,    // one-way: delete own claim (failed publish cleanup)
  // Commit confirmation: after ALL coordinator records of an epoch are
  // written, the publisher raises its claim to ClaimState::kCommitted on the
  // claim replicas. kGetMaxEpoch reports only CONFIRMED epochs, so a publisher's
  // discovered base is always a fully committed epoch — partial coordinator
  // records of torn publishes can no longer inflate discovery and leak
  // uncommitted content into other writers' bases.
  kConfirmEpoch = 18,
  // Abandonment fencing: after a claim has sat uncommitted and untouched for
  // the requester-supplied staleness TTL, any participant may BURN the epoch.
  // Body: epoch, fencer participant, fenced participant (the stored owner the
  // fencer observed), ttl_us. A grant stores a kBurnPromised record: this
  // replica refuses every claim and confirm at the epoch, but deletes
  // nothing, since the round may still be refused elsewhere. Only the
  // fencer's kPurgeEpoch after a unanimous round makes the burn kPurged and
  // purges the owner's orphan versions (data/page/coordinator records at
  // that epoch, plus inverse entries that pointed at them). Refused while
  // the owner is fresh (its claim refreshes
  // beat the TTL), once the epoch committed, when the slot changed hands, or
  // behind the confirmed frontier. The reply body names the fenced instance
  // (participant, node, nonce). Safety rides the same single-failure overlap
  // argument as claims: a fence needs EVERY live claim replica, so it cannot
  // coexist with a full un-fenced claim or a confirmed commit.
  kFenceEpoch = 19,
  // One-way fence propagation: (epoch, fenced participant, fenced nonce).
  // Receivers record the burn and purge local orphan versions at the epoch;
  // ignored if the local claim committed (a commit is a fact).
  kPurgeEpoch = 20,
  kReply = 100,       // RPC reply envelope
};

/// Per-call deadline for epoch discovery: much tighter than the general RPC
/// deadline so a publish past a dead member stalls seconds, not a minute.
constexpr sim::SimTime kEpochDiscoveryTimeoutUs = 5 * sim::kMicrosPerSec;

/// Whole-scan deadline for Retrieve: bounds loss of the one-way data legs.
constexpr sim::SimTime kScanDeadlineUs = 120 * sim::kMicrosPerSec;

/// Records one GC retirement task examines or deletes before it yields the
/// node (about 60 us of tuple_scan_us): a request queued behind retirement
/// waits at most one such chunk.
constexpr uint64_t kGcChunkRecords = 48;

/// A participant's GC watermark advertisement stays live this long; after
/// that the participant is considered departed and stops holding the
/// effective (min-across-participants) watermark down.
constexpr sim::SimTime kParticipantMarkTtlUs = 300 * sim::kMicrosPerSec;

/// Sargable filter pushed to index nodes: an inclusive key-bytes range.
struct KeyFilter {
  bool all = true;
  std::string lo, hi;  // valid when !all

  bool Matches(const std::string& key_bytes) const {
    return all || (key_bytes >= lo && key_bytes <= hi);
  }
  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, KeyFilter* out);
};

class StorageService : public net::Service {
 public:
  using RpcCallback = std::function<void(Status, const std::string& body)>;
  using RetrieveCallback =
      std::function<void(Status, std::vector<Tuple>)>;

  StorageService(net::NodeHost* host, std::shared_ptr<SnapshotBoard> board,
                 int replication, localstore::StoreOptions store_options = {});

  net::NodeId node() const { return host_->node(); }
  int replication() const { return replication_; }
  const overlay::RoutingSnapshot& snapshot() const { return board_->current; }
  localstore::LocalStore& store() { return store_; }

  // --- Local (same-node) API, used by the query engine and tests ----------
  void AddRelationLocal(const RelationDef& def);
  Result<RelationDef> Relation(std::string_view name) const;
  /// Zero-copy catalog lookup for hot paths: no RelationDef copy. The
  /// pointer is valid until the catalog entry is replaced.
  const RelationDef* FindRelation(std::string_view name) const;
  std::vector<std::string> RelationNames() const;
  Result<CoordinatorRecord> ReadCoordinatorLocal(const std::string& rel, Epoch e) const;
  Result<Page> ReadPageLocal(const PageId& id) const;
  Result<PageId> ReadInverseLocal(const std::string& rel, uint32_t partition) const;
  /// Zero-copy read of one tuple version's stored (encoded) bytes; computes
  /// the placement hash. The view is valid until the next store mutation.
  Result<std::string_view> ReadTupleBytesLocal(std::string_view rel,
                                               const TupleId& id) const;
  /// The one scan-path tuple read (Algorithm 1, line 9), behind kFetchTuples,
  /// kQueryFetch and the query engine's local page part: reads the next `n`
  /// entries of an id list (keys::IdListWriter) from `r` and point-looks-up
  /// each version by the hash it carries, building every data key in one
  /// reused buffer. Stored bytes go to `found` (valid until the next store
  /// mutation); an absent id or a delete tombstone goes to `missing`, for
  /// the caller's FetchTuple fallback. Both get the id. Bills tuple_scan_us
  /// once per id, in one charge.
  /// Corruption on a malformed list (ids before the bad entry were served).
  Status ReadIdList(std::string_view rel, Reader* r, uint64_t n,
                    const std::function<void(const keys::WireId&,
                                             std::string_view bytes)>& found,
                    const std::function<void(const keys::WireId&)>& missing);

  // --- Asynchronous RPC (lifecycle-managed, see net/rpc.h) ------------------
  /// Sends a request; `cb` resolves exactly once — with the reply, with
  /// TimedOut at the per-call deadline, or with Unavailable when the
  /// destination is reaped after a connection drop.
  void Call(net::NodeId to, uint16_t code, std::string body, RpcCallback cb,
            sim::SimTime timeout_us = net::kDefaultRpcTimeoutUs);
  /// Sends the same request to several nodes; cb(OK) when all succeed, else
  /// the first error.
  void CallAll(const std::vector<net::NodeId>& targets, uint16_t code,
               const std::string& body, std::function<void(Status)> cb);
  /// Fire-and-forget message (no reply expected).
  void SendOneWay(net::NodeId to, uint16_t code, std::string body);

  /// Runs `fn` on this node's simulated thread after `delay`. Delivered as a
  /// node task, so it is dropped if the node dies before it fires (fail-stop
  /// safe, unlike a raw simulator event).
  void RunAfter(sim::SimTime delay, std::function<void()> fn);

  /// Outstanding entries in the pending-call table (leak regression hook).
  size_t pending_rpc_count() const { return rpc_.pending_count(); }
  /// Retrieve scans still in flight (leak regression hook).
  size_t active_scan_count() const { return scans_.size(); }
  const net::RpcClient::Counters& rpc_counters() const { return rpc_.counters(); }

  // --- Distributed reads ----------------------------------------------------
  /// Fetches the coordinator record for (rel, epoch), retrying replicas.
  void GetCoordinator(const std::string& rel, Epoch epoch,
                      std::function<void(Status, CoordinatorRecord)> cb);
  /// Fetches a page from its index node, retrying replicas.
  void GetPage(const PageDescriptor& desc,
               std::function<void(Status, Page)> cb);
  /// Algorithm 1: Retrieve(R, e, f). Returns all matching tuples via cb.
  void Retrieve(const std::string& rel, Epoch epoch, const KeyFilter& filter,
                RetrieveCallback cb);
  /// Fetches one tuple version, trying each replica of its data node in turn
  /// (RpcClient::CallFirst). Every scan recovers a version ReadIdList found
  /// missing through here (a stale replica, §IV).
  void FetchTuple(const std::string& rel, const TupleId& id,
                  std::function<void(Status, Tuple)> cb);

  /// Re-replicates local state according to `snap` (background replication
  /// after membership change). Sends batched kReplicaPush messages.
  void RebalanceTo(const overlay::RoutingSnapshot& snap);

  // --- Multi-epoch GC -------------------------------------------------------
  /// Raises the GC low-watermark and retires superseded versions below it:
  /// coordinator records (and epoch claims) with epoch < w, page versions
  /// older than their partition's newest version at-or-below w, and tuple
  /// versions older than their key's newest version at-or-below w (plus
  /// delete tombstones once nothing older survives). Supported retrieval
  /// epochs become [w, current]. Only the version groups the retirement
  /// index names as due are re-read (the first non-zero watermark arms the
  /// index with one whole-store pass). Re-advertising the current watermark
  /// retires records a stale replica push resurrected. This is the direct,
  /// synchronous floor-raise entry point (tests use it); publisher
  /// advertisements instead go through SetParticipantWatermark so one slow
  /// writer holds retirement back for everyone, and retire in bounded
  /// background tasks.
  void SetGcWatermark(Epoch w);
  Epoch gc_watermark() const { return gc_watermark_; }

  /// Multi-writer GC: records participant `p`'s advertised low-watermark
  /// (monotonic per participant) and applies the EFFECTIVE watermark — the
  /// minimum across all participants heard from within kParticipantMarkTtlUs
  /// — via SetGcWatermark. A participant that lags (or advertises 0 because
  /// its committed epoch is still inside the keep window) pins the effective
  /// mark down, so versions a slow peer still bases its publishes on are
  /// never retired out from under it.
  void SetParticipantWatermark(ParticipantId p, Epoch mark);
  /// min across active participants (0 when none have advertised).
  Epoch EffectiveParticipantWatermark() const;
  /// Advertised marks currently tracked (restart wipes them; replica pushes
  /// re-teach them).
  size_t participant_mark_count() const { return participant_marks_.size(); }

  /// Highest CONFIRMED epoch this node knows of — a claim whose publisher
  /// completed the commit (kConfirmEpoch), learned directly or via replica
  /// push. The publishers' epoch-discovery RPC (kGetMaxEpoch) reports it;
  /// coordinator records alone deliberately do NOT advance it (a torn
  /// publish leaves partial records, and basing on them would absorb
  /// uncommitted updates).
  Epoch max_epoch_seen() const { return max_epoch_seen_; }

  /// Crash-restart hook: rebuilds transient epoch bookkeeping from the
  /// (durable) store after a Recover().
  void OnRestart();

  /// True if `e` is a known purged burn on this node (learned via
  /// kPurgeEpoch or a replica push, or rebuilt from a durable kPurged claim
  /// record).
  bool IsEpochFenced(Epoch e) const { return fenced_epochs_.count(e) > 0; }
  size_t fenced_epoch_count() const { return fenced_epochs_.size(); }

  struct GcStats {
    uint64_t slices = 0;              // retirement tasks run (bounded chunks)
    uint64_t examined = 0;            // records GC read (arming included)
    uint64_t retired_data = 0;        // superseded tuple versions
    uint64_t retired_pages = 0;       // superseded page versions
    uint64_t retired_coords = 0;      // coordinator records below watermark
    uint64_t retired_tombstones = 0;  // delete markers fully reclaimed
    uint64_t retired_claims = 0;      // epoch claims below watermark
  };
  const GcStats& gc_stats() const { return gc_; }
  /// Version-group marks the retirement index holds (due or pending).
  size_t gc_tracked() const;

  // --- net::Service ----------------------------------------------------------
  void OnMessage(net::NodeId from, uint16_t code, const std::string& payload) override;
  void OnConnectionDrop(net::NodeId peer) override;
  /// Fail-stop death of this node: drop outstanding calls and scans without
  /// invoking their callbacks — nothing may execute on a halted node. Scan
  /// deadline closures are cancelled eagerly, like resolved RPC deadlines.
  void OnSelfFailed() override {
    rpc_.DropAll();
    // lint:allow(det-unordered-iter): cancels deadline closures only; no
    // callbacks run on a halted node, so order cannot reach the trace.
    for (auto& [id, scan] : scans_) {
      host_->network()->simulator()->Cancel(scan.deadline_event);
    }
    scans_.clear();
  }

  struct Counters {
    uint64_t tuples_stored = 0;
    uint64_t pages_stored = 0;
    uint64_t coordinators_stored = 0;
    uint64_t scans_served = 0;        // pages scanned
    uint64_t scan_frames_served = 0;  // kScanPage frames (one per Retrieve
                                      // and index node, plus failovers)
    uint64_t tuples_served = 0;
    // Coalesced publish frames received: one per (publish, destination node)
    // pair — the RPC-count story of the pipelined publish path.
    uint64_t puttuples_frames = 0;
    // Multi-writer contention observed at this node: claim requests refused
    // with kEpochTaken, and same-epoch coordinator writes refused at the
    // commit gate (the backstop; nonzero only under claim-replica-set
    // wipeout by simultaneous membership churn).
    uint64_t claims_granted = 0;
    uint64_t claims_refused = 0;
    uint64_t coordinator_conflicts = 0;
    // Abandonment fencing at this claim replica: kFenceEpoch grants (the
    // epoch burned here) and refusals (owner fresh/committed/frontier), late
    // writes refused because their epoch is fenced, and orphan records
    // purged by fence-triggered local purges.
    uint64_t fences_granted = 0;
    uint64_t fences_refused = 0;
    uint64_t fenced_writes_refused = 0;
    uint64_t purged_orphans = 0;
    // Delta page writes this index node refused (base version missing, or
    // the rebuilt page failed its CRC); each costs one full-page resend.
    uint64_t page_delta_fallbacks = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  struct ScanState {
    std::string relation;
    Epoch epoch;
    KeyFilter filter;
    RetrieveCallback cb;
    size_t pages_total = 0;
    size_t pages_answered = 0;  // pages some replica scanned
    // One kScanPage frame sent: the data parts its index node announced
    // (kFetchTuples/kTupleData carry the attempt id) and the rows those
    // parts and their missing-tuple lookups brought. A frame that fails is
    // erased with its rows, so a late part of it is dropped, never counted
    // toward its retry.
    struct Attempt {
      size_t parts_expected = 0;  // known once the frame is answered
      size_t parts_received = 0;
      size_t lookups_outstanding = 0;  // retries of individually missing tuples
      std::vector<Tuple> rows;
    };
    std::map<uint64_t, Attempt> attempts;
    uint64_t next_attempt = 0;
    // Whole-scan deadline: the data legs (kFetchTuples/kTupleData) are
    // one-way, so a lost message would otherwise leave the scan pending
    // forever. Resolves the scan with TimedOut; cancelled on completion.
    sim::Simulator::EventId deadline_event = 0;
  };

  // A burned epoch's fenced instance (see fenced_epochs_).
  struct FencedInstance {
    ParticipantId participant = 0;
    uint64_t nonce = 0;
  };

  // The one version-retention rule. Retirement feeds it one version
  // group's keys (the versions of one page partition or tuple key,
  // keys::VersionGroupPrefix) in store order, so they arrive oldest-first;
  // the arming pass feeds it whole families the same way. Within a group
  // every version at or below the watermark that a newer non-fenced version
  // at or below it supersedes is doomed, as is every version at a fenced
  // epoch (purged garbage a stale push resurrected: as a survivor it would
  // shadow the committed version). The survivor is what the kept
  // coordinators reference; a data survivor that is a delete tombstone is
  // reaped when its group ends, since it only existed to kill older
  // versions.
  //
  // Correctness precondition: every version at or below the watermark was
  // referenced by some committed coordinator when written. Torn publishes
  // keep this locally checkable: coordinator records (the commit point) go
  // out only after every tuple/page write succeeded, and a failed publish
  // is retried with the SAME batch (idempotent overwrite) before publishing
  // different data.
  struct VersionRule {
    Epoch watermark;
    const std::map<Epoch, FencedInstance>* fenced;
    std::vector<std::string>* doomed;
    uint64_t* retired;     // superseded versions (pages or tuples)
    uint64_t* tombstones;  // reaped trailing delete tombstones
    std::string group{};
    std::string best_key{};  // newest non-fenced version <= watermark so far
    bool best_is_tombstone = false;
    void Add(std::string_view key, Epoch epoch, bool tombstone);
    void EndGroup();
  };

  void Respond(net::NodeId to, uint64_t req_id, Status st, std::string body);
  /// kPutPage: stores every entry of a page-write frame.
  void HandlePutPage(net::NodeId from, Reader* r, uint64_t req_id);
  /// Stores one page version (its full encoding), updates the inverse node,
  /// and marks the partition's version group. A write above the watermark
  /// also makes the group due now, so a hot partition's superseded versions
  /// retire at the pace of its writes; the new version itself — which may
  /// yet turn out torn — is never the survivor that retires its base.
  void StorePage(const PageId& id, std::string_view page_bytes, uint64_t entries);
  /// Retirement index: records that `key`'s version group (a data or page
  /// version written at `epoch`, or a coordinator record or claim at
  /// `epoch`) may hold garbage once the watermark reaches the epoch it
  /// names — `epoch` itself for versions, `epoch + 1` for coordinators and
  /// claims, which retire below the watermark. Due at once when the
  /// watermark is already there. False (nothing tracked) while GC is off.
  bool MarkGroup(std::string_view key, Epoch epoch);
  /// Raises the watermark to `w`: marks it reaches fall due. The first
  /// raise (GC off until now, or since a restart) arms the index instead,
  /// with the one whole-store pass.
  void AdvanceGc(Epoch w);
  /// Applies the version rule at the watermark to every version group under
  /// `prefix` and deletes what it dooms. `prefix` is one due group, or a
  /// whole family while arming, when every version above the watermark is
  /// marked too. Returns the records examined plus deleted.
  uint64_t RetireUnder(std::string_view prefix, bool arming);
  /// Retires due groups until about kGcChunkRecords records were examined
  /// or deleted (whole groups, so a task may run a little over).
  void RetireChunk();
  /// Queues one retirement task on this node while due groups remain.
  void ScheduleRetirement();
  /// Records a participant's advertised mark (monotonic, TTL-pruned)
  /// WITHOUT applying the effective watermark — bulk callers (replica push)
  /// merge everything first and advance once.
  void MergeParticipantMark(ParticipantId p, Epoch mark);
  /// The stored claim record for `epoch`; nullopt when the slot is absent
  /// or malformed. Every read of a stored claim goes through here.
  std::optional<EpochClaimRecord> LoadClaim(Epoch epoch) const;
  /// Writes the claim record for `epoch` and marks the claim family.
  void StoreClaim(Epoch epoch, const EpochClaimRecord& rec);
  void HandleClaimEpoch(net::NodeId from, Reader* r, uint64_t req_id);
  void HandleFenceEpoch(net::NodeId from, Reader* r, uint64_t req_id);
  /// Records `epoch` as burned (fenced instance = participant/nonce), stores
  /// its claim record as kPurged, and purges local orphan versions — a
  /// no-op if the local claim committed (a commit is a fact a fence never
  /// overrides) or the burn is already known.
  void MergeFencedEpoch(Epoch epoch, ParticipantId participant, uint64_t nonce);
  /// Deletes every data/page/coordinator version stored at `epoch` and
  /// repairs inverse entries that pointed at a purged page (re-aimed at the
  /// newest surviving version, or dropped when none survives), so discovery
  /// never sees torn state after a fence.
  void PurgeEpochLocal(Epoch epoch);
  void HandleRequest(net::NodeId from, uint16_t code, Reader* r, uint64_t req_id);
  void HandleScanPage(net::NodeId from, Reader* r, uint64_t req_id);
  void HandleFetchTuples(net::NodeId from, Reader* r);
  void HandleTupleData(net::NodeId from, Reader* r);
  void ScanCheckDone(uint64_t scan_id);
  void ScanFail(uint64_t scan_id, Status st);
  /// Sends each page to its replica at `replica_idx`, one kScanPage frame
  /// per index node; refused or failed pages move on to the next replica.
  void StartPageScans(uint64_t scan_id, const std::vector<PageDescriptor>& descs,
                      size_t replica_idx);
  /// FetchTuple for a Retrieve scan's missing id; the row counts only while
  /// the scan and its attempt are live.
  void RecoverMissingTuple(uint64_t scan_id, uint64_t attempt, const TupleId& id);

  void ChargeCpu(double micros) { host_->network()->ChargeCpu(node(), micros); }

  net::NodeHost* host_;
  std::shared_ptr<SnapshotBoard> board_;
  int replication_;
  net::RpcClient rpc_;
  localstore::LocalStore store_;
  // std::less<> enables string_view lookups without temporary strings.
  std::map<std::string, RelationDef, std::less<>> catalog_;
  uint64_t next_scan_id_ = 1;
  std::unordered_map<uint64_t, ScanState> scans_;
  Counters counters_;
  Epoch max_epoch_seen_ = 0;
  Epoch gc_watermark_ = 0;
  GcStats gc_;
  // Retirement index (see MarkGroup): marks above the watermark by the
  // epoch they fall due at, and the version groups due at the watermark
  // (ordered, so retirement walks the store in key order). Both are empty
  // while the watermark is 0.
  std::map<Epoch, std::vector<std::string>> gc_index_;
  std::set<std::string> gc_due_;
  bool gc_task_queued_ = false;
  uint64_t gc_generation_ = 0;  // restart guard for a queued task
  // Multi-writer GC: latest watermark advertised per participant, with the
  // sim time it was heard (entries expire after kParticipantMarkTtlUs).
  struct ParticipantMark {
    Epoch mark = 0;
    sim::SimTime at = 0;
  };
  std::map<ParticipantId, ParticipantMark> participant_marks_;
  // Abandonment fencing. `claim_touch_` is the freshness clock a fence races
  // against: set at every claim grant/re-grant and confirm, seeded to "now"
  // for surviving uncommitted claims on restart (conservative: a replica
  // restart must not make a live owner look stale). Transient by design.
  std::map<Epoch, sim::SimTime> claim_touch_;
  // The hot-path cache of purged burns, with the fenced instance (for
  // instance-exact zombie write refusals). Holds every epoch whose stored
  // claim is kPurged. Durable via those records; rebuilt on restart and
  // re-taught by the replica-push piggyback. Never pruned — fences are rare
  // and a retained entry keeps a stale push from resurrecting orphans.
  std::map<Epoch, FencedInstance> fenced_epochs_;
};

}  // namespace orchestra::storage

#endif  // ORCHESTRA_STORAGE_SERVICE_H_
