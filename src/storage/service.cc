#include "storage/service.h"

#include <algorithm>
#include <iterator>
#include <unordered_set>

#include "common/log.h"
#include "common/strings.h"

namespace orchestra::storage {

void KeyFilter::EncodeTo(Writer* w) const {
  w->PutBool(all);
  if (!all) {
    w->PutString(lo);
    w->PutString(hi);
  }
}

Status KeyFilter::DecodeFrom(Reader* r, KeyFilter* out) {
  ORC_RETURN_IF_ERROR(r->GetBool(&out->all));
  if (!out->all) {
    ORC_RETURN_IF_ERROR(r->GetString(&out->lo));
    ORC_RETURN_IF_ERROR(r->GetString(&out->hi));
  }
  return Status::OK();
}

StorageService::StorageService(net::NodeHost* host,
                               std::shared_ptr<SnapshotBoard> board, int replication,
                               localstore::StoreOptions store_options)
    : host_(host),
      board_(std::move(board)),
      replication_(replication),
      rpc_(host, net::ServiceId::kStorage, kReply),
      store_(store_options) {
  host_->Register(net::ServiceId::kStorage, this);
}

// --------------------------------------------------------------------------
// Local API

void StorageService::AddRelationLocal(const RelationDef& def) {
  catalog_[def.name] = def;
  Writer w;
  def.EncodeTo(&w);
  store_.Put(keys::Catalog(def.name), w.data()).ok();
}

Result<RelationDef> StorageService::Relation(std::string_view name) const {
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    return Status::NotFound("no relation " + std::string(name));
  }
  return it->second;
}

const RelationDef* StorageService::FindRelation(std::string_view name) const {
  auto it = catalog_.find(name);
  return it == catalog_.end() ? nullptr : &it->second;
}

std::vector<std::string> StorageService::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(catalog_.size());
  for (const auto& [name, def] : catalog_) names.push_back(name);
  return names;
}

Result<CoordinatorRecord> StorageService::ReadCoordinatorLocal(const std::string& rel,
                                                               Epoch e) const {
  ORC_ASSIGN_OR_RETURN(std::string bytes, store_.Get(keys::Coord(rel, e)));
  Reader r(bytes);
  CoordinatorRecord rec;
  ORC_RETURN_IF_ERROR(CoordinatorRecord::DecodeFrom(&r, &rec));
  return rec;
}

Result<Page> StorageService::ReadPageLocal(const PageId& id) const {
  ORC_ASSIGN_OR_RETURN(std::string bytes,
                       store_.Get(keys::PageRec(id.relation, id.epoch, id.partition)));
  Reader r(bytes);
  Page page;
  ORC_RETURN_IF_ERROR(Page::DecodeFrom(&r, &page));
  return page;
}

Result<std::string_view> StorageService::ReadTupleBytesLocal(
    std::string_view rel, const TupleId& id) const {
  const RelationDef* def = FindRelation(rel);
  if (def == nullptr) return Status::NotFound("no relation " + std::string(rel));
  HashId h = PlacementHash(*def, id.key_bytes);
  return store_.GetView(keys::Data(rel, h, id.key_bytes, id.epoch));
}

Status StorageService::ReadIdList(
    std::string_view rel, Reader* r, uint64_t n,
    const std::function<void(const keys::WireId&, std::string_view bytes)>& found,
    const std::function<void(const keys::WireId&)>& missing) {
  std::string key = keys::DataPrefix(rel);
  const size_t prefix_len = key.size();
  Status st = Status::OK();
  uint64_t read = 0;
  for (; read < n; ++read) {
    keys::WireId id;
    st = keys::GetWireId(r, &id);
    if (!st.ok()) break;
    key.resize(prefix_len);
    keys::AppendDataFields(&key, id);
    auto bytes = store_.GetView(key);
    // Empty stored bytes are a delete tombstone, never a servable tuple.
    if (bytes.ok() && !bytes.value().empty()) {
      found(id, bytes.value());
    } else {
      missing(id);
    }
  }
  ChargeCpu(host_->network()->costs().tuple_scan_us * static_cast<double>(read));
  return st;
}

// --------------------------------------------------------------------------
// RPC plumbing

void StorageService::Call(net::NodeId to, uint16_t code, std::string body,
                          RpcCallback cb, sim::SimTime timeout_us) {
  rpc_.Call(to, code, std::move(body), std::move(cb), timeout_us);
}

void StorageService::CallAll(const std::vector<net::NodeId>& targets, uint16_t code,
                             const std::string& body,
                             std::function<void(Status)> cb) {
  rpc_.CallAll(targets, code, body, std::move(cb));
}

void StorageService::SendOneWay(net::NodeId to, uint16_t code, std::string body) {
  host_->SendTo(to, net::ServiceId::kStorage, code, std::move(body));
}

void StorageService::RunAfter(sim::SimTime delay, std::function<void()> fn) {
  net::Network* net = host_->network();
  net->RunOnNode(node(), net->simulator()->now() + delay, std::move(fn));
}

void StorageService::OnConnectionDrop(net::NodeId peer) {
  // Orphan reaping: every call addressed to the failed peer resolves now
  // with Unavailable instead of waiting out its deadline.
  rpc_.FailPeer(peer);
}

// --------------------------------------------------------------------------
// Message dispatch

void StorageService::OnMessage(net::NodeId from, uint16_t code,
                               const std::string& payload) {
  // Every storage code, one row each: the one place this node's data
  // storage, index and relation-coordinator roles (Fig. 3) are served
  // from. Code 7 is retired.
  struct Route {
    uint16_t code;
    bool one_way;
    Status (StorageService::*handler)(net::NodeId, Reader*, Writer*);
  };
  static constexpr Route kRoutes[] = {
      {kCatalogAdd, false, &StorageService::HandleCatalogAdd},
      {kPutTuples, false, &StorageService::HandlePutTuples},
      {kPutPage, false, &StorageService::HandlePutPage},
      {kPutCoordinator, false, &StorageService::HandlePutCoordinator},
      {kGetCoordinator, false, &StorageService::HandleGetCoordinator},
      {kGetPage, false, &StorageService::HandleGetPage},
      {kGetTuple, false, &StorageService::HandleGetTuple},
      {kScanPage, false, &StorageService::HandleScanPage},
      {kFetchTuples, true, &StorageService::HandleFetchTuples},
      {kTupleData, true, &StorageService::HandleTupleData},
      {kReplicaPush, false, &StorageService::HandleReplicaPush},
      {kGetMaxEpoch, false, &StorageService::HandleGetMaxEpoch},
      {kSetWatermark, true, &StorageService::HandleSetWatermark},
      {kClaimEpoch, false, &StorageService::HandleClaimEpoch},
      {kGetEpochClaim, false, &StorageService::HandleGetEpochClaim},
      {kReleaseEpoch, true, &StorageService::HandleReleaseEpoch},
      {kConfirmEpoch, false, &StorageService::HandleConfirmEpoch},
      {kFenceEpoch, false, &StorageService::HandleFenceEpoch},
      {kPurgeEpoch, true, &StorageService::HandlePurgeEpoch},
      {kReply, true, &StorageService::HandleReply},
  };
  const Route* route = std::find_if(std::begin(kRoutes), std::end(kRoutes),
                                    [code](const Route& row) { return row.code == code; });
  const bool known = route != std::end(kRoutes);
  Reader r(payload);
  Writer reply;
  if (known && route->one_way) {
    (this->*route->handler)(from, &r, &reply);  // nobody waits on the status
    return;
  }
  uint64_t req_id;
  if (!r.GetU64(&req_id).ok()) return;
  Status st = known ? (this->*route->handler)(from, &r, &reply)
                    : Status::NotSupported("unknown storage code");
  // The one reply, sent after every message the handler sent.
  // lint:allow(rpc-reply): the dispatcher replies for every request row.
  net::RpcClient::SendReply(host_, from, net::ServiceId::kStorage, kReply, req_id,
                            st, reply.Release());
}

Status StorageService::HandleReply(net::NodeId /*from*/, Reader* r,
                                   Writer* /*reply*/) {
  rpc_.HandleReply(r->RemainingView());
  return Status::OK();
}

Status StorageService::HandleCatalogAdd(net::NodeId /*from*/, Reader* r,
                                        Writer* /*reply*/) {
  RelationDef def;
  if (!RelationDef::DecodeFrom(r, &def).ok()) {
    return Status::Corruption("bad catalog entry");
  }
  AddRelationLocal(def);
  return Status::OK();
}

Status StorageService::HandlePutTuples(net::NodeId /*from*/, Reader* r,
                                       Writer* /*reply*/) {
  // One coalesced frame per (publish, destination): every tuple write bound
  // for this node, grouped by relation. Zero-copy receive: every field is
  // consumed as a view of the payload, and the publisher-computed placement
  // hash is spliced straight into the data key — no SHA-1, no
  // TupleId/tuple-bytes copies.
  const auto& costs = host_->network()->costs();
  uint64_t nrels;
  ORC_RETURN_IF_ERROR(r->GetVarint64(&nrels));
  counters_.puttuples_frames += 1;
  uint64_t total = 0, marked = 0;
  uint64_t fenced_refused = 0;
  for (uint64_t ri = 0; ri < nrels; ++ri) {
    std::string_view rel;
    uint64_t n;
    ORC_RETURN_IF_ERROR(r->GetStringView(&rel));
    ORC_RETURN_IF_ERROR(r->GetVarint64(&n));
    if (FindRelation(rel) == nullptr) {
      return Status::NotFound("no relation " + std::string(rel));
    }
    for (uint64_t i = 0; i < n; ++i) {
      keys::WireId id;
      std::string_view tuple_bytes;
      ORC_RETURN_IF_ERROR(keys::GetWireId(r, &id));
      ORC_RETURN_IF_ERROR(r->GetStringView(&tuple_bytes));
      // Zombie write refusal: a fenced epoch can never be resurrected.
      // The empty() fast path keeps the hot loop map-free normally.
      if (!fenced_epochs_.empty() && fenced_epochs_.count(id.epoch) > 0) {
        ++fenced_refused;
        continue;
      }
      std::string key = keys::Data(rel, id);
      store_.Put(key, tuple_bytes).ok();
      marked += MarkGroup(key, id.epoch);
      counters_.tuples_stored += 1;
    }
    total += n;
  }
  ChargeCpu(costs.tuple_write_us * static_cast<double>(total) +
            costs.index_entry_us * static_cast<double>(marked));
  if (fenced_refused > 0) {
    counters_.fenced_writes_refused += fenced_refused;
    return Status::Fenced("tuple writes at a fenced epoch refused");
  }
  return Status::OK();
}

Status StorageService::HandlePutCoordinator(net::NodeId /*from*/, Reader* r,
                                            Writer* reply) {
  // Validate with a full decode, then store the wire bytes verbatim.
  std::string_view rec_bytes = r->RemainingView();
  CoordinatorRecord rec;
  if (!CoordinatorRecord::DecodeFrom(r, &rec).ok() || !r->AtEnd()) {
    return Status::Corruption("bad coordinator record");
  }
  // Zombie commit refusal: a fenced epoch's coordinator chain is burned and
  // purged; no participant may rebuild it.
  if (!fenced_epochs_.empty() && fenced_epochs_.count(rec.epoch) > 0) {
    counters_.fenced_writes_refused += 1;
    return Status::Fenced("coordinator write at fenced epoch " +
                          std::to_string(rec.epoch));
  }
  // Multi-writer commit gate: the first committed writer of (rel, epoch)
  // wins. A record from the SAME participant overwrites freely (the
  // byte-identical same-batch retry); a conflicting participant is refused
  // with kEpochTaken carrying the stored winner so it can re-base onto the
  // committed epoch instead of tearing it.
  auto existing = store_.Get(keys::Coord(rec.relation, rec.epoch));
  if (existing.ok()) {
    Reader er(existing.value());
    CoordinatorRecord old;
    if (CoordinatorRecord::DecodeFrom(&er, &old).ok() && old.participant != 0 &&
        rec.participant != 0 && old.participant != rec.participant) {
      counters_.coordinator_conflicts += 1;
      reply->PutVarint32(old.participant);
      return Status::EpochTaken("coordinator " + rec.relation + "@" +
                                std::to_string(rec.epoch) +
                                " already committed by participant " +
                                std::to_string(old.participant));
    }
  }
  std::string key = keys::Coord(rec.relation, rec.epoch);
  store_.Put(key, rec_bytes).ok();
  MarkGroup(key, rec.epoch);
  counters_.coordinators_stored += 1;
  // Deliberately does NOT advance max_epoch_seen_: a torn publish leaves
  // partial records, and discovery basing on them would absorb uncommitted
  // updates. Only kConfirmEpoch advances the frontier.
  return Status::OK();
}

Status StorageService::HandleConfirmEpoch(net::NodeId /*from*/, Reader* r,
                                          Writer* /*reply*/) {
  // The epoch's coordinator records are all written: mark the claim
  // committed so discovery (kGetMaxEpoch) can report the epoch. Stored even
  // if the claim is missing here — after membership churn the new claim
  // replicas must still learn the confirmed frontier.
  uint64_t epoch, nonce;
  uint32_t participant, claimant_node;
  if (!r->GetVarint64(&epoch).ok() || !r->GetVarint32(&participant).ok() ||
      !r->GetVarint32(&claimant_node).ok() || !r->GetVarint64(&nonce).ok()) {
    return Status::Corruption("bad epoch confirm");
  }
  // A fence that completed first wins: the epoch is burned and its orphans
  // purged, so flipping it committed now would report an epoch whose data is
  // gone. The publisher's ticket fails with kFenced and the batch
  // republishes at a fresh epoch.
  if (fenced_epochs_.count(epoch) > 0) {
    counters_.fenced_writes_refused += 1;
    return Status::Fenced("confirm at fenced epoch " + std::to_string(epoch));
  }
  // A burn PROMISE (fence granted here, unanimity unknown) also refuses the
  // confirm — that refusal is what makes unanimity meaningful — but as a
  // RETRYABLE error, not kFenced: the publisher keeps its epoch pinned and
  // resolves the partial burn on retry (self-fence to unanimity, or
  // recommit once a committed record heals this replica). (A purged burn is
  // always in fenced_epochs_, refused above.)
  auto stored = LoadClaim(epoch);
  if (stored && stored->state == ClaimState::kBurnPromised) {
    counters_.fenced_writes_refused += 1;
    return Status::Unavailable("confirm at burn-promised epoch " +
                               std::to_string(epoch));
  }
  StoreClaim(epoch, EpochClaimRecord{participant, claimant_node,
                                     ClaimState::kCommitted, nonce});
  max_epoch_seen_ = std::max(max_epoch_seen_, epoch);
  claim_touch_[epoch] = host_->network()->simulator()->now();
  return Status::OK();
}

Status StorageService::HandleGetEpochClaim(net::NodeId /*from*/, Reader* r,
                                           Writer* reply) {
  uint64_t epoch;
  ORC_RETURN_IF_ERROR(r->GetVarint64(&epoch));
  auto stored = LoadClaim(epoch);
  if (!stored) return Status::NotFound("no epoch claim");
  stored->EncodeTo(reply);
  return Status::OK();
}

Status StorageService::HandleGetMaxEpoch(net::NodeId /*from*/, Reader* /*r*/,
                                         Writer* reply) {
  reply->PutVarint64(max_epoch_seen_);
  return Status::OK();
}

Status StorageService::HandleGetCoordinator(net::NodeId /*from*/, Reader* r,
                                            Writer* reply) {
  std::string_view rel;
  uint64_t epoch;
  ORC_RETURN_IF_ERROR(r->GetStringView(&rel));
  ORC_RETURN_IF_ERROR(r->GetVarint64(&epoch));
  return ServeRecord(keys::Coord(rel, epoch), reply);
}

Status StorageService::HandleGetPage(net::NodeId /*from*/, Reader* r,
                                     Writer* reply) {
  PageId id;
  ORC_RETURN_IF_ERROR(PageId::DecodeFrom(r, &id));
  return ServeRecord(keys::PageRec(id.relation, id.epoch, id.partition), reply);
}

Status StorageService::ServeRecord(std::string_view key, Writer* reply) const {
  ORC_ASSIGN_OR_RETURN(std::string_view bytes, store_.GetView(key));
  reply->PutRaw(bytes.data(), bytes.size());
  return Status::OK();
}

Status StorageService::HandleGetTuple(net::NodeId /*from*/, Reader* r,
                                      Writer* reply) {
  // The stored bytes are already the encoded tuple: reply with them
  // directly instead of decode + re-encode.
  std::string_view rel;
  TupleId id;
  ORC_RETURN_IF_ERROR(r->GetStringView(&rel));
  ORC_RETURN_IF_ERROR(TupleId::DecodeFrom(r, &id));
  auto bytes = ReadTupleBytesLocal(rel, id);
  ChargeCpu(host_->network()->costs().tuple_scan_us);
  if (!bytes.ok()) return bytes.status();
  // Empty stored bytes are a delete tombstone, never a servable tuple.
  if (bytes->empty()) return Status::NotFound("tuple deleted");
  reply->PutRaw(bytes->data(), bytes->size());
  return Status::OK();
}

Status StorageService::HandleReplicaPush(net::NodeId /*from*/, Reader* r,
                                         Writer* /*reply*/) {
  // Leads with the pusher's participant-watermark table so a restarted node
  // re-learns every participant's mark (not just a scalar) from
  // re-replication; the effective watermark is recomputed as the min.
  const auto& costs = host_->network()->costs();
  uint64_t mark_count, n;
  ORC_RETURN_IF_ERROR(r->GetVarint64(&mark_count));
  std::vector<std::pair<ParticipantId, Epoch>> pushed_marks;
  pushed_marks.reserve(mark_count);
  for (uint64_t i = 0; i < mark_count; ++i) {
    uint32_t p;
    uint64_t m;
    ORC_RETURN_IF_ERROR(r->GetVarint32(&p));
    ORC_RETURN_IF_ERROR(r->GetVarint64(&m));
    pushed_marks.emplace_back(p, m);
  }
  // Piggybacked fenced-epoch table: merged BEFORE the records below so a
  // push can never resurrect orphans at epochs its own sender knows are
  // burned (and so a restarted receiver whose fenced claim records were
  // GC'd below the watermark still re-learns the burns).
  uint64_t fence_count;
  ORC_RETURN_IF_ERROR(r->GetVarint64(&fence_count));
  for (uint64_t i = 0; i < fence_count; ++i) {
    uint64_t fe, fnonce;
    uint32_t fp;
    ORC_RETURN_IF_ERROR(r->GetVarint64(&fe));
    ORC_RETURN_IF_ERROR(r->GetVarint32(&fp));
    ORC_RETURN_IF_ERROR(r->GetVarint64(&fnonce));
    MergeFencedEpoch(fe, fp, fnonce);
  }
  ORC_RETURN_IF_ERROR(r->GetVarint64(&n));
  uint64_t marked = 0;
  for (uint64_t i = 0; i < n; ++i) {
    std::string_view key, value;
    ORC_RETURN_IF_ERROR(r->GetStringView(&key));
    ORC_RETURN_IF_ERROR(r->GetStringView(&value));
    // Every merge of a versioned record marks its group, so a stale push
    // that resurrects a retired version is retired at the next advance.
    Epoch ve = 0;
    const bool versioned = keys::ParseVersionEpoch(key, &ve);
    auto put = [&](std::string_view v) {
      store_.Put(key, v).ok();
      if (versioned) marked += MarkGroup(key, ve);
    };
    if (keys::Tag(key) == keys::kClaimTag) {
      // Epoch claims merge by EpochClaimRecord::Merge. A pushed commit
      // replaces anything weaker (the commit is a fact — including a burn
      // promise from a fence round the commit's confirm refused elsewhere).
      // A PURGED burn carries purge authority and merges via the phase-two
      // path; a bare burn promise only installs the marker — it must never
      // purge, its fence round may have failed. A plain claim fills an
      // empty slot (never a burned epoch's) with a conservatively-fresh
      // clock (a pushed claim's owner gets a TTL of grace before a fence
      // can use this replica's vote).
      Reader vr(value);
      EpochClaimRecord pushed;
      if (!versioned || !EpochClaimRecord::DecodeFrom(&vr, &pushed).ok()) {
        continue;
      }
      if (pushed.state == ClaimState::kPurged) {
        MergeFencedEpoch(ve, pushed.participant, pushed.nonce);
        continue;
      }
      if (pushed.state == ClaimState::kCommitted) {
        max_epoch_seen_ = std::max(max_epoch_seen_, ve);
        claim_touch_.erase(ve);
      }
      auto mine = LoadClaim(ve);
      if (EpochClaimRecord::Merge(mine, pushed) == mine) continue;
      if (pushed.state == ClaimState::kClaimed) {
        if (fenced_epochs_.count(ve) > 0) continue;
        claim_touch_[ve] = host_->network()->simulator()->now();
      } else if (pushed.state == ClaimState::kBurnPromised) {
        claim_touch_.erase(ve);
      }
      put(value);
      continue;
    }
    if (keys::Tag(key) == keys::kCoordTag) {
      // Coordinator records replicate store-if-absent like everything else,
      // EXCEPT when replicas disagree about a (rel, epoch)'s writer —
      // possible only after the commit-gate backstop fired under a
      // claim-replica wipeout. Store-if-absent would then freeze the
      // disagreement forever (neither writer's pushes could ever overwrite
      // the other's replicas); merging toward the smaller participant makes
      // every replica CONVERGE to one deterministic writer per epoch
      // instead.
      if (versioned && fenced_epochs_.count(ve) > 0) {
        continue;  // burned epoch: never rebuild its coordinator chain
      }
      auto curv = store_.Get(key);
      if (!curv.ok()) {
        put(value);
      } else {
        Reader pr(value);
        Reader cr(curv.value());
        CoordinatorRecord pushed, mine;
        if (CoordinatorRecord::DecodeFrom(&pr, &pushed).ok() &&
            CoordinatorRecord::DecodeFrom(&cr, &mine).ok() &&
            pushed.participant != 0 && mine.participant != 0 &&
            pushed.participant < mine.participant) {
          put(value);
        }
      }
      continue;
    }
    // Fence filter on store-if-absent: a stale pusher that missed a fence
    // must not resurrect the purged orphans here.
    if (versioned && fenced_epochs_.count(ve) > 0) continue;
    if (!store_.Contains(key)) put(value);
    if (keys::Tag(key) == keys::kCatalogTag) {
      Reader cr(value);
      RelationDef def;
      if (RelationDef::DecodeFrom(&cr, &def).ok()) catalog_[def.name] = def;
    }
  }
  ChargeCpu(costs.tuple_write_us * static_cast<double>(n) +
            costs.index_entry_us * static_cast<double>(marked));
  // Piggybacked GC watermarks: a freshly restarted node (its table resets
  // empty) learns every participant's mark from the first replica push
  // instead of waiting for the next advertisements (and arms its retirement
  // index). Conversely, a push from a node that lags OUR watermark may have
  // resurrected already-retired records: their marks are due, and
  // retirement runs once for the whole push.
  for (const auto& [p, m] : pushed_marks) MergeParticipantMark(p, m);
  Epoch effective = EffectiveParticipantWatermark();
  if (effective > gc_watermark_) AdvanceGc(effective);
  ScheduleRetirement();
  return Status::OK();
}

Status StorageService::HandleSetWatermark(net::NodeId /*from*/, Reader* r,
                                          Writer* /*reply*/) {
  uint32_t participant;
  uint64_t w;
  ORC_RETURN_IF_ERROR(r->GetVarint32(&participant));
  ORC_RETURN_IF_ERROR(r->GetVarint64(&w));
  SetParticipantWatermark(participant, w);
  return Status::OK();
}

Status StorageService::HandlePurgeEpoch(net::NodeId /*from*/, Reader* r,
                                        Writer* /*reply*/) {
  // One-way fence propagation from a successful fence round: record the
  // burn and purge local orphans. Safe against races by construction —
  // MergeFencedEpoch refuses to touch a committed epoch.
  uint64_t epoch, nonce;
  uint32_t participant;
  ORC_RETURN_IF_ERROR(r->GetVarint64(&epoch));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&participant));
  ORC_RETURN_IF_ERROR(r->GetVarint64(&nonce));
  MergeFencedEpoch(epoch, participant, nonce);
  return Status::OK();
}

Status StorageService::HandleReleaseEpoch(net::NodeId /*from*/, Reader* r,
                                          Writer* /*reply*/) {
  // One-way claim cleanup from a failed publish: delete the claim only if it
  // is still the EXACT instance the releaser stored — matched by
  // (participant, nonce). A successor claimant's slot is not ours to clear,
  // and neither is a NEWER attempt of the same participant (a delayed
  // release from a dead attempt must not unpin the epoch its retry
  // re-claimed and is writing at).
  uint64_t epoch, nonce;
  uint32_t participant;
  ORC_RETURN_IF_ERROR(r->GetVarint64(&epoch));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&participant));
  ORC_RETURN_IF_ERROR(r->GetVarint64(&nonce));
  auto stored = LoadClaim(epoch);
  if (stored && stored->participant == participant && stored->nonce == nonce &&
      stored->state == ClaimState::kClaimed) {
    // A burn is NOT the releaser's to clear either: it must survive so the
    // epoch stays dead for everyone.
    store_.Delete(keys::EpochClaim(epoch)).ok();
    claim_touch_.erase(epoch);
  }
  return Status::OK();
}

Status StorageService::HandlePutPage(net::NodeId /*from*/, Reader* r,
                                     Writer* reply) {
  uint64_t n;
  if (!r->GetVarint64(&n).ok()) return Status::Corruption("bad page frame");
  Writer refused;  // frame indices of refused deltas
  uint64_t n_refused = 0, fenced = 0;
  Epoch fenced_epoch = 0;
  std::string merged;
  for (uint64_t i = 0; i < n; ++i) {
    PageWrite pw;
    Page page;
    if (!PageWrite::DecodeFrom(r, &pw).ok()) return Status::Corruption("bad page");
    if (pw.kind == PageWrite::Kind::kFull) {
      // A whole page is validated with a full decode and stored verbatim.
      Reader pr(pw.page_bytes);
      if (!Page::DecodeFrom(&pr, &page).ok() || !pr.AtEnd()) {
        return Status::Corruption("bad page");
      }
      pw.desc = page.desc;
    }
    const PageId& id = pw.desc.id;
    if (!fenced_epochs_.empty() && fenced_epochs_.count(id.epoch) > 0) {
      ++fenced;
      fenced_epoch = id.epoch;
      continue;
    }
    if (pw.kind == PageWrite::Kind::kFull) {
      StorePage(id, pw.page_bytes, page.ids.size());
      continue;
    }
    // A delta is rebuilt over the stored base version. No base here (fresh
    // replica, restart, retired) or a mismatch is refused, not an error:
    // the publisher resends that page whole.
    auto base = store_.GetView(keys::PageRec(id.relation, pw.base_epoch, id.partition));
    uint64_t entries = 0;
    if (!base.ok() || !MergePageDelta(base.value(), pw, &merged, &entries).ok()) {
      counters_.page_delta_fallbacks += 1;
      refused.PutVarint64(i);
      ++n_refused;
      continue;
    }
    StorePage(id, merged, entries);
  }
  if (fenced > 0) {
    counters_.fenced_writes_refused += fenced;
    return Status::Fenced("page write at fenced epoch " + std::to_string(fenced_epoch));
  }
  reply->PutVarint64(n_refused);
  reply->PutRaw(refused.data().data(), refused.size());
  return Status::OK();
}

void StorageService::StorePage(const PageId& id, std::string_view page_bytes,
                               uint64_t entries) {
  std::string key = keys::PageRec(id.relation, id.epoch, id.partition);
  store_.Put(key, page_bytes).ok();
  counters_.pages_stored += 1;
  const bool marked = MarkGroup(key, id.epoch);
  ChargeCpu(host_->network()->costs().index_entry_us *
            static_cast<double>(entries + marked));
  if (marked && id.epoch > gc_watermark_) {
    gc_due_.emplace(keys::VersionGroupPrefix(key));
    ScheduleRetirement();
  }
}

std::optional<EpochClaimRecord> StorageService::LoadClaim(Epoch epoch) const {
  auto bytes = store_.Get(keys::EpochClaim(epoch));
  if (!bytes.ok()) return std::nullopt;
  Reader r(bytes.value());
  EpochClaimRecord rec;
  if (!EpochClaimRecord::DecodeFrom(&r, &rec).ok()) return std::nullopt;
  return rec;
}

void StorageService::StoreClaim(Epoch epoch, const EpochClaimRecord& rec) {
  Writer w;
  rec.EncodeTo(&w);
  const std::string key = keys::EpochClaim(epoch);
  store_.Put(key, w.data()).ok();
  MarkGroup(key, epoch);
}

Status StorageService::HandleClaimEpoch(net::NodeId /*from*/, Reader* r,
                                        Writer* reply) {
  // The pre-write serialization point of multi-writer publishing. Body:
  // epoch, participant, claimant node, attempt nonce. Grant rules, in order:
  //   * empty slot                        -> store, grant;
  //   * stored participant == requester   -> grant (idempotent retry; node
  //                                          and nonce refresh to the newest
  //                                          attempt's);
  //   * otherwise                         -> kEpochTaken, body names the
  //                                          stored winner instance.
  // There is deliberately NO takeover rule — not for "split" claims and not
  // for claims whose holder node died. Any takeover breaks under membership
  // churn (a kill reshuffles the claim replica set, so a takeover can seize
  // an epoch whose holder held a full claim on the previous set and already
  // wrote at it). A wedged epoch is unwedged only by its own participant's
  // same-batch retry (idempotent re-grant) or its instance-exact release;
  // split races resolve through the publishers' per-participant stall
  // phases (see Publisher::LoseEpoch).
  uint64_t epoch, nonce;
  uint32_t participant, claimant_node;
  if (!r->GetVarint64(&epoch).ok() || !r->GetVarint32(&participant).ok() ||
      !r->GetVarint32(&claimant_node).ok() || !r->GetVarint64(&nonce).ok()) {
    return Status::Corruption("bad epoch claim");
  }
  ChargeCpu(host_->network()->costs().tuple_scan_us);
  // Unanimity-table backstop: a burned epoch stays refused even after its
  // claim record was GC'd below the watermark (the in-memory burned set
  // outlives the record; pushes and kPurgeEpoch keep re-seeding it).
  if (fenced_epochs_.count(epoch) > 0) {
    const FencedInstance& inst = fenced_epochs_[epoch];
    counters_.claims_refused += 1;
    reply->PutVarint32(inst.participant);
    reply->PutVarint32(0);
    reply->PutVarint64(inst.nonce);
    return Status::Fenced("epoch " + std::to_string(epoch) +
                          " burned by abandonment fencing");
  }
  // A malformed slot reads as empty, like an absent one. A purged burn is
  // always in fenced_epochs_ (refused above). A bare burn promise (a fence
  // round touched this replica; unanimity unknown — the epoch may yet
  // commit through a heal, or harden to a purged burn) is refused like an
  // ordinary taken slot so the requester waits and resolves it through the
  // probe/fence machinery instead of skipping an epoch that might still
  // commit. Deliberately NO owner re-grant for it: silently clearing the
  // promise would reopen the confirm-vs-fence race the promise exists to
  // close — the owner retires its own instance with a self-fence instead.
  auto stored = LoadClaim(epoch);
  const bool promised = stored && stored->state == ClaimState::kBurnPromised;
  if (stored && (promised || stored->participant != participant)) {
    counters_.claims_refused += 1;
    reply->PutVarint32(stored->participant);
    reply->PutVarint32(stored->node);
    reply->PutVarint64(stored->nonce);
    return Status::EpochTaken(StrCat({"epoch ", std::to_string(epoch),
                                      promised ? " burn-promised under" : " claimed by",
                                      " participant ",
                                      std::to_string(stored->participant)}));
  }
  // Grant an empty slot, or re-grant the same participant idempotently.
  // kConfirmEpoch raises a claim to kCommitted once the epoch's coordinator
  // records are all written; a re-grant preserves the state (a publisher
  // retrying a publish that failed after its commit round must not
  // un-commit the epoch). The stored nonce only moves FORWARD (attempt
  // nonces are monotonic per publisher): a DELAYED claim from an old attempt
  // must not roll the instance back, or the old attempt's equally delayed
  // release could match again and unpin the epoch the newest attempt is
  // writing at.
  StoreClaim(epoch, EpochClaimRecord{participant, claimant_node,
                                     stored ? stored->state : ClaimState::kClaimed,
                                     stored ? std::max(stored->nonce, nonce) : nonce});
  counters_.claims_granted += 1;
  // The freshness clock a fence races against: every grant (including the
  // owner's periodic refresh re-grants) resets the staleness TTL.
  claim_touch_[epoch] = host_->network()->simulator()->now();
  return Status::OK();
}

Status StorageService::HandleFenceEpoch(net::NodeId /*from*/, Reader* r,
                                        Writer* reply) {
  // Abandonment fencing (see kFenceEpoch in service.h). Decision order:
  //   1. already fenced            -> idempotent grant (another fencer won a
  //                                   race, or this is a retry);
  //   2. behind confirmed frontier -> refuse (a vacuous grant after
  //                                   membership churn could burn an epoch
  //                                   that committed elsewhere);
  //   3. stored claim committed    -> refuse (a commit is a fact; purging
  //                                   under it would lose visible data);
  //   4. slot changed hands        -> refuse (the fencer's staleness
  //                                   evidence is about a different owner);
  //   5. owner still fresh         -> refuse (a live-but-slow owner's claim
  //                                   refreshes win the race against fences)
  //                                   — waived when the owner fences ITSELF
  //                                   (retiring its own doomed instance);
  //   6. otherwise                 -> burn the epoch: store the fenced
  //                                   marker (refusing all future claims and
  //                                   confirms here).
  // A missing/malformed slot past the frontier grants vacuously — the burn
  // marker is what keeps a zombie's late re-claim out.
  //
  // The grant deliberately does NOT purge data: this round may still be
  // refused at another replica (owner fresh there, or its confirm landed
  // first), and a purge under an epoch that can still be observed committed
  // would delete visible data. Purging happens only in phase two — the
  // fencer's kPurgeEpoch broadcast after EVERY replica granted, which proves
  // no confirm round can ever complete at this epoch.
  uint64_t epoch, ttl_us;
  uint32_t fencer, fenced_participant;
  if (!r->GetVarint64(&epoch).ok() || !r->GetVarint32(&fencer).ok() ||
      !r->GetVarint32(&fenced_participant).ok() ||
      !r->GetVarint64(&ttl_us).ok()) {
    return Status::Corruption("bad fence request");
  }
  ChargeCpu(host_->network()->costs().tuple_scan_us);
  auto stored = LoadClaim(epoch);
  const bool burned = stored && (stored->state == ClaimState::kBurnPromised ||
                                 stored->state == ClaimState::kPurged);
  Status refused = Status::OK();
  if (burned) {
    // Granted again below, naming the stored instance.
  } else if (epoch <= max_epoch_seen_) {
    refused = Status::EpochTaken("fence refused: epoch " + std::to_string(epoch) +
                                 " is at or behind the confirmed frontier");
  } else if (stored && stored->state == ClaimState::kCommitted) {
    refused = Status::EpochTaken("fence refused: epoch " + std::to_string(epoch) +
                                 " committed by participant " +
                                 std::to_string(stored->participant));
  } else if (stored && stored->participant != fenced_participant) {
    refused = Status::EpochTaken(
        "fence refused: epoch " + std::to_string(epoch) + " now held by " +
        std::to_string(stored->participant) + ", not " +
        std::to_string(fenced_participant));
  } else if (stored && fencer != fenced_participant) {
    // A self-fence (the owner retiring its own instance — it discovered a
    // partial burn it can neither commit through nor safely abandon) waives
    // the freshness check: the clock protects the owner, and the owner is
    // the requester.
    auto touch = claim_touch_.find(epoch);
    sim::SimTime now = host_->network()->simulator()->now();
    if (touch == claim_touch_.end()) {
      // Unknown freshness: this replica gained the claim without a grant
      // (replica push, rebalance). Seed the clock and refuse once — the
      // owner, if live, gets one TTL of grace to heartbeat it; a truly
      // abandoned claim is fenceable one TTL later.
      claim_touch_[epoch] = now;
      refused = Status::Unavailable("fence refused: claim owner of epoch " +
                                    std::to_string(epoch) +
                                    " has unknown freshness; seeded");
    } else if (now - touch->second < static_cast<sim::SimTime>(ttl_us)) {
      refused = Status::Unavailable("fence refused: claim owner of epoch " +
                                    std::to_string(epoch) + " is still fresh");
    }
  }
  if (!refused.ok()) {
    counters_.fences_refused += 1;
    return refused;
  }
  EpochClaimRecord inst = stored.value_or(EpochClaimRecord{fenced_participant});
  if (!burned) {
    inst.state = ClaimState::kBurnPromised;
    StoreClaim(epoch, inst);
    claim_touch_.erase(epoch);
  }
  counters_.fences_granted += 1;
  reply->PutVarint32(inst.participant);
  reply->PutVarint32(inst.node);
  reply->PutVarint64(inst.nonce);
  return Status::OK();
}

void StorageService::MergeFencedEpoch(Epoch epoch, ParticipantId participant,
                                      uint64_t nonce) {
  auto stored = LoadClaim(epoch);
  // A commit is a fact a fence never overrides: if this replica learned the
  // epoch committed (the fence round and a confirm round can interleave at
  // DIFFERENT replicas; both then fail their callers), keep the commit.
  if (stored && stored->state == ClaimState::kCommitted) return;
  if (!fenced_epochs_.emplace(epoch, FencedInstance{participant, nonce}).second) {
    return;
  }
  claim_touch_.erase(epoch);
  // Persist the burn as kPurged so a restart re-learns it and replica pushes
  // propagate it (the marker replicates like any claim record). Purge
  // authority is what distinguishes this phase-two entry point from a fence
  // grant's burn promise: callers reach here only downstream of a
  // unanimously granted fence round. A stored record keeps naming its own
  // instance.
  EpochClaimRecord burned =
      stored.value_or(EpochClaimRecord{participant, 0, ClaimState::kClaimed, nonce});
  burned.state = ClaimState::kPurged;
  StoreClaim(epoch, burned);
  PurgeEpochLocal(epoch);
}

void StorageService::PurgeEpochLocal(Epoch epoch) {
  // The orphan purge behind a fence: the burned epoch never committed (both
  // fence entry points refuse committed epochs), so every version stored at
  // it is unreachable garbage — and worse, a data version at the burned
  // epoch would SHADOW the committed version the coordinator chain
  // references once the GC watermark passes it. One ordered pass per family.
  std::vector<std::string> doomed;
  uint64_t scanned = 0;
  for (char tag : {keys::kDataTag, keys::kPageTag, keys::kCoordTag}) {
    for (auto it = store_.SeekPrefix(keys::TagPrefix(tag)); it.Valid(); it.Next()) {
      ++scanned;
      Epoch e;
      if (keys::ParseVersionEpoch(it.key(), &e) && e == epoch) {
        doomed.emplace_back(it.key());
      }
    }
  }
  for (const std::string& key : doomed) store_.Delete(key).ok();
  counters_.purged_orphans += doomed.size();
  ChargeCpu(host_->network()->costs().tuple_scan_us *
            static_cast<double>(scanned + doomed.size()));
}

Status StorageService::HandleScanPage(net::NodeId /*from*/, Reader* r,
                                      Writer* reply) {
  uint64_t scan_id, attempt, n;
  uint32_t requester;
  std::string rel;
  KeyFilter filter;
  if (!r->GetU64(&scan_id).ok() || !r->GetVarint64(&attempt).ok() ||
      !r->GetU32(&requester).ok() ||
      !r->GetString(&rel).ok() || !KeyFilter::DecodeFrom(r, &filter).ok() ||
      !r->GetVarint64(&n).ok()) {
    return Status::Corruption("bad scan request");
  }
  if (FindRelation(rel) == nullptr) return Status::NotFound("no relation " + rel);

  // Group the surviving tuple ids of every page in the frame by their data
  // storage node (Algorithm 1 line 8), routing on the hashes carried in the
  // pages — no SHA-1 per id — so each owner gets one kFetchTuples.
  std::map<net::NodeId, keys::IdListWriter> by_owner;
  Writer refused;  // frame indices of pages this replica does not hold
  uint64_t n_refused = 0;
  for (uint64_t i = 0; i < n; ++i) {
    PageDescriptor desc;
    if (!PageDescriptor::DecodeFrom(r, &desc).ok()) {
      return Status::Corruption("bad scan request");
    }
    auto page = ReadPageLocal(desc.id);
    if (!page.ok()) {
      // Not (yet) here: the requester asks the page's next replica.
      refused.PutVarint64(i);
      ++n_refused;
      continue;
    }
    counters_.scans_served += 1;
    ChargeCpu(host_->network()->costs().index_entry_us *
              static_cast<double>(page->ids.size()));
    for (size_t k = 0; k < page->ids.size(); ++k) {
      if (!filter.Matches(page->ids[k].key_bytes)) continue;
      by_owner[board_->current.OwnerOf(page->hashes[k])].Add(page->hashes[k],
                                                             page->ids[k]);
    }
  }
  counters_.scan_frames_served += 1;

  uint64_t total_ids = 0;
  for (const auto& [owner, ids] : by_owner) {
    Writer w;
    w.PutU64(scan_id);
    w.PutVarint64(attempt);
    w.PutU32(requester);
    w.PutString(rel);
    ids.EncodeTo(&w);
    total_ids += ids.count();
    SendOneWay(owner, kFetchTuples, w.Release());
  }

  // Frame summary back to the requester so it can count completion.
  reply->PutVarint64(by_owner.size());
  reply->PutVarint64(total_ids);
  reply->PutVarint64(n_refused);
  reply->PutRaw(refused.data().data(), refused.size());
  return Status::OK();
}

Status StorageService::HandleFetchTuples(net::NodeId /*from*/, Reader* r,
                                         Writer* /*reply*/) {
  uint64_t scan_id, attempt;
  uint32_t requester;
  std::string rel;
  uint64_t n;
  if (!r->GetU64(&scan_id).ok() || !r->GetVarint64(&attempt).ok() ||
      !r->GetU32(&requester).ok() || !r->GetString(&rel).ok() ||
      !r->GetVarint64(&n).ok()) {
    return Status::Corruption("bad fetch frame");
  }
  Writer out;
  out.PutU64(scan_id);
  out.PutVarint64(attempt);
  // The stored bytes ARE the encoded tuple: splice them into the reply
  // without decode/re-encode.
  Writer rows;
  Writer missing;
  uint64_t rows_n = 0, missing_n = 0;
  Status st = ReadIdList(
      rel, r, n,
      [&](const keys::WireId&, std::string_view bytes) {
        rows.PutRaw(bytes.data(), bytes.size());
        ++rows_n;
      },
      [&](const keys::WireId& id) {
        TupleId{std::string(id.key_bytes), id.epoch}.EncodeTo(&missing);
        ++missing_n;
      });
  if (!st.ok()) return st;
  counters_.tuples_served += rows_n;
  out.PutString(rel);
  out.PutVarint64(rows_n);
  out.PutRaw(rows.data().data(), rows.size());
  out.PutVarint64(missing_n);
  out.PutRaw(missing.data().data(), missing.size());
  // Direct to the requester, "bypassing the Index node and Relation
  // Coordinator" (Algorithm 1 line 9).
  SendOneWay(requester, kTupleData, out.Release());
  return Status::OK();
}

Status StorageService::HandleTupleData(net::NodeId from, Reader* r,
                                       Writer* /*reply*/) {
  uint64_t scan_id, attempt;
  std::string rel;
  if (!r->GetU64(&scan_id).ok() || !r->GetVarint64(&attempt).ok() ||
      !r->GetString(&rel).ok()) {
    return Status::Corruption("bad tuple data frame");
  }
  auto it = scans_.find(scan_id);
  if (it == scans_.end()) return Status::OK();  // scan already failed/finished
  auto at = it->second.attempts.find(attempt);
  if (at == it->second.attempts.end()) return Status::OK();  // frame failed over
  ScanState::Attempt& part = at->second;

  uint64_t rows_n;
  ORC_RETURN_IF_ERROR(r->GetVarint64(&rows_n));
  for (uint64_t i = 0; i < rows_n; ++i) {
    Tuple t;
    ORC_RETURN_IF_ERROR(DecodeTuple(r, &t));
    part.rows.push_back(std::move(t));
  }
  uint64_t missing_n;
  ORC_RETURN_IF_ERROR(r->GetVarint64(&missing_n));
  std::vector<TupleId> missing(missing_n);
  for (auto& id : missing) ORC_RETURN_IF_ERROR(TupleId::DecodeFrom(r, &id));
  part.parts_received += 1;
  part.lookups_outstanding += missing.size();
  // `from` is the data node that just found these ids missing.
  for (const auto& id : missing) RecoverMissingTuple(scan_id, attempt, id, from);
  ScanCheckDone(scan_id);
  return Status::OK();
}

// --------------------------------------------------------------------------
// Retrieve (Algorithm 1)

void StorageService::GetCoordinator(
    const std::string& rel, Epoch epoch,
    std::function<void(Status, CoordinatorRecord)> cb) {
  HashId where = CoordinatorHash(rel, epoch);
  auto replicas = board_->current.ReplicasOf(where, replication_);
  Writer w;
  w.PutString(rel);
  w.PutVarint64(epoch);

  rpc_.CallFirst(std::move(replicas), kGetCoordinator, w.Release(),
                 [cb = std::move(cb)](Status st, const std::string& reply) {
                   if (!st.ok()) {
                     // Pass the last replica's error through: NotFound (a live
                     // replica definitively lacks the record) means something
                     // different to the publisher's walk-back than a timeout
                     // or drop does, and must not be flattened away.
                     cb(st, {});
                     return;
                   }
                   Reader r(reply);
                   CoordinatorRecord rec;
                   Status ds = CoordinatorRecord::DecodeFrom(&r, &rec);
                   if (ds.ok()) {
                     cb(Status::OK(), std::move(rec));
                   } else {
                     cb(ds, {});
                   }
                 });
}

void StorageService::GetPage(const PageDescriptor& desc,
                             std::function<void(Status, Page)> cb) {
  auto replicas = board_->current.ReplicasOf(desc.home(), replication_);
  Writer w;
  desc.id.EncodeTo(&w);

  rpc_.CallFirst(std::move(replicas), kGetPage, w.Release(),
                 [cb = std::move(cb)](Status st, const std::string& reply) {
                   if (!st.ok()) {
                     cb(Status::Unavailable("no replica has page"), {});
                     return;
                   }
                   Reader r(reply);
                   Page page;
                   Status ds = Page::DecodeFrom(&r, &page);
                   if (ds.ok()) {
                     cb(Status::OK(), std::move(page));
                   } else {
                     cb(ds, {});
                   }
                 });
}

void StorageService::Retrieve(const std::string& rel, Epoch epoch,
                              const KeyFilter& filter, RetrieveCallback cb) {
  uint64_t scan_id = next_scan_id_++;
  ScanState state;
  state.relation = rel;
  state.epoch = epoch;
  state.filter = filter;
  state.cb = std::move(cb);
  state.deadline_event = host_->network()->simulator()->ScheduleAfter(
      kScanDeadlineUs, [this, scan_id] {
        ScanFail(scan_id, Status::TimedOut("retrieve scan deadline"));
      });
  scans_.emplace(scan_id, std::move(state));

  GetCoordinator(rel, epoch, [this, scan_id](Status st, CoordinatorRecord rec) {
    auto it = scans_.find(scan_id);
    if (it == scans_.end()) return;
    if (!st.ok()) {
      ScanFail(scan_id, st);
      return;
    }
    it->second.pages_total = rec.pages.size();
    if (rec.pages.empty()) {
      ScanCheckDone(scan_id);
      return;
    }
    StartPageScans(scan_id, rec.pages, 0);
  });
}

void StorageService::StartPageScans(uint64_t scan_id,
                                    const std::vector<PageDescriptor>& descs,
                                    size_t replica_idx) {
  auto it = scans_.find(scan_id);
  if (it == scans_.end()) return;
  const ScanState& state = it->second;

  // Every page goes to ITS replica at `replica_idx`, so failover walks each
  // page's own replica order, exactly as a one-page scan would.
  std::map<net::NodeId, std::vector<PageDescriptor>> frames;
  for (const PageDescriptor& desc : descs) {
    auto replicas = board_->current.ReplicasOf(desc.home(), replication_);
    if (replica_idx >= replicas.size()) {
      ScanFail(scan_id, Status::Unavailable("no replica can scan page " +
                                            desc.id.ToString()));
      return;
    }
    frames[replicas[replica_idx]].push_back(desc);
  }
  for (auto& [to, frame] : frames) {
    const uint64_t attempt = it->second.next_attempt++;
    it->second.attempts.emplace(attempt, ScanState::Attempt{});
    Writer w;
    w.PutU64(scan_id);
    w.PutVarint64(attempt);
    w.PutU32(node());
    w.PutString(state.relation);
    state.filter.EncodeTo(&w);
    w.PutVarint64(frame.size());
    for (const PageDescriptor& desc : frame) desc.EncodeTo(&w);
    Call(to, kScanPage, w.Release(),
         [this, scan_id, attempt, frame = std::move(frame), replica_idx](
             Status st, const std::string& reply) {
           auto sit = scans_.find(scan_id);
           if (sit == scans_.end()) return;
           if (!st.ok()) {
             // The whole frame fails over. Data parts its index node may
             // already have sent are dropped with the attempt.
             sit->second.attempts.erase(attempt);
             StartPageScans(scan_id, frame, replica_idx + 1);
             return;
           }
           Reader r(reply);
           uint64_t parts, ids, n_refused;
           std::vector<PageDescriptor> refused;
           bool ok = r.GetVarint64(&parts).ok() && r.GetVarint64(&ids).ok() &&
                     r.GetVarint64(&n_refused).ok() && n_refused <= frame.size();
           for (uint64_t k = 0; ok && k < n_refused; ++k) {
             uint64_t i;
             ok = r.GetVarint64(&i).ok() && i < frame.size();
             if (ok) refused.push_back(frame[i]);
           }
           if (!ok) {
             ScanFail(scan_id, Status::Corruption("bad scan frame summary"));
             return;
           }
           sit->second.pages_answered += frame.size() - refused.size();
           sit->second.attempts[attempt].parts_expected = parts;
           if (!refused.empty()) StartPageScans(scan_id, refused, replica_idx + 1);
           ScanCheckDone(scan_id);
         });
  }
}

void StorageService::FetchTuple(const std::string& rel, const TupleId& id,
                                net::NodeId missed_at,
                                std::function<void(Status, Tuple)> cb) {
  const RelationDef* def = FindRelation(rel);
  if (def == nullptr) {
    cb(Status::NotFound("no relation " + rel), {});
    return;
  }
  auto replicas =
      board_->current.ReplicasOf(PlacementHash(*def, id.key_bytes), replication_);
  replicas.erase(std::remove(replicas.begin(), replicas.end(), missed_at),
                 replicas.end());
  Writer w;
  w.PutString(rel);
  id.EncodeTo(&w);

  rpc_.CallFirst(std::move(replicas), kGetTuple, w.Release(),
                 [cb = std::move(cb)](Status st, const std::string& reply) {
                   if (!st.ok()) {
                     cb(Status::Unavailable("tuple not found on any replica"), {});
                     return;
                   }
                   Reader r(reply);
                   Tuple t;
                   Status ds = DecodeTuple(&r, &t);
                   if (!ds.ok()) {
                     cb(ds, {});
                     return;
                   }
                   cb(Status::OK(), std::move(t));
                 });
}

void StorageService::RecoverMissingTuple(uint64_t scan_id, uint64_t attempt,
                                         const TupleId& id, net::NodeId missed_at) {
  auto it = scans_.find(scan_id);
  if (it == scans_.end()) return;
  FetchTuple(it->second.relation, id, missed_at, [this, scan_id, attempt](Status st, Tuple t) {
    auto sit = scans_.find(scan_id);
    if (sit == scans_.end()) return;
    auto at = sit->second.attempts.find(attempt);
    if (at == sit->second.attempts.end()) return;  // attempt abandoned
    if (!st.ok()) {
      ScanFail(scan_id, st);
      return;
    }
    at->second.rows.push_back(std::move(t));
    at->second.lookups_outstanding -= 1;
    ScanCheckDone(scan_id);
  });
}

void StorageService::ScanCheckDone(uint64_t scan_id) {
  auto it = scans_.find(scan_id);
  if (it == scans_.end()) return;
  ScanState& state = it->second;
  // Every page answered means every live attempt was answered too.
  if (state.pages_answered < state.pages_total) return;
  for (const auto& [attempt, part] : state.attempts) {
    if (part.parts_received < part.parts_expected) return;
    if (part.lookups_outstanding > 0) return;
  }
  RetrieveCallback cb = std::move(state.cb);
  std::vector<Tuple> rows;
  for (auto& [attempt, part] : state.attempts) {
    std::move(part.rows.begin(), part.rows.end(), std::back_inserter(rows));
  }
  host_->network()->simulator()->Cancel(state.deadline_event);
  scans_.erase(it);
  cb(Status::OK(), std::move(rows));
}

void StorageService::ScanFail(uint64_t scan_id, Status st) {
  auto it = scans_.find(scan_id);
  if (it == scans_.end()) return;
  RetrieveCallback cb = std::move(it->second.cb);
  host_->network()->simulator()->Cancel(it->second.deadline_event);
  scans_.erase(it);
  cb(st, {});
}

// --------------------------------------------------------------------------
// Background re-replication

void StorageService::RebalanceTo(const overlay::RoutingSnapshot& snap) {
  std::map<net::NodeId, Writer> batches;
  std::map<net::NodeId, uint64_t> batch_counts;

  auto add_to = [&](net::NodeId target, std::string_view key, std::string_view value) {
    if (target == node()) return;
    Writer& w = batches[target];
    w.PutString(key);
    w.PutString(value);
    batch_counts[target] += 1;
  };

  for (auto it = store_.Seek(""); it.Valid(); it.Next()) {
    std::string_view key = it.key();
    if (key.empty()) continue;
    std::vector<net::NodeId> targets;
    switch (keys::Tag(key)) {
      case keys::kDataTag: {
        keys::ParsedDataKey dk;
        if (!keys::ParseData(key, &dk)) continue;
        HashId h = HashId::FromBigEndianBytes(dk.hash_be20);
        targets = snap.ReplicasOf(h, replication_);
        break;
      }
      case keys::kPageTag: {
        keys::ParsedPageKey pk;
        if (!keys::ParsePageRec(key, &pk)) continue;
        auto def = catalog_.find(std::string(pk.relation));
        if (def == catalog_.end()) continue;
        targets = snap.ReplicasOf(
            PartitionHome(pk.partition, def->second.num_partitions), replication_);
        break;
      }
      case keys::kCoordTag: {
        keys::ParsedCoordKey ck;
        if (!keys::ParseCoord(key, &ck)) continue;
        targets = snap.ReplicasOf(CoordinatorHash(std::string(ck.relation), ck.epoch),
                                  replication_);
        break;
      }
      case keys::kClaimTag: {
        Epoch e;
        if (!keys::ParseClaim(key, &e)) continue;
        targets = snap.ReplicasOf(ClaimHash(e), replication_);
        break;
      }
      case keys::kCatalogTag: {
        for (const auto& m : snap.members()) targets.push_back(m.node);
        break;
      }
      default:
        continue;
    }
    for (net::NodeId t : targets) add_to(t, key, it.value());
  }

  for (auto& [target, w] : batches) {
    Writer out;
    // Piggybacked GC marks: the full participant table, so a restarted
    // receiver rebuilds the min-across-participants watermark, not a scalar.
    out.PutVarint64(participant_marks_.size());
    for (const auto& [p, pm] : participant_marks_) {
      out.PutVarint32(p);
      out.PutVarint64(pm.mark);
    }
    // Piggybacked fenced-epoch table: burns propagate even after the fenced
    // claim records themselves were retired below the GC watermark.
    out.PutVarint64(fenced_epochs_.size());
    for (const auto& [fe, inst] : fenced_epochs_) {
      out.PutVarint64(fe);
      out.PutVarint32(inst.participant);
      out.PutVarint64(inst.nonce);
    }
    out.PutVarint64(batch_counts[target]);
    out.PutRaw(w.data().data(), w.size());
    Call(target, kReplicaPush, out.Release(), [](Status, const std::string&) {});
  }
}

// --------------------------------------------------------------------------
// Multi-epoch GC

void StorageService::SetGcWatermark(Epoch w) {
  if (w < gc_watermark_ || w == 0) return;  // monotonic; 0 disables
  AdvanceGc(w);
  // The direct entry point is synchronous: callers (tests, harness nudges)
  // expect retirement to have happened on return.
  while (!gc_due_.empty()) RetireChunk();
}

Epoch StorageService::EffectiveParticipantWatermark() const {
  sim::SimTime now = host_->network()->simulator()->now();
  Epoch min_mark = 0;
  bool any = false;
  for (const auto& [p, pm] : participant_marks_) {
    if (now - pm.at > kParticipantMarkTtlUs) continue;  // departed
    if (!any || pm.mark < min_mark) min_mark = pm.mark;
    any = true;
  }
  return any ? min_mark : 0;
}

void StorageService::MergeParticipantMark(ParticipantId p, Epoch mark) {
  sim::SimTime now = host_->network()->simulator()->now();
  ParticipantMark& pm = participant_marks_[p];
  pm.mark = std::max(pm.mark, mark);  // monotonic per participant
  pm.at = now;
  // Expire departed participants eagerly so they stop pinning the min (and
  // so replica pushes don't keep resurrecting their entries elsewhere).
  for (auto it = participant_marks_.begin(); it != participant_marks_.end();) {
    if (now - it->second.at > kParticipantMarkTtlUs) {
      it = participant_marks_.erase(it);
    } else {
      ++it;
    }
  }
}

void StorageService::SetParticipantWatermark(ParticipantId p, Epoch mark) {
  MergeParticipantMark(p, mark);
  Epoch effective = EffectiveParticipantWatermark();
  if (effective == 0 || effective < gc_watermark_) return;
  // Advertisements raise the floor immediately (watermark reads must see the
  // new mark) but retire in bounded background tasks.
  AdvanceGc(effective);
  ScheduleRetirement();
}

void StorageService::VersionRule::Add(std::string_view key, Epoch epoch,
                                      bool tombstone) {
  std::string_view g = keys::VersionGroupPrefix(key);
  if (g != group) {
    EndGroup();
    group.assign(g);
  }
  if (epoch > watermark) return;
  if (!fenced->empty() && fenced->count(epoch) > 0) {
    doomed->emplace_back(key);
    ++*retired;
    return;
  }
  if (!best_key.empty()) {
    doomed->push_back(best_key);
    ++*(best_is_tombstone ? tombstones : retired);
  }
  best_key.assign(key);
  best_is_tombstone = tombstone;
}

void StorageService::VersionRule::EndGroup() {
  if (best_is_tombstone && !best_key.empty()) {
    doomed->push_back(best_key);
    ++*tombstones;
  }
  best_key.clear();
  best_is_tombstone = false;
}

// --------------------------------------------------------------------------
// Retirement index

size_t StorageService::gc_tracked() const {
  size_t n = gc_due_.size();
  for (const auto& [at, groups] : gc_index_) n += groups.size();
  return n;
}

bool StorageService::MarkGroup(std::string_view key, Epoch epoch) {
  if (gc_watermark_ == 0) return false;  // GC off, or not re-armed since restart
  const char tag = keys::Tag(key);
  const Epoch at =
      tag == keys::kCoordTag || tag == keys::kClaimTag ? epoch + 1 : epoch;
  std::string_view group = keys::VersionGroupPrefix(key);
  if (at <= gc_watermark_) {
    gc_due_.emplace(group);
  } else {
    std::vector<std::string>& marks = gc_index_[at];
    if (marks.empty() || marks.back() != group) marks.emplace_back(group);
  }
  return true;
}

void StorageService::AdvanceGc(Epoch w) {
  const bool arm = gc_watermark_ == 0;
  gc_watermark_ = w;
  if (arm) {
    // Nothing was tracked while GC was off (the index is empty): one
    // ordered pass per family retires what is garbage at `w` and marks
    // every version above it.
    uint64_t work = 0;
    for (char tag : {keys::kCoordTag, keys::kClaimTag, keys::kPageTag, keys::kDataTag}) {
      work += RetireUnder(keys::TagPrefix(tag), /*arming=*/true);
    }
    const auto& costs = host_->network()->costs();
    ChargeCpu(costs.tuple_scan_us * static_cast<double>(work) +
              costs.index_entry_us * static_cast<double>(gc_tracked()));
    return;
  }
  while (!gc_index_.empty() && gc_index_.begin()->first <= w) {
    for (std::string& group : gc_index_.begin()->second) {
      gc_due_.insert(std::move(group));
    }
    gc_index_.erase(gc_index_.begin());
  }
}

uint64_t StorageService::RetireUnder(std::string_view prefix, bool arming) {
  const Epoch w = gc_watermark_;
  const char tag = keys::Tag(prefix);
  const bool below_only = tag == keys::kCoordTag || tag == keys::kClaimTag;
  std::vector<std::string> doomed;
  VersionRule rule{w, &fenced_epochs_, &doomed,
                   tag == keys::kPageTag ? &gc_.retired_pages : &gc_.retired_data,
                   &gc_.retired_tombstones};
  uint64_t examined = 0;
  for (auto it = store_.SeekPrefix(prefix); it.Valid(); it.Next()) {
    ++examined;
    Epoch e = 0;
    if (!keys::ParseVersionEpoch(it.key(), &e)) continue;  // malformed: leave it
    if (below_only) {
      // Coordinator records and claims: retrieval is supported at epochs
      // [w, current], and no publisher contends for an epoch below w.
      if (e < w) {
        doomed.emplace_back(it.key());
        if (tag == keys::kClaimTag) {
          gc_.retired_claims += 1;
          claim_touch_.erase(e);  // the freshness clock follows the claim
        } else {
          gc_.retired_coords += 1;
        }
        continue;
      }
    } else {
      rule.Add(it.key(), e, tag == keys::kDataTag && it.value().empty());
      if (e <= w) continue;
    }
    if (!arming) break;  // oldest-first: the rest of the group is above w
    MarkGroup(it.key(), e);
  }
  rule.EndGroup();
  for (const std::string& key : doomed) store_.Delete(key).ok();
  gc_.examined += examined;
  return examined + doomed.size();
}

void StorageService::RetireChunk() {
  uint64_t work = 0;
  while (!gc_due_.empty() && work < kGcChunkRecords) {
    auto group = gc_due_.extract(gc_due_.begin());
    work += RetireUnder(group.value(), /*arming=*/false);
  }
  ChargeCpu(host_->network()->costs().tuple_scan_us * static_cast<double>(work));
  gc_.slices += 1;
}

void StorageService::ScheduleRetirement() {
  if (gc_task_queued_ || gc_due_.empty()) return;
  gc_task_queued_ = true;
  // A node task: it queues behind the requests already in the inbox, so
  // retirement yields to the request path between chunks.
  RunAfter(0, [this, generation = gc_generation_] {
    if (generation != gc_generation_) return;  // queued before a restart
    gc_task_queued_ = false;
    RetireChunk();
    ScheduleRetirement();
  });
}

void StorageService::OnRestart() {
  // The store is durable across a crash; the epoch high-mark is not. Rebuild
  // it from the surviving CONFIRMED epoch claims (coordinator records alone
  // may belong to torn publishes) so epoch discovery stays truthful. The
  // watermark resets to 0 and is re-learned from the next advertisement —
  // GC merely lags on a freshly restarted node.
  max_epoch_seen_ = 0;
  fenced_epochs_.clear();
  claim_touch_.clear();
  const sim::SimTime now = host_->network()->simulator()->now();
  for (auto it = store_.SeekPrefix(keys::TagPrefix(keys::kClaimTag));
       it.Valid(); it.Next()) {
    Epoch e;
    if (!keys::ParseClaim(it.key(), &e)) continue;
    auto rec = LoadClaim(e);
    if (!rec) continue;
    switch (rec->state) {
      case ClaimState::kCommitted:
        max_epoch_seen_ = std::max(max_epoch_seen_, e);
        break;
      case ClaimState::kPurged:
        // Burns are durable. Only PURGED burns re-enter the purge-authority
        // table — a bare burn promise (partial fence round) keeps refusing
        // claims/confirms through the record itself but must never purge.
        fenced_epochs_[e] = FencedInstance{rec->participant, rec->nonce};
        break;
      case ClaimState::kBurnPromised:
        break;
      case ClaimState::kClaimed:
        // Conservative freshness seed: a replica restart must not make a
        // LIVE claim owner look stale — its next refresh re-arms the clock.
        claim_touch_[e] = now;
        break;
    }
  }
  gc_watermark_ = 0;
  // Per-participant marks are transient too; re-learned from advertisements
  // and the replica-push piggyback table.
  participant_marks_.clear();
  // The retirement index is transient as well: the first watermark after
  // the restart re-arms it with one whole-store pass.
  gc_index_.clear();
  gc_due_.clear();
  gc_task_queued_ = false;
  gc_generation_ += 1;
}

}  // namespace orchestra::storage
