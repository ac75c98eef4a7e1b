// Property suites: randomized histories and queries checked against simple
// models. These are the invariants the paper's design promises:
//  * every published epoch is a frozen, exactly-reconstructible snapshot
//    (§IV), regardless of the interleaving of inserts/updates/deletes;
//  * distributed execution returns the same bag as a single-node reference
//    for arbitrary select-project-join-aggregate plans (§V);
//  * replication keeps every epoch readable after a node failure;
//  * a page version shipped as a delta is rebuilt byte-identically;
//  * epoch claims merge as a lattice (EpochClaimRecord::Merge) that keeps
//    the replica-push outcomes of the earlier three-flag claim record.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "common/rng.h"
#include "common/strings.h"
#include "deploy/deployment.h"
#include "query/reference.h"
#include "storage/keys.h"
#include "storage/page.h"
#include "storage/service.h"
#include "sql/parser.h"
#include "optimizer/optimizer.h"

namespace orchestra {
namespace {

using storage::Epoch;
using storage::RelationDef;
using storage::Schema;
using storage::Tuple;
using storage::Update;
using storage::UpdateBatch;
using storage::Value;
using storage::ValueType;

// ---------------------------------------------------------------------------
// Random publish histories: every epoch is a frozen snapshot.

class PublishHistoryProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PublishHistoryProperty, EveryEpochReconstructsExactly) {
  Rng rng(GetParam());
  deploy::DeploymentOptions opts;
  opts.num_nodes = 3 + rng.Uniform(4);
  deploy::Deployment dep(opts);

  RelationDef def;
  def.name = "H";
  def.schema = Schema({{"k", ValueType::kInt64}, {"v", ValueType::kString}}, 1);
  def.num_partitions = 8 + static_cast<uint32_t>(rng.Uniform(12));
  ASSERT_TRUE(dep.CreateRelation(0, def).ok());

  // Model: key -> value, snapshotted at each epoch.
  std::map<int64_t, std::string> model;
  std::vector<std::map<int64_t, std::string>> snapshots;  // [epoch-1]
  const int epochs = 4 + static_cast<int>(rng.Uniform(4));
  for (int e = 0; e < epochs; ++e) {
    UpdateBatch batch;
    int ops = 1 + static_cast<int>(rng.Uniform(30));
    for (int i = 0; i < ops; ++i) {
      int64_t key = static_cast<int64_t>(rng.Uniform(40));
      if (!model.empty() && rng.OneIn(4)) {
        batch["H"].push_back(Update::Delete({Value(key), Value(std::string())}));
        model.erase(key);
      } else {
        std::string v = rng.AlphaString(8);
        batch["H"].push_back(Update::Insert({Value(key), Value(v)}));
        model[key] = v;
      }
    }
    auto epoch = dep.Publish(0, std::move(batch));
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    ASSERT_EQ(*epoch, static_cast<Epoch>(e + 1));
    snapshots.push_back(model);
  }

  // Every historical epoch must reconstruct exactly, from any node.
  for (int e = 0; e < epochs; ++e) {
    auto rows = dep.Retrieve(rng.Uniform(dep.size()), "H",
                             static_cast<Epoch>(e + 1));
    ASSERT_TRUE(rows.ok()) << "epoch " << (e + 1);
    std::map<int64_t, std::string> got;
    for (const Tuple& t : *rows) got[t[0].AsInt64()] = t[1].AsString();
    EXPECT_EQ(got, snapshots[e]) << "epoch " << (e + 1) << " diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PublishHistoryProperty,
                         ::testing::Values(11, 22, 33, 44));

TEST_P(PublishHistoryProperty, SnapshotsSurviveNodeFailure) {
  Rng rng(GetParam() * 1337);
  deploy::DeploymentOptions opts;
  opts.num_nodes = 5;
  opts.replication = 3;
  deploy::Deployment dep(opts);

  RelationDef def;
  def.name = "H";
  def.schema = Schema({{"k", ValueType::kInt64}, {"v", ValueType::kString}}, 1);
  def.num_partitions = 16;
  ASSERT_TRUE(dep.CreateRelation(0, def).ok());

  std::map<int64_t, std::string> model;
  UpdateBatch batch;
  for (int i = 0; i < 150; ++i) {
    int64_t key = static_cast<int64_t>(rng.Uniform(200));
    std::string v = rng.AlphaString(12);
    batch["H"].push_back(Update::Insert({Value(key), Value(v)}));
    model[key] = v;
  }
  auto epoch = dep.Publish(0, std::move(batch));
  ASSERT_TRUE(epoch.ok());

  // Kill a random non-coordinating node; r=3 keeps every range served.
  net::NodeId victim = 1 + static_cast<net::NodeId>(rng.Uniform(dep.size() - 1));
  dep.KillNode(victim);
  auto rows = dep.Retrieve(0, "H", *epoch);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::map<int64_t, std::string> got;
  for (const Tuple& t : *rows) got[t[0].AsInt64()] = t[1].AsString();
  EXPECT_EQ(got, model);
}

// ---------------------------------------------------------------------------
// Random SPJA queries: distributed == reference.

struct RandomQueryCase {
  uint64_t seed;
};

class RandomQueryProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomQueryProperty, DistributedMatchesReference) {
  Rng rng(GetParam());
  deploy::DeploymentOptions opts;
  opts.num_nodes = 3 + rng.Uniform(4);
  deploy::Deployment dep(opts);

  // Two relations with integer join attributes and a measure.
  RelationDef fact;
  fact.name = "F";
  fact.schema = Schema({{"fk", ValueType::kInt64},
                        {"dim", ValueType::kInt64},
                        {"grp", ValueType::kInt64},
                        {"m", ValueType::kDouble}},
                       1);
  fact.num_partitions = 12;
  RelationDef dim;
  dim.name = "D";
  dim.schema = Schema({{"dk", ValueType::kInt64}, {"label", ValueType::kString}}, 1);
  dim.num_partitions = 12;
  ASSERT_TRUE(dep.CreateRelation(0, fact).ok());
  ASSERT_TRUE(dep.CreateRelation(0, dim).ok());

  query::ReferenceDatabase ref_db;
  UpdateBatch batch;
  int n_dim = 10 + static_cast<int>(rng.Uniform(20));
  for (int i = 0; i < n_dim; ++i) {
    Tuple t = {Value(static_cast<int64_t>(i)),
               Value("L" + std::to_string(i % 5))};
    ref_db["D"].push_back(t);
    batch["D"].push_back(Update::Insert(std::move(t)));
  }
  int n_fact = 100 + static_cast<int>(rng.Uniform(300));
  for (int i = 0; i < n_fact; ++i) {
    Tuple t = {Value(static_cast<int64_t>(i)),
               Value(static_cast<int64_t>(rng.Uniform(n_dim))),
               Value(static_cast<int64_t>(rng.Uniform(7))),
               Value(rng.NextDouble() * 50)};
    ref_db["F"].push_back(t);
    batch["F"].push_back(Update::Insert(std::move(t)));
  }
  auto epoch = dep.Publish(0, std::move(batch));
  ASSERT_TRUE(epoch.ok());

  auto catalog = [&dep](const std::string& name) {
    return dep.storage(0).Relation(name);
  };
  optimizer::StatsCatalog stats;
  stats["F"] = {static_cast<uint64_t>(n_fact), 36, {}};
  stats["D"] = {static_cast<uint64_t>(n_dim), 16, {}};
  optimizer::CostParams params;
  params.num_nodes = dep.size();

  // A few random query shapes per seed.
  std::vector<std::string> queries;
  int64_t cut = static_cast<int64_t>(rng.Uniform(n_fact));
  queries.push_back("SELECT fk, m FROM F WHERE fk < " + std::to_string(cut));
  queries.push_back("SELECT grp, COUNT(*), SUM(m) FROM F GROUP BY grp");
  queries.push_back("SELECT label, SUM(m) FROM F, D WHERE F.dim = D.dk "
                    "GROUP BY label");
  queries.push_back("SELECT fk, label FROM F, D WHERE F.dim = D.dk AND grp = " +
                    std::to_string(rng.Uniform(7)));
  queries.push_back("SELECT MIN(m), MAX(m), COUNT(*) FROM F WHERE grp <> 3");

  for (const std::string& text : queries) {
    auto analyzed = sql::ParseAndAnalyze(text, catalog);
    ASSERT_TRUE(analyzed.ok()) << text << ": " << analyzed.status().ToString();
    optimizer::Optimizer opt(stats, params);
    auto planned = opt.Plan(*analyzed);
    ASSERT_TRUE(planned.ok()) << text << ": " << planned.status().ToString();
    auto got = dep.ExecuteQuery(rng.Uniform(dep.size()), planned->plan, *epoch);
    ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
    auto want = query::ReferenceExecute(planned->plan, ref_db);
    ASSERT_TRUE(want.ok()) << text;
    EXPECT_TRUE(query::SameBagApprox(got->rows, *want))
        << text << "\n got " << got->rows.size() << " want " << want->size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryProperty,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// Page deltas: for any base/new pair of one partition's page versions, the
// delta the publisher encodes, merged over the base's stored encoding,
// reproduces the new version's full encoding byte for byte.

using storage::Page;
using storage::PageWrite;

class PageDeltaProperty : public ::testing::TestWithParam<uint64_t> {};

// A page at `epoch` listing `rows` (key -> version epoch) in page order.
// With `colliding`, keys share a handful of placement hashes, so page order
// must fall back to the key bytes.
Page MakePage(storage::Epoch epoch, const std::map<std::string, storage::Epoch>& rows,
              bool colliding) {
  Page page;
  page.desc.id = storage::PageId{"R", epoch, 3};
  page.desc.num_partitions = 8;
  std::vector<std::pair<HashId, std::string>> order;
  for (const auto& [key, e] : rows) {
    HashId h = colliding ? HashId::FromU64(key.size() % 3) : storage::TupleKeyHash(key);
    order.emplace_back(h, key);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [h, key] : order) {
    page.ids.push_back(storage::TupleId{key, rows.at(key)});
    page.hashes.push_back(h);
  }
  return page;
}

std::string Encoded(const Page& page) {
  Writer w;
  page.EncodeTo(&w);
  return w.Release();
}

TEST_P(PageDeltaProperty, DeltaMergeRoundTripsByteIdentically) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const bool colliding = rng.OneIn(3);
    std::map<std::string, storage::Epoch> base_rows;
    const int n = static_cast<int>(rng.Uniform(rng.OneIn(8) ? 1 : 60));
    for (int i = 0; i < n; ++i) {
      base_rows[rng.AlphaString(1 + rng.Uniform(6))] = 1 + rng.Uniform(9);
    }
    // The new version: deletes, overwrites, inserts — or every row deleted.
    std::map<std::string, storage::Epoch> next_rows;
    const bool emptied = rng.OneIn(10);
    if (!emptied) {
      for (const auto& [key, e] : base_rows) {
        if (rng.OneIn(5)) continue;                 // deleted
        next_rows[key] = rng.OneIn(4) ? 10 : e;     // overwritten or kept
      }
      const int inserts = static_cast<int>(rng.Uniform(8));
      for (int i = 0; i < inserts; ++i) next_rows[rng.AlphaString(1 + rng.Uniform(6))] = 10;
    }
    const Page base = MakePage(9, base_rows, colliding);
    const Page next = MakePage(10, next_rows, colliding);
    const std::string want = Encoded(next);

    Writer frame;
    PageWrite::EncodeDelta(base, next, storage::PageCrc(want), &frame);
    Reader r(frame.data());
    PageWrite pw;
    ASSERT_TRUE(PageWrite::DecodeFrom(&r, &pw).ok());
    ASSERT_TRUE(r.AtEnd());
    ASSERT_EQ(pw.kind, PageWrite::Kind::kDelta);
    EXPECT_EQ(pw.base_epoch, 9u);

    std::string got;
    uint64_t entries = 0;
    ASSERT_TRUE(storage::MergePageDelta(Encoded(base), pw, &got, &entries).ok())
        << "seed " << GetParam() << " trial " << trial;
    EXPECT_EQ(got, want) << "seed " << GetParam() << " trial " << trial;
    EXPECT_EQ(entries, next.ids.size());

    // Merged over any other base, the delta either refuses or — when the
    // difference is confined to rows the delta replaces — still yields the
    // exact new version: a wrong page is never produced.
    std::map<std::string, storage::Epoch> other_rows = base_rows;
    other_rows[rng.AlphaString(1 + rng.Uniform(6))] = 2;
    std::string wrong;
    if (storage::MergePageDelta(Encoded(MakePage(9, other_rows, colliding)), pw,
                                &wrong, &entries)
            .ok()) {
      EXPECT_EQ(wrong, want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageDeltaProperty, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// GC retirement index: after every watermark advance, a whole-store pass of
// the version rule — the reference below, written independently of the
// service — finds nothing left to retire, and the node still holds every
// record the reference keeps. Single-node histories mix data, page,
// coordinator and claim versions, tombstones, out-of-order epochs (replica
// pushes, some below the watermark), fences and a restart.

using storage::StorageService;
namespace keys = storage::keys;

std::set<std::string> VersionedKeys(StorageService& svc) {
  std::set<std::string> out;
  for (char tag : {keys::kCoordTag, keys::kClaimTag, keys::kPageTag, keys::kDataTag}) {
    for (auto it = svc.store().SeekPrefix(keys::TagPrefix(tag)); it.Valid(); it.Next()) {
      out.emplace(it.key());
    }
  }
  return out;
}

// The keys a whole-store pass at watermark `w` retires: coordinator records
// and claims below `w`; per data/page version group, versions at fenced
// epochs, every non-fenced version at or below `w` but the newest, and that
// newest one too when it is a delete tombstone.
std::set<std::string> ReferenceRetires(StorageService& svc, Epoch w) {
  std::set<std::string> doomed;
  for (char tag : {keys::kCoordTag, keys::kClaimTag}) {
    for (auto it = svc.store().SeekPrefix(keys::TagPrefix(tag)); it.Valid(); it.Next()) {
      Epoch e = 0;
      if (keys::ParseVersionEpoch(it.key(), &e) && e < w) doomed.emplace(it.key());
    }
  }
  for (char tag : {keys::kPageTag, keys::kDataTag}) {
    // group -> (key, tombstone) of its live versions at or below w, oldest first
    std::map<std::string, std::vector<std::pair<std::string, bool>>> groups;
    for (auto it = svc.store().SeekPrefix(keys::TagPrefix(tag)); it.Valid(); it.Next()) {
      Epoch e = 0;
      if (!keys::ParseVersionEpoch(it.key(), &e) || e > w) continue;
      if (svc.IsEpochFenced(e)) {
        doomed.emplace(it.key());
        continue;
      }
      groups[std::string(keys::VersionGroupPrefix(it.key()))].emplace_back(
          it.key(), tag == keys::kDataTag && it.value().empty());
    }
    for (const auto& [group, versions] : groups) {
      for (size_t i = 0; i + 1 < versions.size(); ++i) doomed.insert(versions[i].first);
      if (versions.back().second) doomed.insert(versions.back().first);
    }
  }
  return doomed;
}

std::string PageBytes(Epoch e, uint32_t part) {
  Page page;
  page.desc.id = storage::PageId{"R", e, part};
  page.desc.num_partitions = 4;
  page.ids.push_back(storage::TupleId{"k", e});
  page.hashes.push_back(storage::TupleKeyHash("k"));
  return Encoded(page);
}

std::string CoordBytes(Epoch e) {
  storage::CoordinatorRecord rec;
  rec.relation = "R";
  rec.epoch = e;
  rec.participant = 1;
  Writer w;
  rec.EncodeTo(&w);
  return w.Release();
}

class GcIndexProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GcIndexProperty, RetiresExactlyWhatAWholeStorePassWould) {
  uint64_t retired = 0, tombstones = 0, claims = 0, fences = 0;
  for (uint64_t history = 0; history < 50; ++history) {
    Rng rng(GetParam() * 1000 + history);
    deploy::DeploymentOptions opts;
    opts.num_nodes = 1;
    opts.replication = 1;
    deploy::Deployment dep(opts);
    StorageService& svc = dep.storage(0);
    RelationDef def;
    def.name = "R";
    def.schema = Schema({{"k", ValueType::kString}, {"v", ValueType::kString}}, 1);
    def.num_partitions = 4;
    svc.AddRelationLocal(def);

    uint64_t req_id = 1;
    auto request = [&](uint16_t code, const std::string& body) {
      Writer w;
      w.PutU64(req_id++);
      w.PutRaw(body.data(), body.size());
      svc.OnMessage(0, code, w.data());
    };
    auto data_key = [](const std::string& k, Epoch e) {
      return keys::Data("R", storage::TupleKeyHash(k), k, e);
    };
    auto claim_bytes = [](bool committed) {
      storage::EpochClaimRecord rec{
          1, 0,
          committed ? storage::ClaimState::kCommitted : storage::ClaimState::kClaimed,
          1};
      Writer w;
      rec.EncodeTo(&w);
      return w.Release();
    };

    Epoch frontier = 1;
    const int restart_at = static_cast<int>(rng.Uniform(80));
    for (int op = 0; op < 80; ++op) {
      const Epoch w = svc.gc_watermark();
      // Mostly at the frontier; one write in four anywhere from below the
      // watermark up, as a late replica push delivers it.
      const Epoch lo = w > 2 ? w - 2 : 1;
      const Epoch e = rng.OneIn(4) ? lo + rng.Uniform(frontier + 3 - lo)
                                   : frontier + rng.Uniform(3);
      const std::string key = StrCat({"k", std::to_string(rng.Uniform(6))});
      const bool tombstone = rng.OneIn(5);
      if (op == restart_at) svc.OnRestart();
      switch (rng.Uniform(10)) {
        case 0:
        case 1: {
          Writer b;
          b.PutVarint64(1);
          b.PutString("R");
          b.PutVarint64(1);
          std::string hash;
          storage::TupleKeyHash(key).AppendBigEndian(&hash);
          b.PutRaw(hash.data(), hash.size());
          b.PutString(key);
          b.PutVarint64(e);
          b.PutString(tombstone ? "" : "v");
          request(storage::kPutTuples, b.data());
          break;
        }
        case 2: {
          Writer b;
          b.PutVarint64(1);
          PageWrite::EncodeFull(PageBytes(e, static_cast<uint32_t>(rng.Uniform(4))), &b);
          request(storage::kPutPage, b.data());
          break;
        }
        case 3:
          request(storage::kPutCoordinator, CoordBytes(e));
          break;
        case 4: {
          Writer b;
          b.PutVarint64(e);
          b.PutVarint32(1);
          b.PutVarint32(0);
          b.PutVarint64(1);
          request(rng.OneIn(2) ? storage::kClaimEpoch : storage::kConfirmEpoch, b.data());
          break;
        }
        case 5: {  // replica push: a few records at scattered epochs
          Writer b;
          b.PutVarint64(0);  // no participant marks
          b.PutVarint64(0);  // no fences
          const uint64_t n = 1 + rng.Uniform(4);
          b.PutVarint64(n);
          for (uint64_t i = 0; i < n; ++i) {
            const Epoch pe = lo + rng.Uniform(frontier + 3 - lo);
            switch (rng.Uniform(4)) {
              case 0:
                b.PutString(data_key(StrCat({"k", std::to_string(rng.Uniform(6))}), pe));
                b.PutString(rng.OneIn(5) ? "" : "v");
                break;
              case 1: {
                const uint32_t part = static_cast<uint32_t>(rng.Uniform(4));
                b.PutString(keys::PageRec("R", pe, part));
                b.PutString(PageBytes(pe, part));
                break;
              }
              case 2:
                b.PutString(keys::Coord("R", pe));
                b.PutString(CoordBytes(pe));
                break;
              default:
                b.PutString(keys::EpochClaim(pe));
                b.PutString(claim_bytes(rng.OneIn(2)));
            }
          }
          request(storage::kReplicaPush, b.data());
          break;
        }
        case 6: {
          if (!rng.OneIn(3)) break;
          Writer b;  // one-way: no request id
          b.PutVarint64(e);
          b.PutVarint32(2);
          b.PutVarint64(5);
          svc.OnMessage(0, storage::kPurgeEpoch, b.data());
          break;
        }
        case 7:
        case 8:
          frontier += 1;
          break;
        default: {
          // Advance (or re-advertise) the watermark, synchronously or as a
          // participant advertisement that retires in background tasks.
          const Epoch back = rng.Uniform(4);
          const Epoch target = std::max<Epoch>({w, frontier > back ? frontier - back : 1, 1});
          dep.RunFor(sim::kMicrosPerMilli);  // tasks queued by earlier writes
          const std::set<std::string> before = VersionedKeys(svc);
          const std::set<std::string> allowed = ReferenceRetires(svc, target);
          if (rng.OneIn(2)) {
            svc.SetGcWatermark(target);
          } else {
            svc.SetParticipantWatermark(1, target);
            dep.RunFor(50 * sim::kMicrosPerMilli);
          }
          ASSERT_EQ(svc.gc_watermark(), target);
          const std::set<std::string> left = ReferenceRetires(svc, target);
          ASSERT_TRUE(left.empty()) << "history " << history << " op " << op << ": "
                                    << left.size() << " retirable records left at "
                                    << target;
          const std::set<std::string> after = VersionedKeys(svc);
          for (const std::string& k : before) {
            if (allowed.count(k) == 0) {
              ASSERT_TRUE(after.count(k) > 0)
                  << "history " << history << " op " << op << ": kept record retired";
            }
          }
        }
      }
    }
    const auto& gs = svc.gc_stats();
    retired += gs.retired_data + gs.retired_pages + gs.retired_coords;
    tombstones += gs.retired_tombstones;
    claims += gs.retired_claims;
    fences += svc.fenced_epoch_count();
  }
  // The histories exercise every retirement family.
  EXPECT_GT(retired, 0u);
  EXPECT_GT(tombstones, 0u);
  EXPECT_GT(claims, 0u);
  EXPECT_GT(fences, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcIndexProperty, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// The claim-state lattice: EpochClaimRecord::Merge and the replica-push merge
// reproduce the earlier three-flag table (committed, fenced, purged) over
// every (stored slot, pushed record) pair.

using storage::ClaimState;
using storage::EpochClaimRecord;

constexpr ClaimState kAllStates[] = {ClaimState::kClaimed, ClaimState::kBurnPromised,
                                     ClaimState::kPurged, ClaimState::kCommitted};
constexpr Epoch kLatticeEpoch = 5;

/// A claim slot as a replica stores it: nothing, undecodable bytes, a
/// record, or nothing left of a purged burn whose record GC retired (the
/// fenced-epoch table still holds the epoch).
struct ClaimSlot {
  enum Kind { kAbsent, kMalformed, kRecord, kRetiredBurn } kind = kAbsent;
  EpochClaimRecord rec;
  bool operator==(const ClaimSlot&) const = default;
};

std::vector<ClaimSlot> AllStoredSlots() {
  std::vector<ClaimSlot> out = {ClaimSlot{ClaimSlot::kAbsent, {}},
                                ClaimSlot{ClaimSlot::kMalformed, {}},
                                ClaimSlot{ClaimSlot::kRetiredBurn, {}}};
  for (ClaimState st : kAllStates) {
    out.push_back(ClaimSlot{ClaimSlot::kRecord, EpochClaimRecord{3, 1, st, 7}});
  }
  return out;
}

/// The pushed record: a different instance than any stored one, so which
/// record survives a merge is observable.
EpochClaimRecord Pushed(ClaimState st) { return EpochClaimRecord{5, 2, st, 9}; }

// The earlier record's three flags.
struct FlagClaim {
  bool committed = false;
  bool fenced = false;
  bool purged = false;
};

FlagClaim ToFlags(ClaimState st) {
  switch (st) {
    case ClaimState::kCommitted: return {true, false, false};
    case ClaimState::kPurged: return {false, true, true};
    case ClaimState::kBurnPromised: return {false, true, false};
    case ClaimState::kClaimed: break;
  }
  return {};
}

/// Reference: the replica-push branch table as it stood over three flags,
/// with MergeFencedEpoch inlined. A replica's fenced-epoch table holds
/// its purged burns, retired or not.
ClaimSlot FlagTableMerge(const ClaimSlot& slot, const EpochClaimRecord& pushed_rec) {
  const FlagClaim pushed = ToFlags(pushed_rec.state);
  const bool have_mine = slot.kind == ClaimSlot::kRecord;
  const bool present = slot.kind == ClaimSlot::kMalformed || have_mine;
  const FlagClaim mine = have_mine ? ToFlags(slot.rec.state) : FlagClaim{};
  const bool fenced_table =
      (have_mine && mine.fenced && mine.purged) || slot.kind == ClaimSlot::kRetiredBurn;
  ClaimSlot out = slot;
  auto put = [&] { out = ClaimSlot{ClaimSlot::kRecord, pushed_rec}; };
  if (pushed.committed) {
    if (!have_mine || !mine.committed) put();
  } else if (pushed.fenced && pushed.purged) {
    if (!have_mine || !mine.committed) {
      if (!fenced_table) {  // MergeFencedEpoch(ve, participant, nonce)
        EpochClaimRecord burned =
            have_mine ? slot.rec
                      : EpochClaimRecord{pushed_rec.participant, 0,
                                         ClaimState::kClaimed, pushed_rec.nonce};
        burned.state = ClaimState::kPurged;
        out = ClaimSlot{ClaimSlot::kRecord, burned};
      }
    }
  } else if (pushed.fenced) {
    if (!have_mine || (!mine.committed && !mine.fenced)) put();
  } else if (!have_mine && !present) {
    if (!fenced_table) put();
  }
  return out;
}

bool MalformedUnderPlainClaim(const ClaimSlot& slot, ClaimState pushed) {
  return slot.kind == ClaimSlot::kMalformed && pushed == ClaimState::kClaimed;
}

TEST(ClaimLattice, MergeMatchesTheFlagTable) {
  for (const ClaimSlot& slot : AllStoredSlots()) {
    // The fenced-epoch table, not Merge, guards a retired burn's empty slot.
    if (slot.kind == ClaimSlot::kRetiredBurn) continue;
    // LoadClaim's view: a malformed slot reads as absent.
    std::optional<EpochClaimRecord> mine;
    if (slot.kind == ClaimSlot::kRecord) mine = slot.rec;
    for (ClaimState st : kAllStates) {
      SCOPED_TRACE(StrCat({"stored kind ", std::to_string(slot.kind), " state ",
                           std::to_string(static_cast<int>(slot.rec.state)),
                           ", pushed ", std::to_string(static_cast<int>(st))}));
      const EpochClaimRecord pushed = Pushed(st);
      const EpochClaimRecord merged = EpochClaimRecord::Merge(mine, pushed);
      const ClaimSlot ref = FlagTableMerge(slot, pushed);
      if (MalformedUnderPlainClaim(slot, st)) {
        // The one moved cell: the flag table left a malformed slot alone
        // under a plain claim, while the claim handler already granted over
        // one. Both now read it as empty.
        EXPECT_EQ(ref.kind, ClaimSlot::kMalformed);
        EXPECT_EQ(merged, pushed);
        continue;
      }
      ASSERT_EQ(ref.kind, ClaimSlot::kRecord);
      EXPECT_EQ(merged.state, ref.rec.state);
      // A purged burn raises the stored record in place (it keeps naming its
      // own instance); every other cell keeps or takes a whole record.
      if (st != ClaimState::kPurged) {
        EXPECT_EQ(merged, ref.rec);
      }
    }
  }
}

TEST(ClaimLattice, ReplicaPushStoresWhatTheFlagTableStored) {
  for (const ClaimSlot& slot : AllStoredSlots()) {
    for (ClaimState st : kAllStates) {
      SCOPED_TRACE(StrCat({"stored kind ", std::to_string(slot.kind), " state ",
                           std::to_string(static_cast<int>(slot.rec.state)),
                           ", pushed ", std::to_string(static_cast<int>(st))}));
      deploy::DeploymentOptions opts;
      opts.num_nodes = 1;
      opts.replication = 1;
      deploy::Deployment dep(opts);
      StorageService& svc = dep.storage(0);
      const std::string key = keys::EpochClaim(kLatticeEpoch);
      if (slot.kind == ClaimSlot::kMalformed) {
        // participant 3, node 1, state byte 9: no such state.
        ASSERT_TRUE(svc.store().Put(key, std::string("\x03\x01\x09\x07")).ok());
      } else if (slot.kind != ClaimSlot::kAbsent) {
        EpochClaimRecord rec = slot.rec;
        if (slot.kind == ClaimSlot::kRetiredBurn) rec.state = ClaimState::kPurged;
        Writer w;
        rec.EncodeTo(&w);
        ASSERT_TRUE(svc.store().Put(key, w.data()).ok());
      }
      svc.OnRestart();  // rebuilds the fenced-epoch table from the records
      if (slot.kind == ClaimSlot::kRetiredBurn) {
        ASSERT_TRUE(svc.store().Delete(key).ok());
      }

      const EpochClaimRecord pushed = Pushed(st);
      Writer value;
      pushed.EncodeTo(&value);
      Writer b;
      b.PutU64(1);       // request id
      b.PutVarint64(0);  // no participant marks
      b.PutVarint64(0);  // no fenced epochs
      b.PutVarint64(1);
      b.PutString(key);
      b.PutString(value.data());
      svc.OnMessage(0, storage::kReplicaPush, b.data());

      ClaimSlot got;
      auto bytes = svc.store().Get(key);
      if (bytes.ok()) {
        Reader r(bytes.value());
        got.kind = EpochClaimRecord::DecodeFrom(&r, &got.rec).ok()
                       ? ClaimSlot::kRecord
                       : ClaimSlot::kMalformed;
      }
      ClaimSlot want = FlagTableMerge(slot, pushed);
      if (MalformedUnderPlainClaim(slot, st)) {
        want = ClaimSlot{ClaimSlot::kRecord, pushed};
      }
      if (want.kind == ClaimSlot::kRetiredBurn) want = ClaimSlot{};
      if (got.kind == ClaimSlot::kMalformed) got.rec = {};
      if (want.kind == ClaimSlot::kMalformed) want.rec = {};
      EXPECT_EQ(got, want);
      // The fenced-epoch table only grows: it keeps a purged burn even
      // after a pushed commit replaced the record.
      auto purged = [](const ClaimSlot& c) {
        return c.kind == ClaimSlot::kRecord && c.rec.state == ClaimState::kPurged;
      };
      EXPECT_EQ(svc.IsEpochFenced(kLatticeEpoch),
                purged(slot) || purged(want) || slot.kind == ClaimSlot::kRetiredBurn);
    }
  }
}

TEST(ClaimLattice, MergeIsAJoinThatKeepsTheStoredRecordOnTies) {
  // Two instances per state, so tie-keeping is observable.
  std::vector<EpochClaimRecord> recs;
  for (ClaimState st : kAllStates) {
    recs.push_back(EpochClaimRecord{3, 1, st, 7});
    recs.push_back(EpochClaimRecord{5, 2, st, 9});
  }
  auto merge = [](const EpochClaimRecord& a, const EpochClaimRecord& b) {
    return EpochClaimRecord::Merge(a, b);
  };
  for (const auto& a : recs) {
    EXPECT_EQ(merge(a, a), a);                            // idempotent
    EXPECT_EQ(EpochClaimRecord::Merge(std::nullopt, a), a);  // absent is bottom
    for (const auto& b : recs) {
      // Commutative up to tie-keeping: the state never depends on the
      // order, and only a tie lets the order pick the record.
      EXPECT_EQ(merge(a, b).state, merge(b, a).state);
      EXPECT_EQ(merge(a, b).state, std::max(a.state, b.state));
      if (a.state != b.state) {
        EXPECT_EQ(merge(a, b), merge(b, a));
      } else {
        EXPECT_EQ(merge(a, b), a);
      }
      for (const auto& c : recs) {
        EXPECT_EQ(merge(merge(a, b), c), merge(a, merge(b, c)));  // associative
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: the whole distributed pipeline is reproducible bit-for-bit.

TEST(Determinism, SameSeedSameTimingSameTraffic) {
  auto run = [](sim::SimTime* time_out, uint64_t* bytes_out) {
    deploy::DeploymentOptions opts;
    opts.num_nodes = 5;
    deploy::Deployment dep(opts);
    RelationDef def;
    def.name = "R";
    def.schema = Schema({{"k", ValueType::kInt64}, {"v", ValueType::kString}}, 1);
    ASSERT_TRUE(dep.CreateRelation(0, def).ok());
    Rng rng(9);
    UpdateBatch batch;
    for (int i = 0; i < 400; ++i) {
      batch["R"].push_back(
          Update::Insert({Value(static_cast<int64_t>(i)), Value(rng.AlphaString(16))}));
    }
    auto epoch = dep.Publish(0, std::move(batch));
    ASSERT_TRUE(epoch.ok());
    auto catalog = [&dep](const std::string& name) {
      return dep.storage(0).Relation(name);
    };
    auto analyzed = sql::ParseAndAnalyze("SELECT k, v FROM R WHERE k < 200", catalog);
    optimizer::Optimizer opt({}, {});
    auto planned = opt.Plan(*analyzed);
    dep.network().ResetTraffic();
    auto result = dep.ExecuteQuery(1, planned->plan, *epoch);
    ASSERT_TRUE(result.ok());
    *time_out = result->execution_us;
    *bytes_out = dep.network().total_bytes();
  };
  sim::SimTime t1 = 0, t2 = 0;
  uint64_t b1 = 0, b2 = 0;
  run(&t1, &b1);
  run(&t2, &b2);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(b1, b2);
  EXPECT_GT(b1, 0u);
}

}  // namespace
}  // namespace orchestra
