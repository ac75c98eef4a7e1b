// Property suites: randomized histories and queries checked against simple
// models. These are the invariants the paper's design promises:
//  * every published epoch is a frozen, exactly-reconstructible snapshot
//    (§IV), regardless of the interleaving of inserts/updates/deletes;
//  * distributed execution returns the same bag as a single-node reference
//    for arbitrary select-project-join-aggregate plans (§V);
//  * replication keeps every epoch readable after a node failure;
//  * a page version shipped as a delta is rebuilt byte-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "deploy/deployment.h"
#include "query/reference.h"
#include "storage/page.h"
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
