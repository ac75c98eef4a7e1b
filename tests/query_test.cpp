#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "common/rng.h"
#include "common/strings.h"
#include "deploy/deployment.h"
#include "query/expr.h"
#include "query/block.h"
#include "query/plan.h"
#include "query/reference.h"
#include "query/service.h"

namespace orchestra::query {
namespace {

using storage::RelationDef;
using storage::Schema;
using storage::Update;
using storage::UpdateBatch;
using storage::ValueType;

Value S(const std::string& s) { return Value(s); }
Value I(int64_t i) { return Value(i); }

// ---------------------------------------------------------------------------
// Expressions

TEST(Expr, ArithmeticAndComparison) {
  Tuple row = {I(10), I(3), Value(2.5)};
  EXPECT_EQ(Expr::Arith('+', Expr::Column(0), Expr::Column(1)).Eval(row), I(13));
  EXPECT_EQ(Expr::Arith('*', Expr::Column(0), Expr::Column(2)).Eval(row), Value(25.0));
  EXPECT_EQ(Expr::Arith('/', Expr::Column(0), Expr::Column(1)).Eval(row), I(3));
  EXPECT_TRUE(Expr::Compare('<', Expr::Column(1), Expr::Column(0)).EvalBool(row));
  EXPECT_FALSE(Expr::Compare('=', Expr::Column(0), Expr::Column(1)).EvalBool(row));
  EXPECT_TRUE(Expr::Compare('G', Expr::Column(0), Expr::Literal(I(10))).EvalBool(row));
}

TEST(Expr, DivisionByZeroIsNull) {
  Tuple row = {I(5), I(0)};
  EXPECT_TRUE(Expr::Arith('/', Expr::Column(0), Expr::Column(1)).Eval(row).is_null());
}

TEST(Expr, LogicOps) {
  Tuple row = {I(1), I(0)};
  auto t = Expr::Compare('=', Expr::Column(0), Expr::Literal(I(1)));
  auto f = Expr::Compare('=', Expr::Column(1), Expr::Literal(I(1)));
  EXPECT_TRUE(Expr::And(t, t).EvalBool(row));
  EXPECT_FALSE(Expr::And(t, f).EvalBool(row));
  EXPECT_TRUE(Expr::Or(f, t).EvalBool(row));
  EXPECT_TRUE(Expr::Not(f).EvalBool(row));
}

TEST(Expr, NullComparesFalse) {
  Tuple row = {Value::Null(), I(1)};
  EXPECT_FALSE(Expr::Compare('=', Expr::Column(0), Expr::Column(1)).EvalBool(row));
  EXPECT_FALSE(Expr::Compare('<', Expr::Column(0), Expr::Column(1)).EvalBool(row));
}

TEST(Expr, ConcatStrings) {
  Tuple row = {S("ab"), S("cd"), I(7)};
  Value v = Expr::Concat({Expr::Column(0), Expr::Column(1), Expr::Column(2)}).Eval(row);
  EXPECT_EQ(v, S("abcd7"));
}

TEST(Expr, EncodeDecodeRoundTrip) {
  Expr e = Expr::And(
      Expr::Compare('<', Expr::Column(2), Expr::Literal(Value(3.5))),
      Expr::Or(Expr::Compare('=', Expr::Column(0), Expr::Literal(S("x"))),
               Expr::Not(Expr::Compare('>', Expr::Arith('+', Expr::Column(1),
                                                        Expr::Literal(I(5))),
                                       Expr::Literal(I(10))))));
  Writer w;
  e.EncodeTo(&w);
  Reader r(w.data());
  Expr back;
  ASSERT_TRUE(Expr::DecodeFrom(&r, &back).ok());
  EXPECT_EQ(back.ToString(), e.ToString());
  Tuple row = {S("x"), I(2), Value(1.0)};
  EXPECT_EQ(back.EvalBool(row), e.EvalBool(row));
}

TEST(AggStateTest, SumMinMaxCount) {
  AggState sum(AggFn::kSum), mn(AggFn::kMin), mx(AggFn::kMax), cnt(AggFn::kCount);
  for (int64_t v : {5, 1, 9, 3}) {
    sum.Update(I(v));
    mn.Update(I(v));
    mx.Update(I(v));
    cnt.Update(I(v));
  }
  EXPECT_EQ(sum.Finish(), I(18));
  EXPECT_EQ(mn.Finish(), I(1));
  EXPECT_EQ(mx.Finish(), I(9));
  EXPECT_EQ(cnt.Finish(), I(4));
}

TEST(AggStateTest, MergeReaggregatesPartials) {
  // Two partial COUNTs of 3 and 4 merge to 7 (not 2).
  AggState total(AggFn::kCount);
  total.Merge(I(3));
  total.Merge(I(4));
  EXPECT_EQ(total.Finish(), I(7));
  AggState sum(AggFn::kSum);
  sum.Merge(I(10));
  sum.Merge(I(5));
  EXPECT_EQ(sum.Finish(), I(15));
  AggState mn(AggFn::kMin);
  mn.Merge(I(4));
  mn.Merge(I(2));
  EXPECT_EQ(mn.Finish(), I(2));
}

// ---------------------------------------------------------------------------
// Plan construction helpers

struct PlanBuilder {
  PhysicalPlan plan;

  int32_t Add(PhysOp op) {
    op.id = static_cast<int32_t>(plan.ops.size());
    plan.ops.push_back(std::move(op));
    return plan.ops.back().id;
  }
  int32_t Scan(const std::string& rel, bool broadcast = false) {
    PhysOp op;
    op.kind = OpKind::kScan;
    op.relation = rel;
    op.broadcast_local = broadcast;
    return Add(op);
  }
  int32_t CoveringScan(const std::string& rel) {
    PhysOp op;
    op.kind = OpKind::kCoveringScan;
    op.relation = rel;
    return Add(op);
  }
  int32_t Select(int32_t child, Expr pred) {
    PhysOp op;
    op.kind = OpKind::kSelect;
    op.children = {child};
    op.predicate = std::move(pred);
    return Add(op);
  }
  int32_t Project(int32_t child, std::vector<int32_t> cols) {
    PhysOp op;
    op.kind = OpKind::kProject;
    op.children = {child};
    op.columns = std::move(cols);
    return Add(op);
  }
  int32_t Compute(int32_t child, std::vector<Expr> exprs) {
    PhysOp op;
    op.kind = OpKind::kCompute;
    op.children = {child};
    op.exprs = std::move(exprs);
    return Add(op);
  }
  int32_t Rehash(int32_t child, std::vector<int32_t> cols) {
    PhysOp op;
    op.kind = OpKind::kRehash;
    op.children = {child};
    op.hash_cols = std::move(cols);
    return Add(op);
  }
  int32_t Join(int32_t left, int32_t right, std::vector<int32_t> lk,
               std::vector<int32_t> rk) {
    PhysOp op;
    op.kind = OpKind::kHashJoin;
    op.children = {left, right};
    op.left_keys = std::move(lk);
    op.right_keys = std::move(rk);
    return Add(op);
  }
  int32_t Aggregate(int32_t child, std::vector<int32_t> group,
                    std::vector<AggSpec> aggs, bool merge = false) {
    PhysOp op;
    op.kind = OpKind::kAggregate;
    op.children = {child};
    op.group_cols = std::move(group);
    op.aggs = std::move(aggs);
    op.merge_partials = merge;
    return Add(op);
  }
  PhysicalPlan Ship(int32_t child) {
    PhysOp op;
    op.kind = OpKind::kShip;
    op.children = {child};
    plan.root = Add(op);
    return plan;
  }
};

// ---------------------------------------------------------------------------
// Cluster fixture with two relations.

class QueryClusterTest : public ::testing::Test {
 protected:
  void Deploy(size_t nodes, uint64_t seed = 7) {
    deploy::DeploymentOptions opts;
    opts.num_nodes = nodes;
    opts.replication = 3;
    dep = std::make_unique<deploy::Deployment>(opts);

    RelationDef r;
    r.name = "R";
    r.schema = Schema({{"x", ValueType::kString}, {"y", ValueType::kString}}, 1);
    r.num_partitions = 8;
    RelationDef s;
    s.name = "S";
    s.schema = Schema({{"y", ValueType::kString}, {"z", ValueType::kString}}, 1);
    s.num_partitions = 8;
    ASSERT_TRUE(dep->CreateRelation(0, r).ok());
    ASSERT_TRUE(dep->CreateRelation(0, s).ok());
    (void)seed;
  }

  void LoadRows(const std::string& rel, const std::vector<Tuple>& rows) {
    UpdateBatch batch;
    for (const Tuple& t : rows) batch[rel].push_back(Update::Insert(t));
    auto epoch = dep->Publish(0, std::move(batch));
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    db_epoch = *epoch;
    ref_db[rel] = rows;
  }

  std::unique_ptr<deploy::Deployment> dep;
  ReferenceDatabase ref_db;
  storage::Epoch db_epoch = 0;
};

TEST_F(QueryClusterTest, CopyQueryReturnsAllRows) {
  Deploy(4);
  std::vector<Tuple> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({S(StrCat({"k", std::to_string(i)})), S(StrCat({"v", std::to_string(i % 7)}))});
  }
  LoadRows("R", rows);

  PlanBuilder b;
  PhysicalPlan plan = b.Ship(b.Scan("R"));
  auto result = dep->ExecuteQuery(0, plan, db_epoch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto expect = ReferenceExecute(plan, ref_db);
  ASSERT_TRUE(expect.ok());
  EXPECT_TRUE(SameBag(result->rows, *expect));
  EXPECT_EQ(result->rows.size(), 200u);
}

TEST_F(QueryClusterTest, SelectPushesPredicate) {
  Deploy(4);
  std::vector<Tuple> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back({S(StrCat({"k", std::to_string(i)})), S(i % 2 ? "odd" : "even")});
  }
  LoadRows("R", rows);

  PlanBuilder b;
  int32_t scan = b.Scan("R");
  int32_t sel = b.Select(scan, Expr::Compare('=', Expr::Column(1),
                                             Expr::Literal(S("odd"))));
  PhysicalPlan plan = b.Ship(sel);
  auto result = dep->ExecuteQuery(1, plan, db_epoch);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 50u);
  for (const Tuple& t : result->rows) EXPECT_EQ(t[1], S("odd"));
}

TEST_F(QueryClusterTest, ProjectAndCompute) {
  Deploy(3);
  LoadRows("R", {{S("a"), S("1")}, {S("b"), S("2")}});

  PlanBuilder b;
  int32_t scan = b.Scan("R");
  int32_t comp = b.Compute(scan, {Expr::Concat({Expr::Column(0), Expr::Column(1)})});
  PhysicalPlan plan = b.Ship(comp);
  auto result = dep->ExecuteQuery(0, plan, db_epoch);
  ASSERT_TRUE(result.ok());
  std::multiset<std::string> got;
  for (const Tuple& t : result->rows) got.insert(t[0].AsString());
  EXPECT_EQ(got, (std::multiset<std::string>{"a1", "b2"}));
}

TEST_F(QueryClusterTest, CoveringScanReadsKeysOnly) {
  Deploy(4);
  std::vector<Tuple> rows;
  for (int i = 0; i < 60; ++i) rows.push_back({S("key" + std::to_string(i)), S("pay")});
  LoadRows("R", rows);

  PlanBuilder b;
  PhysicalPlan plan = b.Ship(b.CoveringScan("R"));
  auto result = dep->ExecuteQuery(2, plan, db_epoch);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 60u);
  std::set<std::string> keys;
  for (const Tuple& t : result->rows) {
    ASSERT_EQ(t.size(), 1u);  // only the key attribute
    keys.insert(t[0].AsString());
  }
  EXPECT_EQ(keys.size(), 60u);
}

// The paper's running example (Example 5.1 / Fig. 6):
//   SELECT x, MIN(z) FROM R, S WHERE R.y = S.y GROUP BY x
// R is rehashed on y; S is already partitioned on its key y, so it feeds the
// join without a rehash. The group-by needs one more rehash on x, partial
// aggregation, then shipping to the initiator for re-aggregation.
PhysicalPlan RunningExamplePlan() {
  PlanBuilder b;
  int32_t scan_r = b.Scan("R");
  int32_t rehash_r = b.Rehash(scan_r, {1});          // R rehashed on y
  int32_t scan_s = b.Scan("S");                      // co-partitioned on y
  int32_t join = b.Join(rehash_r, scan_s, {1}, {0});  // R.y = S.y
  // join output: R.x, R.y, S.y, S.z
  int32_t rehash_x = b.Rehash(join, {0});
  AggSpec min_z;
  min_z.fn = AggFn::kMin;
  min_z.has_arg = true;
  min_z.arg = Expr::Column(3);
  int32_t agg = b.Aggregate(rehash_x, {0}, {min_z});
  PhysicalPlan plan = b.Ship(agg);
  // Final stage: re-aggregate partials at the initiator.
  plan.final_stage.has_agg = true;
  plan.final_stage.group_cols = {0};
  AggSpec merge_min = min_z;
  merge_min.arg = Expr::Column(1);
  plan.final_stage.aggs = {merge_min};
  return plan;
}

TEST_F(QueryClusterTest, PaperRunningExample) {
  Deploy(3);
  LoadRows("R", {{S("a"), S("b")}, {S("c"), S("d")}});
  LoadRows("S", {{S("b"), S("j")}, {S("f"), S("k")}, {S("b"), S("m")}});
  // Note: S's key is y, so the two S tuples with y="b" collapse under key
  // semantics; use distinct keys instead.
  ref_db["S"] = {{S("b"), S("j")}, {S("f"), S("k")}};
  UpdateBatch fix;
  fix["S"] = {Update::Insert({S("b"), S("j")}), Update::Insert({S("f"), S("k")})};
  auto e = dep->Publish(0, std::move(fix));
  ASSERT_TRUE(e.ok());
  db_epoch = *e;

  PhysicalPlan plan = RunningExamplePlan();
  auto result = dep->ExecuteQuery(0, plan, db_epoch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // R(a,b) joins S(b,j) -> group x=a, MIN(z)=j. R(c,d) joins nothing.
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], S("a"));
  EXPECT_EQ(result->rows[0][1], S("j"));
}

TEST_F(QueryClusterTest, JoinMatchesReferenceOnRandomData) {
  Deploy(5);
  Rng rng(99);
  std::vector<Tuple> r_rows, s_rows;
  for (int i = 0; i < 300; ++i) {
    r_rows.push_back({S("rk" + std::to_string(i)),
                      S(StrCat({"j", std::to_string(rng.Uniform(40))}))});
  }
  for (int i = 0; i < 150; ++i) {
    s_rows.push_back({S(StrCat({"j", std::to_string(rng.Uniform(40))})),
                      S(StrCat({"z", std::to_string(i)}))});
  }
  // S's key is column 0 (the join attribute); keys must be unique.
  std::map<std::string, Tuple> uniq;
  for (auto& t : s_rows) uniq[t[0].AsString()] = t;
  s_rows.clear();
  for (auto& [k, t] : uniq) s_rows.push_back(t);

  LoadRows("R", r_rows);
  LoadRows("S", s_rows);

  PlanBuilder b;
  int32_t scan_r = b.Scan("R");
  int32_t rehash_r = b.Rehash(scan_r, {1});
  int32_t scan_s = b.Scan("S");
  int32_t join = b.Join(rehash_r, scan_s, {1}, {0});
  PhysicalPlan plan = b.Ship(join);

  auto result = dep->ExecuteQuery(3, plan, db_epoch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto expect = ReferenceExecute(plan, ref_db);
  ASSERT_TRUE(expect.ok());
  EXPECT_TRUE(SameBag(result->rows, *expect))
      << "distributed=" << result->rows.size() << " reference=" << expect->size();
}

TEST_F(QueryClusterTest, DoubleRehashJoinBothSides) {
  Deploy(4);
  Rng rng(123);
  std::vector<Tuple> r_rows, s_rows;
  for (int i = 0; i < 200; ++i) {
    r_rows.push_back({S("rk" + std::to_string(i)),
                      S(StrCat({"v", std::to_string(rng.Uniform(25))}))});
    s_rows.push_back({S("sk" + std::to_string(i)),
                      S(StrCat({"v", std::to_string(rng.Uniform(25))}))});
  }
  LoadRows("R", r_rows);
  LoadRows("S", s_rows);

  // Join on the NON-key attributes of both relations: both sides rehash.
  PlanBuilder b;
  int32_t rehash_r = b.Rehash(b.Scan("R"), {1});
  int32_t rehash_s = b.Rehash(b.Scan("S"), {1});
  int32_t join = b.Join(rehash_r, rehash_s, {1}, {1});
  PhysicalPlan plan = b.Ship(join);

  auto result = dep->ExecuteQuery(0, plan, db_epoch);
  ASSERT_TRUE(result.ok());
  auto expect = ReferenceExecute(plan, ref_db);
  ASSERT_TRUE(expect.ok());
  EXPECT_TRUE(SameBag(result->rows, *expect));
  EXPECT_GT(result->rows.size(), 0u);
}

TEST_F(QueryClusterTest, DistributedAggregationWithReaggregation) {
  Deploy(4);
  Rng rng(5);
  std::vector<Tuple> rows;
  std::map<std::string, int64_t> expect_counts;
  for (int i = 0; i < 500; ++i) {
    std::string g = StrCat({"g", std::to_string(rng.Uniform(7))});
    rows.push_back({S(StrCat({"k", std::to_string(i)})), S(g)});
    expect_counts[g] += 1;
  }
  LoadRows("R", rows);

  PlanBuilder b;
  int32_t rehash = b.Rehash(b.Scan("R"), {1});
  AggSpec count;
  count.fn = AggFn::kCount;
  count.has_arg = false;
  int32_t agg = b.Aggregate(rehash, {1}, {count});
  PhysicalPlan plan = b.Ship(agg);
  plan.final_stage.has_agg = true;
  plan.final_stage.group_cols = {0};
  AggSpec merge = count;
  merge.has_arg = true;
  merge.arg = Expr::Column(1);
  plan.final_stage.aggs = {merge};

  auto result = dep->ExecuteQuery(2, plan, db_epoch);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), expect_counts.size());
  for (const Tuple& t : result->rows) {
    EXPECT_EQ(t[1].AsInt64(), expect_counts[t[0].AsString()]) << t[0].AsString();
  }
}

TEST_F(QueryClusterTest, HistoricalQuerySeesOldEpoch) {
  Deploy(3);
  LoadRows("R", {{S("a"), S("old")}});
  storage::Epoch e1 = db_epoch;
  UpdateBatch upd;
  upd["R"] = {Update::Insert({S("a"), S("new")}), Update::Insert({S("b"), S("x")})};
  auto e2 = dep->Publish(0, std::move(upd));
  ASSERT_TRUE(e2.ok());

  PlanBuilder b;
  PhysicalPlan plan = b.Ship(b.Scan("R"));
  auto old_result = dep->ExecuteQuery(0, plan, e1);
  ASSERT_TRUE(old_result.ok());
  ASSERT_EQ(old_result->rows.size(), 1u);
  EXPECT_EQ(old_result->rows[0][1], S("old"));

  PlanBuilder b2;
  PhysicalPlan plan2 = b2.Ship(b2.Scan("R"));
  auto new_result = dep->ExecuteQuery(0, plan2, *e2);
  ASSERT_TRUE(new_result.ok());
  EXPECT_EQ(new_result->rows.size(), 2u);
}

TEST_F(QueryClusterTest, FinalStageSortAndLimit) {
  Deploy(3);
  LoadRows("R", {{S("c"), S("3")}, {S("a"), S("1")}, {S("d"), S("4")}, {S("b"), S("2")}});
  PlanBuilder b;
  PhysicalPlan plan = b.Ship(b.Scan("R"));
  plan.final_stage.sort = {{0, true}};
  plan.final_stage.limit = 2;
  auto result = dep->ExecuteQuery(0, plan, db_epoch);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0], S("a"));
  EXPECT_EQ(result->rows[1][0], S("b"));
}

// Scans read each tuple version by point lookup of the hash its page carries
// (StorageService::ReadIdList), so the older versions a data node retains
// (GC off) cost a key-filtered scan nothing.
TEST_F(QueryClusterTest, ScanCostDoesNotGrowWithRetainedVersions) {
  Deploy(4);
  auto write_round = [&](int round) {
    std::vector<Tuple> rows;
    for (int i = 100; i < 500; ++i) {
      rows.push_back({S(StrCat({"k", std::to_string(i)})),
                      S(StrCat({"v", std::to_string(round % 10)}))});
    }
    LoadRows("R", rows);
  };
  PlanBuilder b;
  int32_t scan = b.Scan("R");
  storage::KeyFilter& filter = b.plan.ops[scan].key_filter;
  filter.all = false;
  S("k200").EncodeOrdered(&filter.lo);
  S("k299").EncodeOrdered(&filter.hi);
  PhysicalPlan plan = b.Ship(scan);
  auto run = [&](const std::string& value) -> sim::SimTime {
    auto result = dep->ExecuteQuery(0, plan, db_epoch);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return 0;
    EXPECT_EQ(result->rows.size(), 100u);
    for (const Tuple& t : result->rows) EXPECT_EQ(t[1], S(value));
    return result->execution_us;
  };

  write_round(0);
  write_round(1);  // one overwrite
  const sim::SimTime after_one = run("v1");
  for (int round = 2; round <= 20; ++round) write_round(round);  // twenty
  const sim::SimTime after_twenty = run("v0");
  ASSERT_GT(after_one, 0);
  EXPECT_LE(static_cast<double>(after_twenty), 1.05 * static_cast<double>(after_one))
      << "after 1 overwrite: " << after_one << " us, after 20: " << after_twenty << " us";
  EXPECT_GE(static_cast<double>(after_twenty), 0.95 * static_cast<double>(after_one));
}

// A version missing from its owner's store (a stale replica, §IV) is
// recovered from the next replica by FetchTuple, the one fallback of every
// scan: Retrieve and a one-scan plan each return it exactly once.
TEST_F(QueryClusterTest, VersionMissingAtItsOwnerIsReadOnceFromAReplica) {
  Deploy(4);
  std::vector<Tuple> rows;
  for (int i = 0; i < 60; ++i) {
    rows.push_back({S(StrCat({"k", std::to_string(i)})), S(StrCat({"v", std::to_string(i)}))});
  }
  LoadRows("R", rows);
  const storage::RelationDef* def = dep->storage(0).FindRelation("R");
  ASSERT_NE(def, nullptr);
  size_t deleted = 0;
  for (size_t i = 0; i < rows.size(); i += 3) {
    std::string kb = storage::EncodeTupleKey(def->schema, rows[i]);
    HashId h = storage::PlacementHash(*def, kb);
    net::NodeId owner = dep->storage(0).snapshot().OwnerOf(h);
    ASSERT_TRUE(dep->storage(owner).store().Delete(
        storage::keys::Data("R", h, kb, db_epoch)).ok());
    ++deleted;
  }
  ASSERT_EQ(deleted, 20u);

  auto retrieved = dep->Retrieve(1, "R", db_epoch);
  ASSERT_TRUE(retrieved.ok()) << retrieved.status().ToString();
  EXPECT_TRUE(SameBag(*retrieved, rows));

  PlanBuilder b;
  PhysicalPlan plan = b.Ship(b.Scan("R"));
  auto result = dep->ExecuteQuery(1, plan, db_epoch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SameBag(result->rows, rows));
}

// ---------------------------------------------------------------------------
// Dataflow protocol (docs/WIRE_FORMATS.md "Query protocol"): end of stream
// rides the last block of each stream, and scans exchange fetch frames only
// between spill peers.

// Query-service wire codes. 3, 4, 5 and 8 are retired (block acks, EOS
// markers, the scan part-done barrier and ship EOS).
constexpr uint16_t kPlanCode = 1, kDataBlockCode = 2, kQueryFetchCode = 6,
                   kShipBlockCode = 7, kAbortCode = 11;

// Sits in front of one node's QueryService and records every query message
// the node receives before handing it on.
class QueryWireSpy : public net::Service {
 public:
  struct Seen {
    net::NodeId from;
    uint16_t code;
    bool eos;  // TupleBlock frames only
  };

  QueryWireSpy(deploy::Deployment* dep, size_t node) : dep_(dep), node_(node) {
    dep->host(node).Register(net::ServiceId::kQuery, this);
  }
  void OnMessage(net::NodeId from, uint16_t code, const std::string& payload) override {
    TupleBlock block;
    bool eos = (code == kDataBlockCode || code == kShipBlockCode) &&
               TupleBlock::Decode(payload, &block).ok() && block.eos;
    seen.push_back(Seen{from, code, eos});
    dep_->query(node_).OnMessage(from, code, payload);
  }
  void OnConnectionDrop(net::NodeId peer) override {
    dep_->query(node_).OnConnectionDrop(peer);
  }
  void OnSelfFailed() override { dep_->query(node_).OnSelfFailed(); }

  std::vector<Seen> seen;

 private:
  deploy::Deployment* dep_;
  size_t node_;
};

class QueryProtocolTest : public QueryClusterTest {
 protected:
  void AttachSpies() {
    for (size_t i = 0; i < dep->size(); ++i) {
      spies.push_back(std::make_unique<QueryWireSpy>(dep.get(), i));
    }
  }
  size_t Count(const std::function<bool(const QueryWireSpy::Seen&)>& pred) const {
    size_t n = 0;
    for (const auto& spy : spies) {
      n += static_cast<size_t>(std::count_if(spy->seen.begin(), spy->seen.end(), pred));
    }
    return n;
  }
  size_t CountCode(uint16_t code) const {
    return Count([code](const QueryWireSpy::Seen& m) { return m.code == code; });
  }
  uint64_t SumCounter(uint64_t QueryService::Counters::*field) const {
    uint64_t total = 0;
    for (size_t i = 0; i < dep->size(); ++i) total += dep->query(i).counters().*field;
    return total;
  }
  struct Outcome {
    bool done = false;
    Status status;
    QueryResult result;
  };
  Outcome Run(const PhysicalPlan& plan, QueryOptions opts, sim::SimTime max_wait) {
    Outcome out;
    dep->query(0).Execute(plan, db_epoch, opts, [&out](Status st, QueryResult r) {
      out.status = st;
      out.result = std::move(r);
      out.done = true;
    });
    if (dep->RunUntil([&out] { return out.done; }, max_wait)) {
      dep->RunFor(sim::kMicrosPerSec);  // let the aborts land
    }
    return out;
  }
  /// The coordinator record's pages of `rel` at db_epoch.
  std::vector<storage::PageDescriptor> PagesOf(const std::string& rel) {
    std::vector<storage::PageDescriptor> pages;
    bool done = false;
    dep->storage(0).GetCoordinator(rel, db_epoch,
                                   [&](Status st, storage::CoordinatorRecord rec) {
                                     EXPECT_TRUE(st.ok()) << st.ToString();
                                     pages = rec.pages;
                                     done = true;
                                   });
    EXPECT_TRUE(dep->RunUntil([&done] { return done; }, 10 * sim::kMicrosPerSec));
    return pages;
  }

  std::vector<std::unique_ptr<QueryWireSpy>> spies;
};

// Two scans and three rehashes on 8 nodes over 8-partition relations, so
// every page lies inside one node's range: no scan has spill peers. The
// query sends plans, blocks and aborts only, within the derived budget.
TEST_F(QueryProtocolTest, AlignedMultiRehashPlanSendsNoControlMessages) {
  constexpr size_t kNodes = 8;
  Deploy(kNodes);
  Rng rng(77);
  std::vector<Tuple> r_rows, s_rows;
  for (int i = 0; i < 400; ++i) {
    r_rows.push_back({S(StrCat({"rk", std::to_string(i)})),
                      S(StrCat({"v", std::to_string(rng.Uniform(30))}))});
    s_rows.push_back({S(StrCat({"sk", std::to_string(i)})),
                      S(StrCat({"v", std::to_string(rng.Uniform(30))}))});
  }
  LoadRows("R", r_rows);
  LoadRows("S", s_rows);

  PlanBuilder b;
  int32_t rehash_r = b.Rehash(b.Scan("R"), {1});
  int32_t rehash_s = b.Rehash(b.Scan("S"), {1});
  int32_t join = b.Join(rehash_r, rehash_s, {1}, {1});
  int32_t rehash_x = b.Rehash(join, {0});
  AggSpec count;
  count.fn = AggFn::kCount;
  int32_t agg = b.Aggregate(rehash_x, {0}, {count});
  PhysicalPlan plan = b.Ship(agg);
  plan.final_stage.has_agg = true;
  plan.final_stage.group_cols = {0};
  AggSpec merge = count;
  merge.has_arg = true;
  merge.arg = Expr::Column(1);
  plan.final_stage.aggs = {merge};
  constexpr size_t kRehashOps = 3;
  auto expect = ReferenceExecute(plan, ref_db);
  ASSERT_TRUE(expect.ok());

  AttachSpies();
  QueryOptions opts;
  opts.block_rows = 16;  // small blocks, so streams carry mid-stream blocks too
  Outcome run = Run(plan, opts, 60 * sim::kMicrosPerSec);
  ASSERT_TRUE(run.done);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_TRUE(SameBag(run.result.rows, *expect));

  for (uint16_t retired : {3, 4, 5, 8}) EXPECT_EQ(CountCode(retired), 0u) << retired;
  EXPECT_EQ(CountCode(kQueryFetchCode), 0u);
  EXPECT_EQ(CountCode(kPlanCode), kNodes);
  EXPECT_EQ(CountCode(kAbortCode), kNodes);
  auto final_of = [](uint16_t code) {
    return [code](const QueryWireSpy::Seen& m) { return m.code == code && m.eos; };
  };
  auto mid_of = [](uint16_t code) {
    return [code](const QueryWireSpy::Seen& m) { return m.code == code && !m.eos; };
  };
  // One final block per (sender, receiver) pair per rehash op, one final
  // Ship block per node; a mid-stream block leaves only with block_rows rows.
  EXPECT_EQ(Count(final_of(kDataBlockCode)), kRehashOps * kNodes * kNodes);
  EXPECT_EQ(Count(final_of(kShipBlockCode)), kNodes);
  size_t mid_blocks = Count(mid_of(kDataBlockCode));
  size_t mid_ships = Count(mid_of(kShipBlockCode));
  EXPECT_GT(mid_blocks, 0u);
  EXPECT_LE(mid_blocks, SumCounter(&QueryService::Counters::rows_routed) / opts.block_rows);
  EXPECT_LE(mid_ships, SumCounter(&QueryService::Counters::rows_shipped) / opts.block_rows);
  size_t budget = kNodes + kNodes + kRehashOps * kNodes * kNodes + mid_blocks + kNodes +
                  mid_ships;
  EXPECT_EQ(Count([](const QueryWireSpy::Seen&) { return true; }), budget);
}

// Sender and receiver derive the spill-peer sets by one rule, so they agree
// on who exchanges fetch frames, under any table the query may run with; and
// the sets cover every spillover the scan can route.
TEST(SpillPeers, SymmetricAndCoveringOverRandomTables) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    auto scheme = (trial % 2 == 0) ? overlay::AllocationScheme::kBalanced
                                   : overlay::AllocationScheme::kPastry;
    size_t n = 1 + rng.Uniform(12);
    std::vector<overlay::Member> members;
    for (size_t i = 0; i < n; ++i) {
      members.push_back(overlay::Member{
          static_cast<net::NodeId>(i),
          HashId::OfBytes(StrCat({"m", std::to_string(trial), "/", std::to_string(i)}))});
    }
    overlay::RoutingSnapshot table = overlay::RoutingSnapshot::Build(1, scheme, members);
    if (n > 2 && trial % 3 == 0) {
      std::vector<net::NodeId> failed;
      for (size_t i = 0; i < n; ++i) {
        if (failed.size() + 1 < n && rng.Uniform(3) == 0) {
          failed.push_back(static_cast<net::NodeId>(i));
        }
      }
      table = table.ReassignFailed(failed, 3, 2);
    }
    auto parts = static_cast<uint32_t>(1 + rng.Uniform(40));
    std::vector<storage::PageDescriptor> pages;
    for (uint32_t p = 0; p < parts; ++p) {
      if (rng.Uniform(5) == 0) continue;  // empty partitions carry no page
      storage::PageDescriptor d;
      d.id = storage::PageId{"R", 1, p};
      d.num_partitions = parts;
      pages.push_back(d);
    }
    std::map<net::NodeId, SpillPeers> peers;
    for (const auto& m : table.members()) {
      peers[m.node] = ScanSpillPeers(pages, table, m.node);
    }
    for (const auto& [x, px] : peers) {
      EXPECT_EQ(px.to.count(x), 0u);
      EXPECT_EQ(px.from.count(x), 0u);
      for (const auto& [y, py] : peers) {
        EXPECT_EQ(px.to.count(y), py.from.count(x))
            << "trial " << trial << " x=" << x << " y=" << y;
      }
    }
    for (int probe = 0; probe < 50; ++probe) {
      HashId h = HashId::OfBytes(StrCat({"h", std::to_string(trial), "/",
                                         std::to_string(probe)}));
      uint32_t p = storage::PartitionIndexFor(h, parts);
      bool has_page = std::any_of(pages.begin(), pages.end(), [p](const auto& d) {
        return d.id.partition == p;
      });
      if (!has_page) continue;
      net::NodeId index_node = table.OwnerOf(storage::PartitionHome(p, parts));
      net::NodeId owner = table.OwnerOf(h);
      if (owner != index_node) {
        EXPECT_EQ(peers[index_node].to.count(owner), 1u) << "trial " << trial;
      }
    }
  }
}

// 8 partitions over 6 nodes: pages straddle node ranges, so index nodes push
// spillover to their data owners. Each spill pair exchanges exactly one
// (final) fetch frame per scan, and the answer is exact.
TEST_F(QueryProtocolTest, StraddlingPartitionsFetchOnceBetweenSpillPeers) {
  Deploy(6);
  Rng rng(99);
  std::vector<Tuple> r_rows, s_rows;
  for (int i = 0; i < 300; ++i) {
    r_rows.push_back({S("rk" + std::to_string(i)),
                      S(StrCat({"j", std::to_string(rng.Uniform(40))}))});
  }
  for (int i = 0; i < 40; ++i) {
    s_rows.push_back({S(StrCat({"j", std::to_string(i)})), S(StrCat({"z", std::to_string(i)}))});
  }
  LoadRows("R", r_rows);
  LoadRows("S", s_rows);
  PlanBuilder b;
  int32_t rehash_r = b.Rehash(b.Scan("R"), {1});
  int32_t join = b.Join(rehash_r, b.Scan("S"), {1}, {0});
  PhysicalPlan plan = b.Ship(join);
  auto expect = ReferenceExecute(plan, ref_db);
  ASSERT_TRUE(expect.ok());

  size_t spill_pairs = 0;
  for (const std::string rel : {"R", "S"}) {
    auto pages = PagesOf(rel);
    for (const auto& m : dep->snapshot().members()) {
      spill_pairs += ScanSpillPeers(pages, dep->snapshot(), m.node).to.size();
    }
  }
  ASSERT_GT(spill_pairs, 0u);

  AttachSpies();
  Outcome run = Run(plan, {}, 60 * sim::kMicrosPerSec);
  ASSERT_TRUE(run.done);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_TRUE(SameBag(run.result.rows, *expect))
      << "got " << run.result.rows.size() << " want " << expect->size();
  EXPECT_EQ(CountCode(kQueryFetchCode), spill_pairs);
  for (uint16_t retired : {3, 4, 5, 8}) EXPECT_EQ(CountCode(retired), 0u) << retired;
}

// Blocks lost on one directed link between two workers: the receiver must
// never take the sender's stream as ended, so the query does not resolve OK
// with rows missing. Covers a lost final block and, with small blocks, lost
// mid-stream blocks ahead of a delivered final block.
TEST_F(QueryProtocolTest, LostBlocksNeverResolveOkWithRowsMissing) {
  constexpr net::NodeId kFrom = 2, kTo = 5;
  bool final_after_gap = false;
  for (uint32_t block_rows : {1024u, 2u}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      spies.clear();
      Deploy(8);
      Rng rng(seed);
      std::vector<Tuple> r_rows;
      for (int i = 0; i < 300; ++i) {
        r_rows.push_back({S("rk" + std::to_string(i)),
                          S(StrCat({"j", std::to_string(rng.Uniform(60))}))});
      }
      LoadRows("R", r_rows);
      PlanBuilder b;
      PhysicalPlan plan = b.Ship(b.Rehash(b.Scan("R"), {1}));
      auto expect = ReferenceExecute(plan, ref_db);
      ASSERT_TRUE(expect.ok());

      AttachSpies();
      dep->network().SeedFaults(seed);
      dep->network().SetDropOverride(kFrom, kTo, block_rows == 1024 ? 1.0 : 0.3);
      QueryOptions opts;
      opts.block_rows = block_rows;
      Outcome run = Run(plan, opts, 30 * sim::kMicrosPerSec);
      uint64_t dropped = dep->network().fault_counters().dropped;
      if (block_rows == 1024) {
        EXPECT_GT(dropped, 0u);  // the one final block
      }
      if (run.done && run.status.ok()) {
        EXPECT_TRUE(SameBag(run.result.rows, *expect))
            << "resolved OK with " << run.result.rows.size() << " of " << expect->size()
            << " rows (block_rows " << block_rows << ", seed " << seed << ")";
      }
      const auto& at_to = spies[kTo]->seen;
      final_after_gap |= dropped > 0 && std::any_of(at_to.begin(), at_to.end(), [](const auto& m) {
        return m.from == kFrom && m.code == kDataBlockCode && m.eos;
      });
    }
  }
  // Some run lost only mid-stream blocks (the link carries nothing after the
  // final block): the final block arrived and its count kept the stream open.
  EXPECT_TRUE(final_after_gap);
}

// ---------------------------------------------------------------------------
// Failure handling (§V-C, §V-D)

class RecoveryTest : public QueryClusterTest {
 protected:
  // Loads enough data that queries take measurable simulated time.
  void LoadBulk(int n_r, int n_s, uint64_t seed = 17) {
    Rng rng(seed);
    std::vector<Tuple> r_rows, s_rows;
    for (int i = 0; i < n_r; ++i) {
      r_rows.push_back({S("rk" + std::to_string(i)),
                        S("j" + std::to_string(rng.Uniform(50)))});
    }
    for (int i = 0; i < n_s; ++i) {
      s_rows.push_back({S("j" + std::to_string(i % 50)),
                        S("z" + std::to_string(i))});
    }
    std::map<std::string, Tuple> uniq;
    for (auto& t : s_rows) uniq[t[0].AsString()] = t;
    s_rows.clear();
    for (auto& [k, t] : uniq) s_rows.push_back(t);
    LoadRows("R", r_rows);
    LoadRows("S", s_rows);
  }

  PhysicalPlan JoinPlan() {
    PlanBuilder b;
    int32_t rehash_r = b.Rehash(b.Scan("R"), {1});
    int32_t join = b.Join(rehash_r, b.Scan("S"), {1}, {0});
    return b.Ship(join);
  }

  /// Measures the failure-free runtime of `plan` (the deployment state is
  /// unchanged by read-only queries), so failures can be injected at a
  /// fraction of it deterministically.
  sim::SimTime CalibrateRuntime(const PhysicalPlan& plan, size_t via = 0) {
    auto base = dep->ExecuteQuery(via, plan, db_epoch);
    EXPECT_TRUE(base.ok()) << base.status().ToString();
    return base.ok() ? base->execution_us : 0;
  }

  struct FailureRun {
    Status status;
    QueryResult result;
    bool injected = false;
  };

  /// Starts `plan`, injects a failure of `victim` at `fraction` of the
  /// calibrated runtime, and drives to completion.
  FailureRun RunWithFailureAt(const PhysicalPlan& plan, net::NodeId victim,
                              double fraction, QueryOptions opts = {},
                              bool hang = false, size_t via = 0) {
    sim::SimTime t = CalibrateRuntime(plan, via);
    FailureRun out;
    bool done = false;
    dep->query(via).Execute(plan, db_epoch, opts, [&](Status st, QueryResult r) {
      out.status = st;
      out.result = std::move(r);
      done = true;
    });
    dep->RunFor(static_cast<sim::SimTime>(fraction * static_cast<double>(t)));
    if (!done) {
      out.injected = true;
      if (hang) {
        dep->network().HangNode(victim);
      } else {
        dep->KillNode(victim, /*update_routing=*/false);
      }
    }
    EXPECT_TRUE(dep->RunUntil([&] { return done; }, 600 * sim::kMicrosPerSec));
    return out;
  }
};

TEST_F(RecoveryTest, IncrementalRecoveryProducesExactAnswer) {
  Deploy(6);
  LoadBulk(2000, 100);
  PhysicalPlan plan = JoinPlan();
  auto expect = ReferenceExecute(plan, ref_db);
  ASSERT_TRUE(expect.ok());

  QueryOptions opts;
  opts.recovery = QueryOptions::RecoveryMode::kIncremental;
  FailureRun run = RunWithFailureAt(plan, 3, 0.5, opts);
  ASSERT_TRUE(run.injected);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.result.recoveries, 1u);
  EXPECT_EQ(run.result.restarts, 0u);
  EXPECT_TRUE(SameBag(run.result.rows, *expect))
      << "got " << run.result.rows.size() << " rows, want " << expect->size();
}

TEST_F(RecoveryTest, RestartRecoveryProducesExactAnswer) {
  Deploy(6);
  LoadBulk(2000, 100);
  PhysicalPlan plan = JoinPlan();
  auto expect = ReferenceExecute(plan, ref_db);
  ASSERT_TRUE(expect.ok());

  QueryOptions opts;
  opts.recovery = QueryOptions::RecoveryMode::kRestart;
  FailureRun run = RunWithFailureAt(plan, 4, 0.5, opts);
  ASSERT_TRUE(run.injected);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.result.restarts, 1u);
  EXPECT_TRUE(SameBag(run.result.rows, *expect));
}

TEST_F(RecoveryTest, AggregationSurvivesFailureWithoutDoubleCounting) {
  Deploy(6);
  Rng rng(31);
  std::vector<Tuple> rows;
  std::map<std::string, int64_t> expect_counts;
  for (int i = 0; i < 5000; ++i) {
    std::string g = StrCat({"g", std::to_string(rng.Uniform(10))});
    rows.push_back({S(StrCat({"k", std::to_string(i)})), S(g)});
    expect_counts[g] += 1;
  }
  LoadRows("R", rows);

  PlanBuilder b;
  int32_t rehash = b.Rehash(b.Scan("R"), {1});
  AggSpec count;
  count.fn = AggFn::kCount;
  count.has_arg = false;
  int32_t agg = b.Aggregate(rehash, {1}, {count});
  PhysicalPlan plan = b.Ship(agg);
  plan.final_stage.has_agg = true;
  plan.final_stage.group_cols = {0};
  AggSpec merge = count;
  merge.has_arg = true;
  merge.arg = Expr::Column(1);
  plan.final_stage.aggs = {merge};

  FailureRun run = RunWithFailureAt(plan, 5, 0.5, {}, /*hang=*/false, /*via=*/1);
  ASSERT_TRUE(run.injected);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_EQ(run.result.rows.size(), expect_counts.size());
  for (const Tuple& t : run.result.rows) {
    EXPECT_EQ(t[1].AsInt64(), expect_counts[t[0].AsString()])
        << "group " << t[0].AsString() << " double-counted or lost";
  }
}

TEST_F(RecoveryTest, TwoSequentialFailures) {
  Deploy(8);
  LoadBulk(3000, 80);
  PhysicalPlan plan = JoinPlan();
  auto expect = ReferenceExecute(plan, ref_db);
  ASSERT_TRUE(expect.ok());
  sim::SimTime t = CalibrateRuntime(plan);

  bool done = false;
  Status status;
  QueryResult result;
  dep->query(0).Execute(plan, db_epoch, {}, [&](Status st, QueryResult r) {
    status = st;
    result = std::move(r);
    done = true;
  });
  dep->RunFor(t / 4);
  ASSERT_FALSE(done);
  dep->KillNode(2, false);
  dep->RunFor(t / 3);
  if (!done) dep->KillNode(6, false);
  ASSERT_TRUE(dep->RunUntil([&] { return done; }, 600 * sim::kMicrosPerSec));
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(SameBag(result.rows, *expect));
}

TEST_F(RecoveryTest, RecoveryModeNoneFailsQuery) {
  Deploy(5);
  LoadBulk(2000, 50);
  PhysicalPlan plan = JoinPlan();
  QueryOptions opts;
  opts.recovery = QueryOptions::RecoveryMode::kNone;
  FailureRun run = RunWithFailureAt(plan, 2, 0.4, opts);
  ASSERT_TRUE(run.injected);
  EXPECT_TRUE(run.status.IsUnavailable()) << run.status.ToString();
}

TEST_F(RecoveryTest, HungNodeDetectedByPings) {
  Deploy(5);
  LoadBulk(2000, 50);
  PhysicalPlan plan = JoinPlan();
  auto expect = ReferenceExecute(plan, ref_db);
  ASSERT_TRUE(expect.ok());

  QueryOptions opts;
  opts.enable_ping = true;
  opts.ping_interval_us = 200 * sim::kMicrosPerMilli;
  opts.ping_miss_threshold = 3;
  FailureRun run = RunWithFailureAt(plan, 3, 0.3, opts, /*hang=*/true);
  ASSERT_TRUE(run.injected);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_EQ(run.result.failures_handled.size(), 1u);
  EXPECT_EQ(run.result.failures_handled[0], 3u);
  // Detection had to wait for missed pings, so the run is visibly longer.
  EXPECT_GT(run.result.execution_us, 600 * sim::kMicrosPerMilli);
  EXPECT_TRUE(SameBag(run.result.rows, *expect));
}

TEST_F(RecoveryTest, FailureAfterCompletionIsIgnored) {
  Deploy(4);
  LoadBulk(100, 20);
  PhysicalPlan plan = JoinPlan();
  auto r1 = dep->ExecuteQuery(0, plan, db_epoch);
  ASSERT_TRUE(r1.ok());
  dep->KillNode(2, false);
  dep->RunFor(1 * sim::kMicrosPerSec);  // no crash, nothing pending
}

// Property sweep: random failure times against the same join must always
// produce the exact failure-free answer (no loss, no duplicates).
class FailureTimeSweep : public RecoveryTest,
                         public ::testing::WithParamInterface<int> {};

TEST_P(FailureTimeSweep, ExactAnswerAtAnyFailureTime) {
  Deploy(6);
  LoadBulk(2500, 60, /*seed=*/GetParam());
  PhysicalPlan plan = JoinPlan();
  auto expect = ReferenceExecute(plan, ref_db);
  ASSERT_TRUE(expect.ok());

  double fraction = 0.15 + 0.17 * GetParam();  // 15%..83% of the runtime
  net::NodeId victim = 1 + GetParam() % 5;
  FailureRun run = RunWithFailureAt(plan, victim, fraction);
  ASSERT_TRUE(run.injected);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_TRUE(SameBag(run.result.rows, *expect))
      << "got " << run.result.rows.size() << " want " << expect->size();
}

INSTANTIATE_TEST_SUITE_P(Sweep, FailureTimeSweep, ::testing::Values(0, 1, 2, 3, 4));

}  // namespace
}  // namespace orchestra::query
