#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "common/strings.h"
#include "deploy/deployment.h"
#include "storage/keys.h"
#include "storage/page.h"
#include "storage/publisher.h"
#include "storage/schema.h"
#include "storage/service.h"
#include "storage/value.h"

namespace orchestra::storage {
namespace {

// ---------------------------------------------------------------------------
// Data model

TEST(Value, TypedAccessors) {
  EXPECT_EQ(Value(int64_t{42}).AsInt64(), 42);
  EXPECT_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value(std::string("hi")).AsString(), "hi");
  EXPECT_TRUE(Value::Null().is_null());
}

TEST(Value, CompareWithinTypes) {
  EXPECT_LT(Value(int64_t{1}).Compare(Value(int64_t{2})), 0);
  EXPECT_EQ(Value(std::string("a")).Compare(Value(std::string("a"))), 0);
  EXPECT_GT(Value(3.5).Compare(Value(2.5)), 0);
}

TEST(Value, NumericCrossCompare) {
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.0)), 0);
  EXPECT_LT(Value(int64_t{2}).Compare(Value(2.5)), 0);
}

TEST(Value, EncodeDecodeRoundTrip) {
  for (const Value& v :
       {Value(int64_t{-12345}), Value(int64_t{0}), Value(1.75), Value(std::string("s")),
        Value::Null(), Value(std::string(1000, 'x'))}) {
    Writer w;
    v.EncodeTo(&w);
    Reader r(w.data());
    Value back;
    ASSERT_TRUE(Value::DecodeFrom(&r, &back).ok());
    EXPECT_EQ(back, v);
  }
}

TEST(Value, OrderedEncodingPreservesIntOrder) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    int64_t a = static_cast<int64_t>(rng.NextU64());
    int64_t b = static_cast<int64_t>(rng.NextU64());
    std::string ea, eb;
    Value(a).EncodeOrdered(&ea);
    Value(b).EncodeOrdered(&eb);
    EXPECT_EQ(a < b, ea < eb) << a << " vs " << b;
  }
}

TEST(Value, OrderedEncodingPreservesDoubleOrder) {
  std::vector<double> vals = {-1e300, -2.5, -0.0, 0.0, 1e-10, 1.0, 3.14, 1e300};
  for (size_t i = 0; i + 1 < vals.size(); ++i) {
    std::string ea, eb;
    Value(vals[i]).EncodeOrdered(&ea);
    Value(vals[i + 1]).EncodeOrdered(&eb);
    EXPECT_LE(ea, eb) << vals[i] << " vs " << vals[i + 1];
  }
}

TEST(Value, OrderedEncodingPreservesStringOrderWithNuls) {
  std::vector<std::string> vals = {std::string("\0", 1), std::string("\0a", 2), "a",
                                   std::string("a\0", 2), "ab", "b"};
  for (size_t i = 0; i + 1 < vals.size(); ++i) {
    std::string ea, eb;
    Value(vals[i]).EncodeOrdered(&ea);
    Value(vals[i + 1]).EncodeOrdered(&eb);
    EXPECT_LT(ea, eb) << i;
  }
}

TEST(Tuple, EncodeDecodeRoundTrip) {
  Tuple t = {Value(int64_t{7}), Value(std::string("abc")), Value(0.5), Value::Null()};
  Writer w;
  EncodeTuple(t, &w);
  Reader r(w.data());
  Tuple back;
  ASSERT_TRUE(DecodeTuple(&r, &back).ok());
  EXPECT_EQ(back, t);
}

TEST(Schema, FindAndKeyEncoding) {
  Schema s({{"x", ValueType::kString}, {"y", ValueType::kInt64}}, 1);
  EXPECT_EQ(*s.Find("y"), 1u);
  EXPECT_FALSE(s.Find("z").has_value());
  Tuple t = {Value(std::string("k1")), Value(int64_t{9})};
  std::string key = EncodeTupleKey(s, t);
  Tuple t2 = {Value(std::string("k1")), Value(int64_t{100})};
  EXPECT_EQ(key, EncodeTupleKey(s, t2));  // key ignores non-key attrs
  Tuple t3 = {Value(std::string("k2")), Value(int64_t{9})};
  EXPECT_NE(key, EncodeTupleKey(s, t3));
}

TEST(Page, PartitionGeometry) {
  for (uint32_t parts : {1u, 4u, 16u, 64u}) {
    for (uint32_t p = 0; p < parts; ++p) {
      HashId begin = PartitionBegin(p, parts);
      HashId home = PartitionHome(p, parts);
      EXPECT_EQ(PartitionIndexFor(begin, parts), p);
      EXPECT_EQ(PartitionIndexFor(home, parts), p);
    }
    // Random keys land in consistent partitions.
    Rng rng(parts);
    for (int i = 0; i < 50; ++i) {
      HashId h = HashId::OfBytes(StrCat({"p", std::to_string(rng.NextU64())}));
      uint32_t idx = PartitionIndexFor(h, parts);
      EXPECT_TRUE(h.InRange(PartitionBegin(idx, parts), PartitionEnd(idx, parts)));
    }
  }
}

TEST(Page, EncodeDecodeRoundTrip) {
  Page page;
  page.desc.id = PageId{"R", 3, 2};
  page.desc.num_partitions = 8;
  page.ids = {{"k1", 1}, {"k2", 3}};
  page.hashes = {TupleKeyHash("k1"), TupleKeyHash("k2")};
  Writer w;
  page.EncodeTo(&w);
  Reader r(w.data());
  Page back;
  ASSERT_TRUE(Page::DecodeFrom(&r, &back).ok());
  EXPECT_EQ(back.desc, page.desc);
  EXPECT_EQ(back.ids, page.ids);
  EXPECT_EQ(back.hashes, page.hashes);
}

TEST(CoordinatorRecordTest, EncodeDecodeRoundTrip) {
  CoordinatorRecord rec;
  rec.relation = "R";
  rec.epoch = 5;
  rec.participant = 17;  // multi-writer: records carry their epoch's writer
  rec.pages.push_back(PageDescriptor{PageId{"R", 4, 0}, 8});
  rec.pages.push_back(PageDescriptor{PageId{"R", 5, 3}, 8});
  Writer w;
  rec.EncodeTo(&w);
  Reader r(w.data());
  CoordinatorRecord back;
  ASSERT_TRUE(CoordinatorRecord::DecodeFrom(&r, &back).ok());
  EXPECT_EQ(back.relation, "R");
  EXPECT_EQ(back.epoch, 5u);
  EXPECT_EQ(back.participant, 17u);
  ASSERT_EQ(back.pages.size(), 2u);
  EXPECT_EQ(back.pages[1], rec.pages[1]);
}

TEST(Keys, DataKeysOrderByHashThenKeyThenEpoch) {
  HashId h1 = HashId::FromU64(100), h2 = HashId::FromU64(200);
  std::string a = keys::Data("R", h1, "ka", 1);
  std::string b = keys::Data("R", h1, "ka", 2);
  std::string c = keys::Data("R", h1, "kb", 1);
  std::string d = keys::Data("R", h2, "aa", 0);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
  // Prefix discipline: different relations never interleave.
  EXPECT_NE(keys::Data("R", h1, "k", 1).substr(0, 3),
            keys::Data("RR", h1, "k", 1).substr(0, 3));
}

// ---------------------------------------------------------------------------
// Distributed storage (deployment-based)

RelationDef SimpleRelation(const std::string& name, uint32_t partitions = 8) {
  RelationDef def;
  def.name = name;
  def.schema = Schema({{"x", ValueType::kString}, {"y", ValueType::kString}}, 1);
  def.num_partitions = partitions;
  return def;
}

Tuple Row(const std::string& x, const std::string& y) {
  return {Value(x), Value(y)};
}

std::multiset<std::string> AsBag(const std::vector<Tuple>& rows) {
  std::multiset<std::string> bag;
  for (const auto& t : rows) bag.insert(TupleToString(t));
  return bag;
}

class StorageClusterTest : public ::testing::Test {
 protected:
  StorageClusterTest() {
    deploy::DeploymentOptions opts;
    opts.num_nodes = 4;
    opts.replication = 3;
    dep = std::make_unique<deploy::Deployment>(opts);
  }
  std::unique_ptr<deploy::Deployment> dep;
};

TEST_F(StorageClusterTest, CreatePublishRetrieve) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch batch;
  batch["R"] = {Update::Insert(Row("a", "b")), Update::Insert(Row("f", "z"))};
  auto epoch = dep->Publish(0, std::move(batch));
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 1u);

  auto rows = dep->Retrieve(1, "R", *epoch);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(AsBag(*rows), (std::multiset<std::string>{"('a', 'b')", "('f', 'z')"}));
}

// The paper's Example 4.1: three epochs with inserts and one update; each
// epoch's snapshot must be exactly reconstructible.
TEST_F(StorageClusterTest, PaperExample41VersionedSnapshots) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());

  UpdateBatch e0;
  e0["R"] = {Update::Insert(Row("a", "b")), Update::Insert(Row("f", "z"))};
  ASSERT_TRUE(dep->Publish(0, std::move(e0)).ok());

  UpdateBatch e1;
  e1["R"] = {Update::Insert(Row("b", "c")), Update::Insert(Row("e", "e")),
             Update::Insert(Row("c", "f")), Update::Insert(Row("f", "a"))};
  ASSERT_TRUE(dep->Publish(0, std::move(e1)).ok());

  UpdateBatch e2;
  e2["R"] = {Update::Insert(Row("d", "d"))};
  ASSERT_TRUE(dep->Publish(0, std::move(e2)).ok());

  auto at1 = dep->Retrieve(2, "R", 1);
  ASSERT_TRUE(at1.ok());
  EXPECT_EQ(AsBag(*at1), (std::multiset<std::string>{"('a', 'b')", "('f', 'z')"}));

  auto at2 = dep->Retrieve(2, "R", 2);
  ASSERT_TRUE(at2.ok());
  EXPECT_EQ(AsBag(*at2),
            (std::multiset<std::string>{"('a', 'b')", "('b', 'c')", "('c', 'f')",
                                        "('e', 'e')", "('f', 'a')"}));

  auto at3 = dep->Retrieve(2, "R", 3);
  ASSERT_TRUE(at3.ok());
  EXPECT_EQ(AsBag(*at3),
            (std::multiset<std::string>{"('a', 'b')", "('b', 'c')", "('c', 'f')",
                                        "('d', 'd')", "('e', 'e')", "('f', 'a')"}));

  // "It would never simply return the data for <f,0>; it knows that data is
  // stale because it does not appear in the index page."
  for (const auto& t : *at2) {
    if (t[0] == Value(std::string("f"))) {
      EXPECT_EQ(t[1], Value(std::string("a")));
    }
  }
}

TEST_F(StorageClusterTest, DeleteRemovesFromLaterEpochsOnly) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch e0;
  e0["R"] = {Update::Insert(Row("a", "1")), Update::Insert(Row("b", "2"))};
  ASSERT_TRUE(dep->Publish(0, std::move(e0)).ok());
  UpdateBatch e1;
  e1["R"] = {Update::Delete(Row("a", ""))};
  ASSERT_TRUE(dep->Publish(0, std::move(e1)).ok());

  auto old_rows = dep->Retrieve(3, "R", 1);
  ASSERT_TRUE(old_rows.ok());
  EXPECT_EQ(old_rows->size(), 2u);
  auto new_rows = dep->Retrieve(3, "R", 2);
  ASSERT_TRUE(new_rows.ok());
  ASSERT_EQ(new_rows->size(), 1u);
  EXPECT_EQ((*new_rows)[0][0], Value(std::string("b")));
}

TEST_F(StorageClusterTest, KeyFilterPushdown) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch batch;
  for (char c = 'a'; c <= 'j'; ++c) {
    batch["R"].push_back(Update::Insert(Row(std::string(1, c), "v")));
  }
  ASSERT_TRUE(dep->Publish(0, std::move(batch)).ok());

  Schema s = SimpleRelation("R").schema;
  KeyFilter filter;
  filter.all = false;
  filter.lo = EncodeTupleKey(s, Row("c", ""));
  filter.hi = EncodeTupleKey(s, Row("e", ""));
  auto rows = dep->Retrieve(2, "R", 1, filter);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(AsBag(*rows),
            (std::multiset<std::string>{"('c', 'v')", "('d', 'v')", "('e', 'v')"}));
}

TEST_F(StorageClusterTest, LargeBatchRoundTrips) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R", 16)).ok());
  Rng rng(77);
  UpdateBatch batch;
  std::multiset<std::string> expect;
  for (int i = 0; i < 500; ++i) {
    Tuple t = Row("key-" + std::to_string(i), rng.AlphaString(20));
    expect.insert(TupleToString(t));
    batch["R"].push_back(Update::Insert(std::move(t)));
  }
  ASSERT_TRUE(dep->Publish(0, std::move(batch)).ok());
  auto rows = dep->Retrieve(1, "R", 1);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(AsBag(*rows), expect);
}

TEST_F(StorageClusterTest, SurvivesSingleNodeFailure) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch batch;
  for (int i = 0; i < 100; ++i) {
    batch["R"].push_back(Update::Insert(Row(StrCat({"k", std::to_string(i)}), "v")));
  }
  ASSERT_TRUE(dep->Publish(0, std::move(batch)).ok());

  // Kill a node; with r=3 every range still has live replicas, and retrieval
  // retries them transparently (§III-C).
  dep->KillNode(2);
  auto rows = dep->Retrieve(0, "R", 1);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 100u);
}

TEST_F(StorageClusterTest, MultipleRelationsSnapshotTogether) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("S")).ok());
  UpdateBatch b1;
  b1["R"] = {Update::Insert(Row("r1", "x"))};
  ASSERT_TRUE(dep->Publish(0, std::move(b1)).ok());
  UpdateBatch b2;
  b2["S"] = {Update::Insert(Row("s1", "y"))};
  ASSERT_TRUE(dep->Publish(0, std::move(b2)).ok());

  // R was untouched by epoch 2 but must still be resolvable there
  // (copy-forward of coordinator records).
  auto r_at_2 = dep->Retrieve(2, "R", 2);
  ASSERT_TRUE(r_at_2.ok());
  EXPECT_EQ(r_at_2->size(), 1u);
  auto s_at_2 = dep->Retrieve(3, "S", 2);
  ASSERT_TRUE(s_at_2.ok());
  EXPECT_EQ(s_at_2->size(), 1u);
  // S did not exist as data at epoch 1.
  auto s_at_1 = dep->Retrieve(3, "S", 1);
  ASSERT_TRUE(s_at_1.ok());
  EXPECT_TRUE(s_at_1->empty());
}

TEST_F(StorageClusterTest, ReplicateEverywhereRelation) {
  RelationDef def = SimpleRelation("Nation", 2);
  def.replicate_everywhere = true;
  ASSERT_TRUE(dep->CreateRelation(0, def).ok());
  UpdateBatch batch;
  for (int i = 0; i < 25; ++i) {
    batch["Nation"].push_back(Update::Insert(Row(StrCat({"n", std::to_string(i)}), "meta")));
  }
  ASSERT_TRUE(dep->Publish(0, std::move(batch)).ok());
  // Every node holds every tuple.
  for (size_t n = 0; n < dep->size(); ++n) {
    size_t local = 0;
    auto& store = dep->storage(n).store();
    std::string prefix = keys::DataPrefix("Nation");
    for (auto it = store.SeekPrefix(prefix); it.Valid(); it.Next()) {
      ++local;
    }
    EXPECT_EQ(local, 25u) << "node " << n;
  }
}

TEST_F(StorageClusterTest, NewNodeReceivesReplicasViaRebalance) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch batch;
  for (int i = 0; i < 200; ++i) {
    batch["R"].push_back(Update::Insert(Row(StrCat({"k", std::to_string(i)}), "v")));
  }
  ASSERT_TRUE(dep->Publish(0, std::move(batch)).ok());

  net::NodeId fresh = dep->AddNode();
  dep->RunFor(10 * sim::kMicrosPerSec);  // let kReplicaPush batches land

  // The new node owns some ranges; it must now hold data for them.
  EXPECT_GT(dep->storage(fresh).store().entry_count(), 0u);
  // And retrieval through the new node sees a complete snapshot.
  auto rows = dep->Retrieve(fresh, "R", 1);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 200u);
}

TEST_F(StorageClusterTest, RetrieveAtUnknownEpochFails) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  auto rows = dep->Retrieve(0, "R", 99);
  EXPECT_FALSE(rows.ok());
}

TEST_F(StorageClusterTest, UpdatesReplaceWithinEpochBatch) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch batch;
  batch["R"] = {Update::Insert(Row("k", "first")), Update::Insert(Row("k", "second"))};
  ASSERT_TRUE(dep->Publish(0, std::move(batch)).ok());
  auto rows = dep->Retrieve(0, "R", 1);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1], Value(std::string("second")));
}

// ---------------------------------------------------------------------------
// Hash-cache invariants of the publish pipeline

// Every page stored anywhere in the cluster for (rel, epoch): read the
// coordinator record from whichever node holds it, then each page from
// whichever node holds that.
std::vector<Page> AllPagesAt(deploy::Deployment& dep, const std::string& rel,
                             Epoch epoch) {
  std::vector<Page> pages;
  for (size_t c = 0; c < dep.size(); ++c) {
    auto rec = dep.storage(c).ReadCoordinatorLocal(rel, epoch);
    if (!rec.ok()) continue;
    for (const PageDescriptor& d : rec->pages) {
      for (size_t n = 0; n < dep.size(); ++n) {
        auto page = dep.storage(n).ReadPageLocal(d.id);
        if (page.ok()) {
          pages.push_back(std::move(page).value());
          break;
        }
      }
    }
    break;
  }
  return pages;
}

TEST_F(StorageClusterTest, PublishedPageHashesMatchFreshPlacementHash) {
  RelationDef def = SimpleRelation("R");
  ASSERT_TRUE(dep->CreateRelation(0, def).ok());
  UpdateBatch batch;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    batch["R"].push_back(
        Update::Insert(Row("key-" + std::to_string(i), rng.AlphaString(12))));
  }
  auto epoch = dep->Publish(0, std::move(batch));
  ASSERT_TRUE(epoch.ok());

  std::vector<Page> pages = AllPagesAt(*dep, "R", *epoch);
  ASSERT_FALSE(pages.empty());
  size_t checked = 0;
  for (const Page& page : pages) {
    ASSERT_EQ(page.hashes.size(), page.ids.size());
    for (size_t i = 0; i < page.ids.size(); ++i) {
      EXPECT_EQ(page.hashes[i], PlacementHash(def, page.ids[i].key_bytes))
          << "page " << page.desc.id.ToString() << " id " << i;
      ++checked;
      // Pages must stay sorted by (hash, key) for the single-pass scan.
      if (i > 0) {
        EXPECT_LE(page.hashes[i - 1], page.hashes[i]);
      }
    }
  }
  EXPECT_EQ(checked, 200u);
}

TEST_F(StorageClusterTest, Sha1ComputedOncePerTuplePerPublish) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());

  // Fresh inserts: exactly one TupleKeyHash per update, across the
  // publisher AND every kPutTuples/kPutPage receiver in the cluster.
  UpdateBatch first;
  for (int i = 0; i < 150; ++i) {
    first["R"].push_back(Update::Insert(Row(StrCat({"k", std::to_string(i)}), "v")));
  }
  uint64_t before = TupleKeyHashCount();
  ASSERT_TRUE(dep->Publish(0, std::move(first)).ok());
  EXPECT_EQ(TupleKeyHashCount() - before, 150u);

  // Overwrites of existing keys: carried-forward page entries reuse their
  // stored hashes, so the count is again exactly the update count.
  UpdateBatch second;
  for (int i = 0; i < 40; ++i) {
    second["R"].push_back(Update::Insert(Row(StrCat({"k", std::to_string(i)}), "w")));
  }
  before = TupleKeyHashCount();
  ASSERT_TRUE(dep->Publish(0, std::move(second)).ok());
  EXPECT_EQ(TupleKeyHashCount() - before, 40u);

  // The distributed scan path routes on page-carried hashes end to end:
  // zero SHA-1 tuple hashes for a full retrieve.
  before = TupleKeyHashCount();
  auto rows = dep->Retrieve(1, "R", 2);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 150u);
  EXPECT_EQ(TupleKeyHashCount() - before, 0u);
}

TEST(Keys, ParsersInvertBuilders) {
  HashId h = HashId::OfBytes("some-tuple-key");
  std::string hb;
  h.AppendBigEndian(&hb);
  const std::string_view kb("k\0y", 3);  // embedded NUL survives round-trip

  // The parsed views alias the key, so each key must outlive its checks.
  const std::string data_key = keys::Data("rel", h, kb, 42);
  keys::ParsedDataKey dk;
  ASSERT_TRUE(keys::ParseData(data_key, &dk));
  EXPECT_EQ(dk.relation, "rel");
  EXPECT_EQ(dk.hash_be20, hb);
  EXPECT_EQ(dk.key_bytes, kb);
  EXPECT_EQ(dk.epoch, 42u);

  const std::string page_key = keys::PageRec("r2", 7, 31);
  keys::ParsedPageKey pk;
  ASSERT_TRUE(keys::ParsePageRec(page_key, &pk));
  EXPECT_EQ(pk.relation, "r2");
  EXPECT_EQ(pk.partition, 31u);
  EXPECT_EQ(pk.epoch, 7u);

  const std::string coord_key = keys::Coord("r3", 1u << 20);
  keys::ParsedCoordKey ck;
  ASSERT_TRUE(keys::ParseCoord(coord_key, &ck));
  EXPECT_EQ(ck.relation, "r3");
  EXPECT_EQ(ck.epoch, 1u << 20);

  // Wrong tag, truncation, and trailing garbage are all rejected.
  const std::string wrong_tag = keys::Coord("rel", 1);
  const std::string truncated = wrong_tag.substr(0, 4);
  const std::string trailing = keys::PageRec("r", 1, 2) + "x";
  EXPECT_FALSE(keys::ParseData(wrong_tag, &dk));
  EXPECT_FALSE(keys::ParseCoord(truncated, &ck));
  EXPECT_FALSE(keys::ParsePageRec(trailing, &pk));
}

// The id list (docs/WIRE_FORMATS.md "Id list") is pinned byte for byte, and
// a decoded entry names the same data key as the entry's HashId and TupleId.
TEST(Keys, IdListLayoutNamesTheDataKey) {
  HashId h = HashId::OfBytes("some-tuple-key");
  const TupleId id{std::string("k\0y", 3), 300};
  keys::IdListWriter list;
  list.Add(h, id);
  Writer frame;
  list.EncodeTo(&frame);

  std::string hb;
  h.AppendBigEndian(&hb);
  Writer expect;
  expect.PutVarint64(1);
  expect.PutRaw(hb.data(), hb.size());
  expect.PutString(id.key_bytes);
  expect.PutVarint64(id.epoch);
  EXPECT_EQ(frame.data(), expect.data());

  Reader r(frame.data());
  uint64_t n = 0;
  ASSERT_TRUE(r.GetVarint64(&n).ok());
  EXPECT_EQ(n, 1u);
  keys::WireId wire;
  ASSERT_TRUE(keys::GetWireId(&r, &wire).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(keys::Data("rel", wire), keys::Data("rel", h, id.key_bytes, id.epoch));

  Reader truncated(std::string_view(frame.data()).substr(1, 20));
  EXPECT_FALSE(keys::GetWireId(&truncated, &wire).ok());
}

// ---------------------------------------------------------------------------
// Multi-epoch GC: watermark advertisement, retirement rules, tombstones.

// Counts a node's data records for a relation, separating tombstones.
struct DataCount {
  size_t versions = 0;
  size_t tombstones = 0;
};
DataCount CountData(StorageService& svc, const std::string& rel) {
  DataCount c;
  auto& store = svc.store();
  for (auto it = store.SeekPrefix(keys::DataPrefix(rel)); it.Valid(); it.Next()) {
    if (it.value().empty()) {
      c.tombstones += 1;
    } else {
      c.versions += 1;
    }
  }
  return c;
}

size_t CountPrefix(StorageService& svc, std::string_view pfx) {
  size_t n = 0;
  for (auto it = svc.store().SeekPrefix(pfx); it.Valid(); it.Next()) ++n;
  return n;
}

TEST_F(StorageClusterTest, DeletePublishesTombstones) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch e0;
  e0["R"] = {Update::Insert(Row("a", "1")), Update::Insert(Row("b", "2"))};
  ASSERT_TRUE(dep->Publish(0, std::move(e0)).ok());
  UpdateBatch e1;
  e1["R"] = {Update::Delete(Row("a", ""))};
  ASSERT_TRUE(dep->Publish(0, std::move(e1)).ok());

  size_t tombstones = 0;
  for (size_t i = 0; i < dep->size(); ++i) {
    tombstones += CountData(dep->storage(i), "R").tombstones;
  }
  // The delete was replicated as an empty-value marker at the delete epoch.
  EXPECT_EQ(tombstones, 3u);
  // It is invisible to retrieval at every epoch.
  auto at2 = dep->Retrieve(1, "R", 2);
  ASSERT_TRUE(at2.ok());
  EXPECT_EQ(AsBag(*at2), (std::multiset<std::string>{"('b', '2')"}));
}

TEST_F(StorageClusterTest, WatermarkRetiresSupersededVersions) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  // Five epochs of overwrites of the same key + one delete of another.
  UpdateBatch e;
  e["R"] = {Update::Insert(Row("k", "v0")), Update::Insert(Row("dead", "x"))};
  ASSERT_TRUE(dep->Publish(0, std::move(e)).ok());
  for (int i = 1; i <= 3; ++i) {
    UpdateBatch u;
    u["R"] = {Update::Insert(Row("k", "v" + std::to_string(i)))};
    ASSERT_TRUE(dep->Publish(0, std::move(u)).ok());
  }
  UpdateBatch del;
  del["R"] = {Update::Delete(Row("dead", ""))};
  auto last = dep->Publish(0, std::move(del));
  ASSERT_TRUE(last.ok());  // epoch 5

  size_t versions_before = 0;
  for (size_t i = 0; i < dep->size(); ++i) {
    versions_before += CountData(dep->storage(i), "R").versions;
  }
  // 4 versions of k + 1 of dead, times replication 3.
  EXPECT_EQ(versions_before, 15u);

  // Advance the watermark to the final epoch on every node: only the newest
  // at-or-below-watermark version of k survives; dead's tombstone and its
  // superseded version are both reclaimed.
  for (size_t i = 0; i < dep->size(); ++i) {
    dep->storage(i).SetGcWatermark(*last);
  }
  size_t versions = 0, tombstones = 0;
  uint64_t retired = 0;
  for (size_t i = 0; i < dep->size(); ++i) {
    auto c = CountData(dep->storage(i), "R");
    versions += c.versions;
    tombstones += c.tombstones;
    retired += dep->storage(i).gc_stats().retired_data +
               dep->storage(i).gc_stats().retired_tombstones;
  }
  EXPECT_EQ(versions, 3u);    // one live version of k, 3 replicas
  EXPECT_EQ(tombstones, 0u);  // fully reclaimed
  EXPECT_EQ(retired, 15u);    // 3 stale k versions + dead + its tombstone, x3

  // Retrieval at the watermark epoch still sees exactly the live state.
  auto rows = dep->Retrieve(1, "R", *last);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(AsBag(*rows), (std::multiset<std::string>{"('k', 'v3')"}));

  // Watermarks are monotonic: a lower advertisement is ignored.
  dep->storage(0).SetGcWatermark(1);
  EXPECT_EQ(dep->storage(0).gc_watermark(), *last);
}

TEST_F(StorageClusterTest, WatermarkRetiresPageAndCoordinatorRecords) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R", 2)).ok());
  for (int i = 0; i < 6; ++i) {
    UpdateBatch u;
    u["R"] = {Update::Insert(Row(StrCat({"k", std::to_string(i % 2)}), "v"))};
    ASSERT_TRUE(dep->Publish(0, std::move(u)).ok());
  }
  size_t coords_before = 0, pages_before = 0;
  for (size_t i = 0; i < dep->size(); ++i) {
    coords_before += CountPrefix(dep->storage(i), "C");
    pages_before += CountPrefix(dep->storage(i), "P");
  }
  for (size_t i = 0; i < dep->size(); ++i) dep->storage(i).SetGcWatermark(6);
  size_t coords = 0, pages = 0;
  for (size_t i = 0; i < dep->size(); ++i) {
    coords += CountPrefix(dep->storage(i), "C");
    pages += CountPrefix(dep->storage(i), "P");
  }
  EXPECT_LT(coords, coords_before);
  EXPECT_LT(pages, pages_before);
  // Exactly the watermark-epoch coordinator survives, on its 3 replicas.
  EXPECT_EQ(coords, 3u);
  // Per partition, only the newest at-or-below-watermark page version (the
  // one the surviving coordinator references) remains.
  for (size_t i = 0; i < dep->size(); ++i) {
    auto rows = dep->Retrieve(i, "R", 6);
    ASSERT_TRUE(rows.ok()) << "node " << i;
    EXPECT_EQ(rows->size(), 2u);
  }
}

// GC-advertising publisher: with gc_keep_epochs set, publishes advertise the
// watermark cluster-wide and storage stays trimmed without manual calls.
TEST_F(StorageClusterTest, PublisherAdvertisesWatermark) {
  for (auto& p : {0, 1, 2, 3}) dep->publisher(p).set_gc_keep_epochs(2);
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  Epoch last = 0;
  for (int i = 0; i < 8; ++i) {
    UpdateBatch u;
    u["R"] = {Update::Insert(Row("hot", StrCat({"v", std::to_string(i)})))};
    auto e = dep->Publish(0, std::move(u));
    ASSERT_TRUE(e.ok());
    last = *e;
  }
  dep->RunFor(1 * sim::kMicrosPerSec);  // let one-way advertisements land
  for (size_t i = 0; i < dep->size(); ++i) {
    EXPECT_EQ(dep->storage(i).gc_watermark(), last - 2) << "node " << i;
  }
  size_t versions = 0;
  for (size_t i = 0; i < dep->size(); ++i) {
    versions += CountData(dep->storage(i), "R").versions;
  }
  // Versions of "hot" retained: watermark survivor + the 2 epochs above it.
  EXPECT_EQ(versions, 9u);  // 3 versions x replication 3
  // History inside the kept window is intact...
  auto old_rows = dep->Retrieve(2, "R", last - 2);
  ASSERT_TRUE(old_rows.ok());
  EXPECT_EQ(old_rows->size(), 1u);
  // ...and epochs below the watermark are genuinely retired.
  auto below = dep->Retrieve(2, "R", last - 3);
  EXPECT_FALSE(below.ok());
}

// Replica pushes piggyback the GC watermark: a restarted node (whose
// watermark resets to 0) learns the cluster's mark from re-replication
// itself, without waiting for the next publish's advertisement.
TEST(StorageGc, ReplicaPushPiggybacksWatermark) {
  deploy::DeploymentOptions opts;
  opts.num_nodes = 4;
  opts.replication = 3;
  opts.gc_keep_epochs = 2;
  deploy::Deployment dep(opts);
  ASSERT_TRUE(dep.CreateRelation(0, SimpleRelation("R")).ok());
  Epoch last = 0;
  for (int i = 0; i < 6; ++i) {
    UpdateBatch u;
    u["R"] = {Update::Insert(Row(StrCat({"k", std::to_string(i % 2)}), StrCat({"v", std::to_string(i)})))};
    auto e = dep.Publish(0, std::move(u));
    ASSERT_TRUE(e.ok());
    last = *e;
  }
  dep.RunFor(1 * sim::kMicrosPerSec);  // one-way advertisements land
  const Epoch w = last - opts.gc_keep_epochs;
  ASSERT_EQ(dep.storage(2).gc_watermark(), w);

  dep.KillNode(2, /*update_routing=*/true, /*rebalance=*/true);
  dep.RunFor(2 * sim::kMicrosPerSec);
  // Restart wipes the transient watermark; re-replication must restore it
  // with NO further publish.
  dep.RestartNode(2);
  ASSERT_TRUE(dep.RunUntil([&dep] { return dep.PendingRpcCount() == 0; }));
  dep.RunFor(500 * sim::kMicrosPerMilli);
  EXPECT_EQ(dep.storage(2).gc_watermark(), w)
      << "restarted node did not learn the watermark from replica pushes";
  // And retirement ran there: epochs below the watermark stay refused.
  auto below = dep.Retrieve(2, "R", w - 1);
  EXPECT_FALSE(below.ok());
  auto at = dep.Retrieve(2, "R", last);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(at->size(), 2u);
}

// ---------------------------------------------------------------------------
// GC retirement index: an advance reads the garbage, not the store; nothing
// is tracked while GC is off; a restart re-arms the index at the next
// advertisement.

// Versioned records a whole-store pass of the version rule at `w` would
// still retire from `svc` (these tests fence no epoch): coordinator records
// and claims below `w`, and per data/page version group every version at or
// below `w` but the newest, plus that one when it is a delete tombstone.
size_t RetirableLeft(StorageService& svc, Epoch w) {
  size_t left = 0;
  for (char tag : {keys::kCoordTag, keys::kClaimTag, keys::kPageTag, keys::kDataTag}) {
    const bool below_only = tag == keys::kCoordTag || tag == keys::kClaimTag;
    std::string group;
    bool have_newest = false;  // `group` has a version <= w so far
    bool newest_dead = false;  // ... and the newest one is a tombstone
    for (auto it = svc.store().SeekPrefix(keys::TagPrefix(tag)); it.Valid(); it.Next()) {
      Epoch e = 0;
      if (!keys::ParseVersionEpoch(it.key(), &e)) continue;
      if (below_only) {
        left += e < w;
        continue;
      }
      if (keys::VersionGroupPrefix(it.key()) != group) {
        left += newest_dead;
        group.assign(keys::VersionGroupPrefix(it.key()));
        newest_dead = false;
        have_newest = false;
      }
      if (e > w) continue;
      left += have_newest;
      have_newest = true;
      newest_dead = tag == keys::kDataTag && it.value().empty();
    }
    left += newest_dead;
  }
  return left;
}

class GcIndexTest : public ::testing::Test {
 protected:
  GcIndexTest() {
    deploy::DeploymentOptions opts;
    opts.num_nodes = 1;
    opts.replication = 1;
    dep = std::make_unique<deploy::Deployment>(opts);
    svc().AddRelationLocal(SimpleRelation("R", 4));
  }
  StorageService& svc() { return dep->storage(0); }
  // Stores one version of each key at `epoch` through one kPutTuples frame.
  void PutTuples(const std::vector<std::string>& keys_, Epoch epoch) {
    Writer w;
    w.PutU64(1);  // request id; the reply is not awaited
    w.PutVarint64(1);
    w.PutString("R");
    w.PutVarint64(keys_.size());
    for (const std::string& k : keys_) {
      std::string hash;
      TupleKeyHash(k).AppendBigEndian(&hash);
      w.PutRaw(hash.data(), hash.size());
      w.PutString(k);
      w.PutVarint64(epoch);
      w.PutString("v");
    }
    svc().OnMessage(0, kPutTuples, w.data());
  }
  std::unique_ptr<deploy::Deployment> dep;
};

std::vector<std::string> NumberedKeys(const std::string& prefix, int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(StrCat({prefix, std::to_string(i)}));
  return out;
}

TEST_F(GcIndexTest, AnAdvanceExaminesTheGarbageNotTheStore) {
  const std::vector<std::string> single = NumberedKeys("s", 10000);
  const std::vector<std::string> hot = NumberedKeys("h", 100);
  PutTuples(single, 1);
  PutTuples(hot, 1);
  svc().SetGcWatermark(1);  // arms the index: the one whole-store pass
  EXPECT_GE(svc().gc_stats().examined, 10100u);
  EXPECT_EQ(svc().gc_tracked(), 0u);

  PutTuples(hot, 2);
  EXPECT_EQ(svc().gc_tracked(), 100u);  // one mark per overwritten key
  const StorageService::GcStats before = svc().gc_stats();
  svc().SetGcWatermark(2);
  const uint64_t examined = svc().gc_stats().examined - before.examined;
  const uint64_t retired = svc().gc_stats().retired_data - before.retired_data;
  const uint64_t groups_popped = 100;
  EXPECT_EQ(retired, 100u);
  EXPECT_LE(examined, 4 * (retired + groups_popped));
  EXPECT_LT(examined, 1000u) << "the advance re-read the store";
  EXPECT_EQ(svc().gc_tracked(), 0u);
  EXPECT_EQ(CountData(svc(), "R").versions, 10100u);
  EXPECT_EQ(RetirableLeft(svc(), 2), 0u);
}

TEST_F(StorageClusterTest, GcOffTracksNothing) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R", 4)).ok());
  for (int i = 0; i < 50; ++i) {
    UpdateBatch u;
    u["R"] = {Update::Insert(Row(StrCat({"k", std::to_string(i % 7)}), "v"))};
    ASSERT_TRUE(dep->Publish(0, std::move(u)).ok());
  }
  dep->RunFor(1 * sim::kMicrosPerSec);
  for (size_t i = 0; i < dep->size(); ++i) {
    const StorageService& svc = dep->storage(i);
    EXPECT_EQ(svc.gc_watermark(), 0u) << "node " << i;
    EXPECT_EQ(svc.gc_tracked(), 0u) << "node " << i;
    EXPECT_EQ(svc.gc_stats().examined, 0u) << "node " << i;
    EXPECT_EQ(svc.gc_stats().slices, 0u) << "node " << i;
  }
}

TEST(StorageGc, RestartReArmsTheIndexAtTheNextAdvertisement) {
  deploy::DeploymentOptions opts;
  opts.num_nodes = 4;
  opts.replication = 3;
  opts.gc_keep_epochs = 2;
  deploy::Deployment dep(opts);
  ASSERT_TRUE(dep.CreateRelation(0, SimpleRelation("R", 2)).ok());
  Epoch last = 0;
  auto publish = [&](int i) {
    UpdateBatch u;
    u["R"] = {Update::Insert(Row("hot", StrCat({"v", std::to_string(i)}))),
              Update::Insert(Row(StrCat({"k", std::to_string(i % 3)}), "v"))};
    auto e = dep.Publish(0, std::move(u));
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    last = *e;
  };
  for (int i = 0; i < 6; ++i) publish(i);
  dep.RunFor(1 * sim::kMicrosPerSec);
  net::NodeId n = 1;
  while (CountData(dep.storage(n), "R").versions == 0) ++n;  // a replica of R's rows
  ASSERT_GT(dep.storage(n).gc_tracked(), 0u);

  // While n is down, newer versions supersede the ones it holds.
  dep.KillNode(n, /*update_routing=*/true, /*rebalance=*/true);
  dep.RunFor(2 * sim::kMicrosPerSec);
  for (int i = 6; i < 10; ++i) publish(i);
  dep.RunFor(1 * sim::kMicrosPerSec);
  const uint64_t retired_before = dep.storage(n).gc_stats().retired_data;
  dep.RestartNode(n);
  EXPECT_EQ(dep.storage(n).gc_watermark(), 0u);
  EXPECT_EQ(dep.storage(n).gc_tracked(), 0u);

  // The survivors' pushes bring the newer versions (stored while nothing is
  // tracked) and the watermark; that first advertisement re-arms the index,
  // and the arming pass retires what a whole-store pass would.
  ASSERT_TRUE(dep.RunUntil([&dep] { return dep.PendingRpcCount() == 0; }));
  dep.RunFor(500 * sim::kMicrosPerMilli);
  const Epoch w = last - 2;
  ASSERT_EQ(dep.storage(n).gc_watermark(), w);
  EXPECT_GT(dep.storage(n).gc_tracked(), 0u);
  EXPECT_GT(dep.storage(n).gc_stats().retired_data, retired_before);
  EXPECT_EQ(RetirableLeft(dep.storage(n), w), 0u);
  auto at = dep.Retrieve(n, "R", w);
  ASSERT_TRUE(at.ok()) << at.status().ToString();
  EXPECT_EQ(at->size(), 4u);  // hot + k0..k2
}

// Epoch discovery: publishing via a node whose gossip counter is stale must
// not fork the epoch line — the publisher asks the cluster first (ROADMAP:
// multi-node publishing without gossip convergence).
TEST_F(StorageClusterTest, StalePublisherDiscoversCurrentEpoch) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch a;
  a["R"] = {Update::Insert(Row("a", "1"))};
  ASSERT_TRUE(dep->Publish(0, std::move(a)).ok());
  UpdateBatch b;
  b["R"] = {Update::Insert(Row("b", "2"))};
  ASSERT_TRUE(dep->Publish(0, std::move(b)).ok());

  // Node 3 heard nothing (gossip is off) — its own counter is 0.
  EXPECT_EQ(dep->publisher(3).current_epoch(), 0u);
  UpdateBatch c;
  c["R"] = {Update::Insert(Row("c", "3"))};
  auto e = dep->Publish(3, std::move(c));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*e, 3u);  // based on the discovered epoch 2, not local 0

  auto rows = dep->Retrieve(1, "R", *e);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(AsBag(*rows), (std::multiset<std::string>{"('a', '1')", "('b', '2')",
                                                      "('c', '3')"}));
  // And epoch 1's snapshot was not clobbered by the stale publisher.
  auto at1 = dep->Retrieve(1, "R", 1);
  ASSERT_TRUE(at1.ok());
  EXPECT_EQ(AsBag(*at1), (std::multiset<std::string>{"('a', '1')"}));
}

// ---------------------------------------------------------------------------
// Multi-writer epoch claims: the kClaimEpoch / kReleaseEpoch / kConfirmEpoch
// replica protocol that serializes concurrent publishers onto distinct
// epochs.

std::string ClaimBody(Epoch e, uint32_t participant, uint32_t node,
                      uint64_t nonce) {
  Writer w;
  w.PutVarint64(e);
  w.PutVarint32(participant);
  w.PutVarint32(node);
  w.PutVarint64(nonce);
  return w.Release();
}

TEST_F(StorageClusterTest, EpochClaimProtocol) {
  auto call = [&](uint16_t code, std::string body) {
    Status out = Status::Unavailable("no reply");
    std::string reply;
    bool done = false;
    dep->storage(0).Call(1, code, std::move(body),
                         [&](Status s, const std::string& b) {
                           out = s;
                           reply = b;
                           done = true;
                         });
    dep->RunUntil([&done] { return done; });
    return std::make_pair(out, reply);
  };

  // First come wins; re-claiming is idempotent for the same participant
  // (a retry's fresh attempt nonce refreshes the stored instance).
  EXPECT_TRUE(call(kClaimEpoch, ClaimBody(100, 7, 0, 1)).first.ok());
  EXPECT_TRUE(call(kClaimEpoch, ClaimBody(100, 7, 0, 2)).first.ok());

  // A different participant is refused; the reply names the stored winner
  // instance (participant, node, nonce).
  auto [taken, body] = call(kClaimEpoch, ClaimBody(100, 9, 2, 3));
  EXPECT_TRUE(taken.IsEpochTaken()) << taken.ToString();
  Reader r(body);
  uint32_t wp = 0, wn = 0;
  uint64_t wx = 0;
  ASSERT_TRUE(r.GetVarint32(&wp).ok() && r.GetVarint32(&wn).ok() &&
              r.GetVarint64(&wx).ok());
  EXPECT_EQ(wp, 7u);
  EXPECT_EQ(wx, 2u);  // the refreshed instance, not the first attempt's

  // A stale release (first attempt's nonce) must NOT unpin the newer
  // instance — that is exactly the delayed-release hazard.
  {
    Writer w;
    w.PutVarint64(100);
    w.PutVarint32(7);
    w.PutVarint64(1);
    dep->storage(0).SendOneWay(1, kReleaseEpoch, w.Release());
  }
  dep->RunFor(sim::kMicrosPerSec / 10);
  EXPECT_TRUE(call(kClaimEpoch, ClaimBody(100, 9, 2, 4)).first.IsEpochTaken());

  // An instance-exact release frees the slot for the next claimant.
  {
    Writer w;
    w.PutVarint64(100);
    w.PutVarint32(7);
    w.PutVarint64(2);
    dep->storage(0).SendOneWay(1, kReleaseEpoch, w.Release());
  }
  dep->RunFor(sim::kMicrosPerSec / 10);
  EXPECT_TRUE(call(kClaimEpoch, ClaimBody(100, 9, 2, 5)).first.ok());

  // Confirming marks the epoch committed and advances the node's discovery
  // frontier (kGetMaxEpoch reports only confirmed epochs).
  EXPECT_EQ(dep->storage(1).max_epoch_seen(), 0u);
  {
    Writer w;
    w.PutVarint64(100);
    w.PutVarint32(9);
    w.PutVarint32(2);
    w.PutVarint64(5);
    EXPECT_TRUE(call(kConfirmEpoch, w.Release()).first.ok());
  }
  EXPECT_EQ(dep->storage(1).max_epoch_seen(), 100u);

  // A committed claim is never released — the epoch is history, not a slot.
  {
    Writer w;
    w.PutVarint64(100);
    w.PutVarint32(9);
    w.PutVarint64(5);
    dep->storage(0).SendOneWay(1, kReleaseEpoch, w.Release());
  }
  dep->RunFor(sim::kMicrosPerSec / 10);
  Writer gw;
  gw.PutVarint64(100);
  auto [got, claim] = call(kGetEpochClaim, gw.Release());
  ASSERT_TRUE(got.ok());
  Reader cr(claim);
  uint32_t cp = 0, cn = 0;
  bool committed = false;
  uint64_t cx = 0;
  ASSERT_TRUE(cr.GetVarint32(&cp).ok() && cr.GetVarint32(&cn).ok() &&
              cr.GetBool(&committed).ok() && cr.GetVarint64(&cx).ok());
  EXPECT_EQ(cp, 9u);
  EXPECT_TRUE(committed);
}

// Coordinator records alone must NOT advance the discovery frontier: a torn
// publish leaves partial records, and a publisher basing on them would
// absorb uncommitted state. Only the confirm protocol moves the frontier.
TEST_F(StorageClusterTest, DiscoveryIgnoresUnconfirmedCoordinatorRecords) {
  CoordinatorRecord rec;
  rec.relation = "R";
  rec.epoch = 50;
  rec.participant = 3;
  Writer w;
  rec.EncodeTo(&w);
  bool done = false;
  Status out;
  dep->storage(0).Call(1, kPutCoordinator, w.Release(),
                       [&](Status s, const std::string&) {
                         out = s;
                         done = true;
                       });
  dep->RunUntil([&done] { return done; });
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(dep->storage(1).max_epoch_seen(), 0u)
      << "an unconfirmed coordinator record moved the discovery frontier";
}

// A relation created AFTER epochs have already committed has no coordinator
// record at the current base; the publish-path walk-back must carry its
// creation record forward instead of wedging every future publish.
TEST_F(StorageClusterTest, RelationCreatedMidStreamStaysPublishable) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  for (int i = 0; i < 4; ++i) {
    UpdateBatch u;
    u["R"] = {Update::Insert(Row(StrCat({"k", std::to_string(i)}), "v"))};
    ASSERT_TRUE(dep->Publish(0, std::move(u)).ok());
  }
  // S's first record lands at the CURRENT epoch (4); the next publish's base
  // walk must find it below the new base.
  ASSERT_TRUE(dep->CreateRelation(1, SimpleRelation("S")).ok());
  UpdateBatch s;
  s["S"] = {Update::Insert(Row("s0", "x"))};
  auto e = dep->Publish(2, std::move(s));
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  auto rows = dep->Retrieve(3, "S", *e);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(AsBag(*rows), (std::multiset<std::string>{"('s0', 'x')"}));
  // And R's carried-forward state is intact at the new epoch.
  auto r_rows = dep->Retrieve(3, "R", *e);
  ASSERT_TRUE(r_rows.ok());
  EXPECT_EQ(r_rows->size(), 4u);
}

// The commit gate: a same-epoch coordinator record from a DIFFERENT
// participant is refused with kEpochTaken (first committed writer wins);
// the same participant's byte-identical retry overwrites freely.
TEST_F(StorageClusterTest, CommitGateRefusesConflictingSameEpochRecord) {
  auto put = [&](ParticipantId p) {
    CoordinatorRecord rec;
    rec.relation = "R";
    rec.epoch = 9;
    rec.participant = p;
    Writer w;
    rec.EncodeTo(&w);
    Status out;
    bool done = false;
    dep->storage(0).Call(2, kPutCoordinator, w.Release(),
                         [&](Status s, const std::string&) {
                           out = s;
                           done = true;
                         });
    dep->RunUntil([&done] { return done; });
    return out;
  };
  EXPECT_TRUE(put(1).ok());
  EXPECT_TRUE(put(1).ok());  // same-participant retry overwrites
  Status conflict = put(2);
  EXPECT_TRUE(conflict.IsEpochTaken()) << conflict.ToString();
  EXPECT_GE(dep->storage(2).counters().coordinator_conflicts, 1u);
}

// ---------------------------------------------------------------------------
// Abandonment fencing: the kFenceEpoch / kPurgeEpoch two-phase burn at one
// claim replica. Phase one (the fence grant) installs a burn PROMISE that
// refuses claims and confirms but never deletes data; phase two (the purge,
// sent only after EVERY replica granted) carries purge authority. The
// cross-replica unanimity rules live in the publisher and are exercised
// end-to-end by churn_test's fencing sweeps.

std::string FenceBody(Epoch e, uint32_t fencer, uint32_t target,
                      uint64_t ttl_us) {
  Writer w;
  w.PutVarint64(e);
  w.PutVarint32(fencer);
  w.PutVarint32(target);
  w.PutVarint64(ttl_us);
  return w.Release();
}

std::string PurgeBody(Epoch e, uint32_t participant, uint64_t nonce) {
  Writer w;
  w.PutVarint64(e);
  w.PutVarint32(participant);
  w.PutVarint64(nonce);
  return w.Release();
}

std::string ConfirmBody(Epoch e, uint32_t participant, uint32_t node,
                        uint64_t nonce) {
  Writer w;
  w.PutVarint64(e);
  w.PutVarint32(participant);
  w.PutVarint32(node);
  w.PutVarint64(nonce);
  return w.Release();
}

// A one-page kPutPage frame carrying `page` whole.
// Data, page and coordinator versions a node stores at `epoch`.
size_t VersionsAt(StorageService& svc, Epoch epoch) {
  size_t n = 0;
  for (char tag : {keys::kDataTag, keys::kPageTag, keys::kCoordTag}) {
    for (auto it = svc.store().SeekPrefix(keys::TagPrefix(tag)); it.Valid(); it.Next()) {
      Epoch e;
      if (keys::ParseVersionEpoch(it.key(), &e) && e == epoch) ++n;
    }
  }
  return n;
}

std::string FullPageFrame(const Page& page) {
  Writer pw;
  page.EncodeTo(&pw);
  Writer frame;
  frame.PutVarint64(1);
  PageWrite::EncodeFull(pw.data(), &frame);
  return frame.Release();
}

class FencingTest : public StorageClusterTest {
 protected:
  // One round-trip RPC from node 0 to `target`.
  std::pair<Status, std::string> Rpc(net::NodeId target, uint16_t code,
                                     std::string body) {
    Status out = Status::Unavailable("no reply");
    std::string reply;
    bool done = false;
    dep->storage(0).Call(target, code, std::move(body),
                         [&](Status s, const std::string& b) {
                           out = s;
                           reply = b;
                           done = true;
                         });
    dep->RunUntil([&done] { return done; });
    return {out, reply};
  }
};

// A fence only lands once the claim has sat untouched for a full staleness
// TTL; a live-but-slow owner whose refresh beats the TTL wins the race.
TEST_F(FencingTest, FenceWaitsOutTheStalenessTtl) {
  const uint64_t ttl = 2 * sim::kMicrosPerSec;
  // The owner's claim grant stamps the freshness clock.
  ASSERT_TRUE(Rpc(1, kClaimEpoch, ClaimBody(300, 7, 0, 1)).first.ok());
  // An instant fence is refused: slow is not abandoned.
  auto fresh = Rpc(1, kFenceEpoch, FenceBody(300, 9, 7, ttl));
  EXPECT_TRUE(fresh.first.IsUnavailable()) << fresh.first.ToString();
  EXPECT_NE(fresh.first.message().find("still fresh"), std::string::npos);
  // The owner refreshes before expiry; the staleness clock resets, so a
  // fence one-and-a-half TTLs after the ORIGINAL claim still loses.
  dep->RunFor(3 * sim::kMicrosPerSec / 2);
  ASSERT_TRUE(Rpc(1, kClaimEpoch, ClaimBody(300, 7, 0, 2)).first.ok());
  dep->RunFor(3 * sim::kMicrosPerSec / 2);
  EXPECT_TRUE(
      Rpc(1, kFenceEpoch, FenceBody(300, 9, 7, ttl)).first.IsUnavailable());
  // One full TTL with no refresh: abandonment is provable; the grant names
  // the exact retired instance (participant, node, nonce).
  dep->RunFor(2 * ttl);
  auto [granted, inst] = Rpc(1, kFenceEpoch, FenceBody(300, 9, 7, ttl));
  ASSERT_TRUE(granted.ok()) << granted.ToString();
  Reader r(inst);
  uint32_t fp = 0, fn = 0;
  uint64_t fx = 0;
  ASSERT_TRUE(r.GetVarint32(&fp).ok() && r.GetVarint32(&fn).ok() &&
              r.GetVarint64(&fx).ok());
  EXPECT_EQ(fp, 7u);
  EXPECT_EQ(fx, 2u);  // the refreshed instance, not the first attempt's
  EXPECT_GE(dep->storage(1).counters().fences_granted, 1u);
  EXPECT_GE(dep->storage(1).counters().fences_refused, 2u);
}

// A claim record that arrived WITHOUT a grant (replica push, rebalance) has
// no freshness evidence; the first fence attempt seeds the clock and
// refuses, giving a live owner one full TTL of grace to heartbeat it.
TEST_F(FencingTest, FenceSeedsGraceForClaimsOfUnknownFreshness) {
  EpochClaimRecord rec;
  rec.participant = 7;
  rec.node = 0;
  rec.nonce = 4;
  Writer w;
  rec.EncodeTo(&w);
  ASSERT_TRUE(dep->storage(1).store().Put(keys::EpochClaim(77), w.data()).ok());
  const uint64_t ttl = sim::kMicrosPerSec;
  auto seeded = Rpc(1, kFenceEpoch, FenceBody(77, 9, 7, ttl));
  EXPECT_TRUE(seeded.first.IsUnavailable()) << seeded.first.ToString();
  EXPECT_NE(seeded.first.message().find("unknown freshness"),
            std::string::npos);
  // Within the grace window the claim counts as fresh...
  dep->RunFor(ttl / 2);
  EXPECT_TRUE(
      Rpc(1, kFenceEpoch, FenceBody(77, 9, 7, ttl)).first.IsUnavailable());
  // ...after it, the fence lands.
  dep->RunFor(ttl);
  EXPECT_TRUE(Rpc(1, kFenceEpoch, FenceBody(77, 9, 7, ttl)).first.ok());
}

// Phase separation: a fence GRANT is a promise (refuses claims as a taken
// slot and confirms retryably, deletes nothing); only the purge broadcast
// after unanimity hardens it into an authoritative burn (kFenced for
// everyone, owner included).
TEST_F(FencingTest, FenceGrantIsAPromiseUntilPurged) {
  const uint64_t ttl = sim::kMicrosPerSec;
  ASSERT_TRUE(Rpc(1, kClaimEpoch, ClaimBody(100, 7, 0, 1)).first.ok());
  dep->RunFor(2 * ttl);
  ASSERT_TRUE(Rpc(1, kFenceEpoch, FenceBody(100, 9, 7, ttl)).first.ok());
  // The promise refuses every claimant — owner included — as a TAKEN slot,
  // not a burned one: the fence round may still fail elsewhere, so nobody
  // may skip past an epoch that could yet commit.
  auto contender = Rpc(1, kClaimEpoch, ClaimBody(100, 9, 2, 5));
  EXPECT_TRUE(contender.first.IsEpochTaken()) << contender.first.ToString();
  EXPECT_NE(contender.first.message().find("burn-promised"),
            std::string::npos);
  EXPECT_TRUE(Rpc(1, kClaimEpoch, ClaimBody(100, 7, 0, 6)).first.IsEpochTaken());
  // The owner's confirm is refused RETRYABLY (unanimity unknown — the epoch
  // may heal to committed through another replica), not terminally.
  auto confirm = Rpc(1, kConfirmEpoch, ConfirmBody(100, 7, 0, 1));
  EXPECT_TRUE(confirm.first.IsUnavailable()) << confirm.first.ToString();
  EXPECT_NE(confirm.first.message().find("burn-promised"), std::string::npos);
  EXPECT_GE(dep->storage(1).counters().fenced_writes_refused, 1u);
  // Phase two: the fencer reached unanimity and broadcasts purge authority.
  dep->storage(0).SendOneWay(1, kPurgeEpoch, PurgeBody(100, 7, 1));
  dep->RunFor(sim::kMicrosPerSec / 10);
  auto burned = Rpc(1, kClaimEpoch, ClaimBody(100, 9, 2, 7));
  EXPECT_TRUE(burned.first.IsFenced()) << burned.first.ToString();
  EXPECT_TRUE(
      Rpc(1, kConfirmEpoch, ConfirmBody(100, 7, 0, 1)).first.IsFenced());
  // The stored record carries the hardened burn durably.
  auto [got, bytes] = Rpc(1, kGetEpochClaim, [] {
    Writer gw;
    gw.PutVarint64(100);
    return gw.Release();
  }());
  ASSERT_TRUE(got.ok());
  Reader cr(bytes);
  EpochClaimRecord stored;
  ASSERT_TRUE(EpochClaimRecord::DecodeFrom(&cr, &stored).ok());
  EXPECT_EQ(stored.state, ClaimState::kPurged);
  EXPECT_EQ(stored.participant, 7u);
}

// The purge atomically retires a torn publish's discovery state: orphan
// coordinator and page records vanish together, so reads at the burned
// epoch get a clean definitive NotFound — never a half-discovered mix — and the fenced
// instance's late writes are refused everywhere afterwards.
TEST_F(FencingTest, PurgeHealsTornDiscoveryStateAtomically) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R", 4)).ok());
  UpdateBatch e1;
  e1["R"] = {Update::Insert(Row("a", "1"))};
  ASSERT_TRUE(dep->Publish(0, std::move(e1)).ok());
  UpdateBatch e2;
  e2["R"] = {Update::Insert(Row("b", "2"))};
  ASSERT_TRUE(dep->Publish(0, std::move(e2)).ok());

  // Forge a torn publish at epoch 3: claim, page, and coordinator landed;
  // the tuple writes and the confirm did not (the writer died mid-flight).
  Schema schema = SimpleRelation("R", 4).schema;
  Tuple orphan_row = Row("c", "3");
  std::string key_bytes = EncodeTupleKey(schema, orphan_row);
  HashId h = TupleKeyHash(key_bytes);
  uint32_t part = PartitionIndexFor(h, 4);
  Page pg;
  pg.desc.id = PageId{"R", 3, part};
  pg.desc.num_partitions = 4;
  pg.ids = {TupleId{key_bytes, 3}};
  pg.hashes = {h};
  const std::string pw = FullPageFrame(pg);
  CoordinatorRecord crec;
  crec.relation = "R";
  crec.epoch = 3;
  crec.participant = 7;
  crec.pages = {pg.desc};
  Writer cw;
  crec.EncodeTo(&cw);
  for (size_t n = 0; n < dep->size(); ++n) {
    auto id = static_cast<net::NodeId>(n);
    ASSERT_TRUE(Rpc(id, kClaimEpoch, ClaimBody(3, 7, 3, 9)).first.ok());
    ASSERT_TRUE(Rpc(id, kPutPage, pw).first.ok());
    ASSERT_TRUE(Rpc(id, kPutCoordinator, cw.data()).first.ok());
  }
  // The torn chain IS visible to discovery: epoch-3 reads walk the orphan
  // coordinator into a page whose tuples were never written.
  auto torn = dep->Retrieve(1, "R", 3);
  EXPECT_FALSE(torn.ok()) << "torn epoch-3 chain served a complete answer";

  // Retire it: fence every replica past the TTL, then broadcast the purge —
  // exactly the fencer's two-phase sequence.
  const uint64_t ttl = sim::kMicrosPerSec;
  dep->RunFor(2 * ttl);
  for (size_t n = 0; n < dep->size(); ++n) {
    auto id = static_cast<net::NodeId>(n);
    ASSERT_TRUE(Rpc(id, kFenceEpoch, FenceBody(3, 9, 7, ttl)).first.ok());
  }
  for (size_t n = 0; n < dep->size(); ++n) {
    dep->storage(0).SendOneWay(static_cast<net::NodeId>(n), kPurgeEpoch,
                               PurgeBody(3, 7, 9));
  }
  dep->RunFor(sim::kMicrosPerSec / 5);

  // Healed atomically: the torn chain is gone end-to-end, so discovery at
  // the burned epoch is a clean NotFound (Retrieve has no walk-back; a
  // definitive miss is what the publisher's walk-back keys on), while the
  // committed epoch-2 chain still serves its full bag.
  auto at3 = dep->Retrieve(1, "R", 3);
  EXPECT_TRUE(at3.status().IsNotFound()) << at3.status().ToString();
  auto at2 = dep->Retrieve(1, "R", 2);
  ASSERT_TRUE(at2.ok()) << at2.status().ToString();
  EXPECT_EQ(AsBag(*at2), AsBag({Row("a", "1"), Row("b", "2")}));
  // No node keeps a data, page or coordinator version at the purged epoch.
  for (size_t n = 0; n < dep->size(); ++n) {
    EXPECT_EQ(VersionsAt(dep->storage(n), 3), 0u) << "node " << n;
  }

  // The fenced instance's late same-epoch writes are refused everywhere.
  EXPECT_TRUE(Rpc(1, kPutPage, pw).first.IsFenced());
  EXPECT_TRUE(Rpc(1, kPutCoordinator, cw.data()).first.IsFenced());
  Writer tw;
  tw.PutVarint64(1);  // one relation
  tw.PutString("R");
  tw.PutVarint64(1);  // one tuple
  std::string hash_be;
  h.AppendBigEndian(&hash_be);
  tw.PutRaw(hash_be.data(), hash_be.size());
  tw.PutString(key_bytes);
  tw.PutVarint64(3);
  Writer vw;
  EncodeTuple(orphan_row, &vw);
  tw.PutString(vw.data());
  EXPECT_TRUE(Rpc(1, kPutTuples, tw.Release()).first.IsFenced());
  EXPECT_TRUE(
      Rpc(1, kConfirmEpoch, ConfirmBody(3, 7, 3, 9)).first.IsFenced());
  EXPECT_GE(dep->storage(1).counters().fenced_writes_refused, 4u);
}

// ---------------------------------------------------------------------------
// Reply contract (docs/WIRE_FORMATS.md "Request/reply envelope"): every
// request gets exactly one reply.

class ReplyContractTest : public FencingTest {};

// A truncated body is answered with Corruption in one round trip, not with
// silence that leaves the caller waiting out the RPC deadline; a code with
// no handler (the retired 7, an unassigned one) with NotSupported.
TEST_F(ReplyContractTest, EveryRequestIsAnsweredOnce) {
  auto count_only = [] {  // a frame cut short after its leading count
    Writer w;
    w.PutVarint64(1);
    return w.Release();
  };
  // kGetMaxEpoch is missing: its body is empty, so it cannot be cut short.
  const std::vector<std::pair<uint16_t, std::string>> truncated = {
      {kCatalogAdd, ""},     {kPutTuples, ""},      {kPutTuples, count_only()},
      {kPutPage, ""},        {kPutPage, count_only()}, {kPutCoordinator, ""},
      {kGetCoordinator, ""}, {kGetPage, ""},        {kGetTuple, ""},
      {kScanPage, ""},       {kReplicaPush, ""},    {kReplicaPush, count_only()},
      {kClaimEpoch, ""},     {kGetEpochClaim, ""},  {kConfirmEpoch, ""},
      {kFenceEpoch, ""},
  };
  for (const auto& [code, body] : truncated) {
    const sim::SimTime sent = dep->sim().now();
    Status st = Rpc(1, code, body).first;
    EXPECT_TRUE(st.IsCorruption()) << "code " << code << ": " << st.ToString();
    EXPECT_LT(dep->sim().now() - sent, sim::kMicrosPerSec) << "code " << code;
  }
  for (uint16_t code : {uint16_t{7}, uint16_t{99}}) {
    Status st = Rpc(1, code, "").first;
    EXPECT_EQ(st.code(), Status::Code::kNotSupported)
        << "code " << code << ": " << st.ToString();
  }
}

// ---------------------------------------------------------------------------
// Page-write frames: delta page versions, full-page fallback, write-time
// retirement, and publisher page reuse.

class PageWriteTest : public FencingTest {
 protected:
  // A page of R, partition `part` of 4, at `epoch`, listing `rows` (key ->
  // version epoch) in page order.
  static Page MakePage(uint32_t part, Epoch epoch,
                       const std::map<std::string, Epoch>& rows) {
    Page page;
    page.desc.id = PageId{"R", epoch, part};
    page.desc.num_partitions = 4;
    std::vector<std::pair<HashId, std::string>> order;
    for (const auto& [key, e] : rows) order.emplace_back(TupleKeyHash(key), key);
    std::sort(order.begin(), order.end());
    for (const auto& [h, key] : order) {
      page.ids.push_back(TupleId{key, rows.at(key)});
      page.hashes.push_back(h);
    }
    return page;
  }
  static std::string Encoded(const Page& page) {
    Writer w;
    page.EncodeTo(&w);
    return w.Release();
  }
  // A one-page frame carrying `next` as a delta against `base`.
  static std::string DeltaFrame(const Page& base, const Page& next,
                                uint32_t crc_xor = 0) {
    Writer frame;
    frame.PutVarint64(1);
    PageWrite::EncodeDelta(base, next, PageCrc(Encoded(next)) ^ crc_xor, &frame);
    return frame.Release();
  }
  // Frame indices the node refused as deltas (from a kPutPage reply).
  static std::vector<uint64_t> Refused(const std::string& reply) {
    Reader r(reply);
    uint64_t n = 0;
    EXPECT_TRUE(r.GetVarint64(&n).ok());
    std::vector<uint64_t> out(n);
    for (uint64_t& i : out) EXPECT_TRUE(r.GetVarint64(&i).ok());
    return out;
  }
  Result<std::string> Stored(net::NodeId n, const PageId& id) {
    return dep->storage(n).store().Get(keys::PageRec(id.relation, id.epoch, id.partition));
  }
  Page Base() { return MakePage(1, 2, {{"a", 1}, {"b", 1}, {"c", 1}, {"d", 2}}); }
  // Overwrites b, deletes c, inserts e.
  Page Next() { return MakePage(1, 5, {{"a", 1}, {"b", 5}, {"d", 2}, {"e", 5}}); }
};

TEST_F(PageWriteTest, DeltaStoresExactlyTheFullEncoding) {
  const Page base = Base(), next = Next();
  ASSERT_TRUE(Rpc(1, kPutPage, FullPageFrame(base)).first.ok());
  auto [s, reply] = Rpc(1, kPutPage, DeltaFrame(base, next));
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(Refused(reply).empty());
  auto stored = Stored(1, next.desc.id);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*stored, Encoded(next));
  EXPECT_EQ(dep->storage(1).counters().page_delta_fallbacks, 0u);
  EXPECT_EQ(dep->storage(1).counters().pages_stored, 2u);
}

TEST_F(PageWriteTest, MissingBaseIsRefusedThenTheFullResendStoresTheSameBytes) {
  const Page base = Base(), next = Next();
  auto [s, reply] = Rpc(1, kPutPage, DeltaFrame(base, next));
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(Refused(reply), std::vector<uint64_t>{0});
  EXPECT_EQ(dep->storage(1).counters().page_delta_fallbacks, 1u);
  EXPECT_TRUE(Stored(1, next.desc.id).status().IsNotFound());
  auto [s2, reply2] = Rpc(1, kPutPage, FullPageFrame(next));
  ASSERT_TRUE(s2.ok()) << s2.ToString();
  EXPECT_TRUE(Refused(reply2).empty());
  auto stored = Stored(1, next.desc.id);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*stored, Encoded(next));
}

TEST_F(PageWriteTest, PublisherResendsWholeToAReplicaMissingTheBase) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R", 4)).ok());
  UpdateBatch e1;
  e1["R"] = {Update::Insert(Row("a", "1")), Update::Insert(Row("b", "1"))};
  ASSERT_TRUE(dep->Publish(0, std::move(e1)).ok());
  // One replica of a's page loses its base version.
  HashId h = TupleKeyHash(EncodeTupleKey(SimpleRelation("R", 4).schema, Row("a", "1")));
  const uint32_t part = PartitionIndexFor(h, 4);
  auto replicas =
      dep->storage(0).snapshot().ReplicasOf(PartitionHome(part, 4), dep->storage(0).replication());
  ASSERT_EQ(replicas.size(), 3u);
  ASSERT_TRUE(dep->storage(replicas[0]).store().Delete(keys::PageRec("R", 1, part)).ok());

  UpdateBatch e2;
  e2["R"] = {Update::Insert(Row("a", "2"))};
  auto e = dep->Publish(0, std::move(e2));
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(dep->storage(replicas[0]).counters().page_delta_fallbacks, 1u);
  auto want = Stored(replicas[1], PageId{"R", *e, part});
  ASSERT_TRUE(want.ok());
  for (net::NodeId n : replicas) {
    auto got = Stored(n, PageId{"R", *e, part});
    ASSERT_TRUE(got.ok()) << "node " << n;
    EXPECT_EQ(*got, *want) << "node " << n;
  }
  auto rows = dep->Retrieve(1, "R", *e);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(AsBag(*rows), AsBag({Row("a", "2"), Row("b", "1")}));
}

TEST_F(PageWriteTest, ForgedCrcIsRefusedAndNothingStored) {
  const Page base = Base(), next = Next();
  ASSERT_TRUE(Rpc(1, kPutPage, FullPageFrame(base)).first.ok());
  auto [s, reply] = Rpc(1, kPutPage, DeltaFrame(base, next, /*crc_xor=*/1));
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(Refused(reply), std::vector<uint64_t>{0});
  EXPECT_EQ(dep->storage(1).counters().page_delta_fallbacks, 1u);
  EXPECT_TRUE(Stored(1, next.desc.id).status().IsNotFound());
  EXPECT_EQ(dep->storage(1).counters().pages_stored, 1u);
}

TEST_F(PageWriteTest, DeltaAtAFencedEpochIsRefused) {
  const Page base = Base(), next = Next();
  ASSERT_TRUE(Rpc(1, kPutPage, FullPageFrame(base)).first.ok());
  dep->storage(0).SendOneWay(1, kPurgeEpoch, PurgeBody(next.desc.id.epoch, 7, 9));
  dep->RunFor(sim::kMicrosPerSec / 5);
  ASSERT_TRUE(dep->storage(1).IsEpochFenced(next.desc.id.epoch));
  EXPECT_TRUE(Rpc(1, kPutPage, DeltaFrame(base, next)).first.IsFenced());
  EXPECT_TRUE(Stored(1, next.desc.id).status().IsNotFound());
  EXPECT_EQ(dep->storage(1).counters().fenced_writes_refused, 1u);
  EXPECT_EQ(dep->storage(1).counters().page_delta_fallbacks, 0u);
  EXPECT_TRUE(Stored(1, base.desc.id).ok());
}

TEST_F(PageWriteTest, FencedOrTornSupersedingVersionNeverRetiresItsBase) {
  StorageService& svc = dep->storage(1);
  svc.SetGcWatermark(10);
  auto put = [&](uint32_t part, Epoch e) {
    return Rpc(1, kPutPage, FullPageFrame(MakePage(part, e, {{"k", e}}))).first;
  };
  auto present = [&](uint32_t part, Epoch e) {
    return Stored(1, PageId{"R", e, part}).ok();
  };
  // Write-time retirement does run: a write above the watermark retires the
  // versions its partition's newest at-or-below version supersedes.
  ASSERT_TRUE(put(0, 3).ok());
  ASSERT_TRUE(put(0, 5).ok());
  ASSERT_TRUE(put(0, 15).ok());
  EXPECT_FALSE(present(0, 3));
  EXPECT_TRUE(present(0, 5));
  EXPECT_TRUE(present(0, 15));
  EXPECT_EQ(svc.gc_stats().retired_pages, 1u);

  // Torn versions (written, never committed) above or at-or-below the
  // watermark: the write itself never retires the base.
  ASSERT_TRUE(put(1, 4).ok());
  ASSERT_TRUE(put(1, 12).ok());
  ASSERT_TRUE(put(1, 7).ok());
  EXPECT_TRUE(present(1, 4));

  // Fenced: a write at a burned epoch is refused, and a burned version a
  // stale push resurrected below the watermark is doomed, never the survivor.
  ASSERT_TRUE(put(2, 4).ok());
  dep->storage(0).SendOneWay(1, kPurgeEpoch, PurgeBody(8, 7, 9));
  dep->storage(0).SendOneWay(1, kPurgeEpoch, PurgeBody(20, 7, 9));
  dep->RunFor(sim::kMicrosPerSec / 5);
  EXPECT_TRUE(put(2, 20).IsFenced());
  ASSERT_TRUE(svc.store().Put(keys::PageRec("R", 8, 2), Encoded(MakePage(2, 8, {{"k", 8}}))).ok());
  ASSERT_TRUE(put(2, 16).ok());
  EXPECT_TRUE(present(2, 4));
  EXPECT_FALSE(present(2, 8));
  EXPECT_FALSE(present(2, 20));
}

// Every stored key belongs to a family RebalanceTo places; it skips any
// other tag, so a record outside them would never be re-replicated. The
// census runs after every path that writes or deletes stored records.
TEST_F(PageWriteTest, EveryStoredKeyIsInAFamilyRebalancePlaces) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R", 4)).ok());
  for (int i = 0; i < 3; ++i) {
    UpdateBatch b;
    b["R"] = {Update::Insert(Row(StrCat({"k", std::to_string(i)}), "v")),
              Update::Insert(Row("a", std::to_string(i)))};
    ASSERT_TRUE(dep->Publish(0, std::move(b)).ok());
  }
  // A delta page write, then a fence purge of its epoch on every node.
  const Page base = MakePage(1, 10, {{"a", 1}, {"b", 1}});
  const Page next = MakePage(1, 11, {{"a", 1}, {"c", 11}});
  ASSERT_TRUE(Rpc(1, kPutPage, FullPageFrame(base)).first.ok());
  auto [s, reply] = Rpc(1, kPutPage, DeltaFrame(base, next));
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(Refused(reply).empty());
  ASSERT_TRUE(Stored(1, next.desc.id).ok());
  for (size_t n = 0; n < dep->size(); ++n) {
    dep->storage(0).SendOneWay(static_cast<net::NodeId>(n), kPurgeEpoch,
                               PurgeBody(11, 7, 9));
  }
  dep->RunFor(sim::kMicrosPerSec / 5);
  for (size_t n = 0; n < dep->size(); ++n) dep->storage(n).SetGcWatermark(2);
  const net::NodeId fresh = dep->AddNode();  // every node runs RebalanceTo
  dep->RunFor(10 * sim::kMicrosPerSec);
  EXPECT_GT(dep->storage(fresh).store().entry_count(), 0u);

  const std::string placed = {keys::kDataTag, keys::kPageTag, keys::kCoordTag,
                              keys::kCatalogTag, keys::kClaimTag};
  for (size_t n = 0; n < dep->size(); ++n) {
    EXPECT_EQ(VersionsAt(dep->storage(n), 11), 0u) << "node " << n;
    for (auto it = dep->storage(n).store().Seek(""); it.Valid(); it.Next()) {
      EXPECT_NE(placed.find(keys::Tag(it.key())), std::string::npos)
          << "node " << n << " stores a key of family '" << keys::Tag(it.key())
          << "', outside the five RebalanceTo places";
    }
  }
}

TEST_F(PageWriteTest, PublisherReusesOnlyItsOwnExactCommittedPage) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R", 4)).ok());
  auto publish = [&](size_t via, const std::string& v) {
    UpdateBatch b;
    b["R"] = {Update::Insert(Row("a", v))};
    return dep->Publish(via, std::move(b));
  };
  const Publisher::PipelineStats& p0 = dep->publisher(0).pipeline_stats();
  ASSERT_TRUE(publish(0, "1").ok());  // new partition: no base at all
  EXPECT_EQ(p0.page_fetches, 0u);
  EXPECT_EQ(p0.page_reuses, 0u);
  ASSERT_TRUE(publish(0, "2").ok());  // base = the page publisher 0 committed
  EXPECT_EQ(p0.page_fetches, 0u);
  EXPECT_EQ(p0.page_reuses, 1u);
  ASSERT_TRUE(publish(1, "3").ok());  // another publisher fetches
  EXPECT_EQ(dep->publisher(1).pipeline_stats().page_fetches, 1u);
  EXPECT_EQ(dep->publisher(1).pipeline_stats().page_reuses, 0u);
  // Publisher 0's kept version is no longer the base: fetched, not reused.
  auto e4 = publish(0, "4");
  ASSERT_TRUE(e4.ok());
  EXPECT_EQ(p0.page_fetches, 1u);
  EXPECT_EQ(p0.page_reuses, 1u);
  for (Epoch e = 1; e <= *e4; ++e) {
    auto rows = dep->Retrieve(2, "R", e);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(AsBag(*rows), AsBag({Row("a", std::to_string(e))}));
  }
}

// ---------------------------------------------------------------------------
// Retrieve scan frames: one kScanPage frame per index node, per-page failover

class ScanFrameTest : public ::testing::Test {
 protected:
  void Start(size_t nodes, uint32_t partitions) {
    deploy::DeploymentOptions opts;
    opts.num_nodes = nodes;
    opts.replication = 3;
    dep = std::make_unique<deploy::Deployment>(opts);
    def = SimpleRelation("R", partitions);
    ASSERT_TRUE(dep->CreateRelation(0, def).ok());
  }
  // Publishes one row per kept key of k000..k399; returns the epoch.
  Epoch PublishRows(const std::function<bool(const std::string&)>& keep =
                        [](const std::string&) { return true; }) {
    UpdateBatch batch;
    for (int i = 0; i < 400; ++i) {
      std::string k = StrCat({"k", i < 10 ? "00" : i < 100 ? "0" : "",
                              std::to_string(i)});
      if (!keep(k)) continue;
      Tuple t = Row(k, StrCat({"v", std::to_string(i)}));
      expect.insert(TupleToString(t));
      batch["R"].push_back(Update::Insert(std::move(t)));
    }
    auto e = dep->Publish(0, std::move(batch));
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return e.ok() ? *e : 0;
  }
  HashId KeyHash(const std::string& k) const {
    return PlacementHash(def, EncodeTupleKey(def.schema, Row(k, "")));
  }
  std::vector<net::NodeId> PageReplicas(uint32_t part) const {
    return dep->snapshot().ReplicasOf(PartitionHome(part, def.num_partitions), 3);
  }
  std::vector<PageDescriptor> Pages(Epoch e) {
    std::vector<PageDescriptor> pages;
    bool done = false;
    dep->storage(0).GetCoordinator("R", e, [&](Status st, CoordinatorRecord rec) {
      EXPECT_TRUE(st.ok()) << st.ToString();
      pages = rec.pages;
      done = true;
    });
    dep->RunUntil([&done] { return done; });
    return pages;
  }
  uint64_t Sum(uint64_t StorageService::Counters::*field) {
    uint64_t total = 0;
    for (size_t i = 0; i < dep->size(); ++i) total += dep->storage(i).counters().*field;
    return total;
  }
  void ExpectNoScansLeft() {
    for (size_t i = 0; i < dep->size(); ++i) {
      EXPECT_EQ(dep->storage(i).active_scan_count(), 0u) << "node " << i;
    }
  }

  std::unique_ptr<deploy::Deployment> dep;
  RelationDef def;
  std::multiset<std::string> expect;
};

TEST_F(ScanFrameTest, RetrieveCostsAtMostOneFramePerIndexNode) {
  Start(8, 64);
  const Epoch e = PublishRows();
  const size_t pages = Pages(e).size();
  ASSERT_EQ(pages, 64u);

  uint64_t frames = Sum(&StorageService::Counters::scan_frames_served);
  uint64_t served = Sum(&StorageService::Counters::scans_served);
  auto rows = dep->Retrieve(1, "R", e);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(AsBag(*rows), expect);
  EXPECT_LE(Sum(&StorageService::Counters::scan_frames_served) - frames, 8u);
  EXPECT_EQ(Sum(&StorageService::Counters::scans_served) - served, pages);

  KeyFilter filter;
  filter.all = false;
  filter.lo = EncodeTupleKey(def.schema, Row("k100", ""));
  filter.hi = EncodeTupleKey(def.schema, Row("k199", ""));
  std::multiset<std::string> in_range;
  for (int i = 100; i < 200; ++i) {
    in_range.insert(TupleToString(
        Row(StrCat({"k", std::to_string(i)}), StrCat({"v", std::to_string(i)}))));
  }
  frames = Sum(&StorageService::Counters::scan_frames_served);
  rows = dep->Retrieve(2, "R", e, filter);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(AsBag(*rows), in_range);
  EXPECT_LE(Sum(&StorageService::Counters::scan_frames_served) - frames, 8u);
  ExpectNoScansLeft();
}

// A replica that lacks one page refuses just that page; its next replica
// serves it and every other page stays with its first replica.
TEST_F(ScanFrameTest, MissingPageFailsOverAloneToItsNextReplica) {
  Start(8, 64);
  const Epoch e = PublishRows();
  const std::vector<PageDescriptor> pages = Pages(e);
  const uint32_t lost = pages[5].id.partition;
  const std::vector<net::NodeId> lost_at = PageReplicas(lost);
  ASSERT_TRUE(dep->storage(lost_at[0]).store().Delete(keys::PageRec("R", e, lost)).ok());

  // Pages each node should scan: its first-replica pages, with the lost page
  // moved from its first replica to its second.
  std::vector<uint64_t> want(dep->size(), 0);
  std::set<net::NodeId> first_replicas;
  for (const PageDescriptor& d : pages) {
    net::NodeId n = PageReplicas(d.id.partition)[0];
    first_replicas.insert(n);
    ++want[n];
  }
  --want[lost_at[0]];
  ++want[lost_at[1]];
  std::vector<uint64_t> before(dep->size());
  for (size_t i = 0; i < dep->size(); ++i) before[i] = dep->storage(i).counters().scans_served;
  const uint64_t frames = Sum(&StorageService::Counters::scan_frames_served);

  auto rows = dep->Retrieve(1, "R", e);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(AsBag(*rows), expect);
  for (size_t i = 0; i < dep->size(); ++i) {
    EXPECT_EQ(dep->storage(i).counters().scans_served - before[i], want[i]) << "node " << i;
  }
  EXPECT_EQ(Sum(&StorageService::Counters::scan_frames_served) - frames,
            first_replicas.size() + 1);
  ExpectNoScansLeft();
}

// A dead first replica fails its whole frame over to each page's second
// replica. Node ranges (6 nodes) and partitions (8) do not align, so the
// victim can be the first index replica of pages whose rows all live on
// other nodes: the data legs stay reachable without a routing update.
TEST_F(ScanFrameTest, DeadFirstReplicaFailsOverTheWholeFrame) {
  Start(6, 8);
  const net::NodeId victim = PageReplicas(1)[0];
  const Epoch e = PublishRows([&](const std::string& k) {
    return dep->snapshot().OwnerOf(KeyHash(k)) != victim;
  });
  ASSERT_FALSE(expect.empty());
  size_t victim_pages = 0;
  for (const PageDescriptor& d : Pages(e)) {
    if (PageReplicas(d.id.partition)[0] == victim) ++victim_pages;
  }
  ASSERT_GE(victim_pages, 2u);

  dep->KillNode(victim, /*update_routing=*/false);
  const net::NodeId via = victim == 1 ? 2 : 1;
  const uint64_t served = Sum(&StorageService::Counters::scans_served);
  auto rows = dep->Retrieve(via, "R", e);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(AsBag(*rows), expect);
  EXPECT_EQ(Sum(&StorageService::Counters::scans_served) - served, Pages(e).size());
  ExpectNoScansLeft();
}

// A frame that times out fails over to the next replica, but its index node
// may already have sent the data legs. Parts of the abandoned attempt —
// early ones already received and late ones still in flight — never count
// toward the retry: the Retrieve returns each published row exactly once.
TEST_F(ScanFrameTest, TimedOutFrameLatePartsNeverCountTowardItsRetry) {
  Start(8, 1);
  const Epoch e = PublishRows();
  const std::vector<net::NodeId> index = PageReplicas(0);
  const net::NodeId x = index[0], y = index[1];
  net::NodeId req = 0;
  while (req == x || req == y) ++req;
  std::set<net::NodeId> owners;
  for (int i = 0; i < 400; ++i) {
    owners.insert(dep->snapshot().OwnerOf(
        KeyHash(StrCat({"k", i < 10 ? "00" : i < 100 ? "0" : "", std::to_string(i)}))));
  }
  net::NodeId a = 0;
  while (a == req || a == x || a == y || owners.count(a) == 0) ++a;
  ASSERT_LT(a, dep->size());

  // x's frame reply and its own data leg are lost, so the frame times out
  // at the 60 s RPC deadline after every other owner but a — which hangs —
  // sent its part for it.
  net::Network& net = dep->network();
  net.SetDropOverride(x, req, 1.0);
  net.HangNode(a);
  bool done = false;
  Status st;
  std::vector<Tuple> rows;
  dep->storage(req).Retrieve("R", e, KeyFilter{}, [&](Status s, std::vector<Tuple> r) {
    st = s;
    rows = std::move(r);
    done = true;
  });
  dep->RunFor(30 * sim::kMicrosPerSec);
  ASSERT_FALSE(done);
  net.ClearDropOverride(x, req);
  // The retry on y collects every owner's part but a's. When a recovers it
  // serves both fetches: the first attempt's part is late and must be
  // dropped, the retry's completes the Retrieve.
  dep->RunFor(35 * sim::kMicrosPerSec);
  ASSERT_FALSE(done) << "resolved before a's part for the retry arrived";
  net.UnhangNode(a);
  ASSERT_TRUE(dep->RunUntil([&done] { return done; }));
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(AsBag(rows), expect);
  ExpectNoScansLeft();
}

// A page no replica holds resolves the Retrieve Unavailable as soon as the
// last replica refuses it, not at the whole-scan deadline.
TEST_F(ScanFrameTest, PageMissingEverywhereFailsFast) {
  Start(8, 64);
  const Epoch e = PublishRows();
  const uint32_t lost = Pages(e)[9].id.partition;
  for (net::NodeId n : PageReplicas(lost)) {
    ASSERT_TRUE(dep->storage(n).store().Delete(keys::PageRec("R", e, lost)).ok());
  }
  const sim::SimTime t0 = dep->sim().now();
  auto rows = dep->Retrieve(1, "R", e);
  EXPECT_TRUE(rows.status().IsUnavailable()) << rows.status().ToString();
  EXPECT_LT(dep->sim().now() - t0, sim::kMicrosPerSec);
  ExpectNoScansLeft();
}

}  // namespace
}  // namespace orchestra::storage
