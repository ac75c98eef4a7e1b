#include <gtest/gtest.h>

#include "cdss/cdss.h"
#include "deploy/deployment.h"

namespace orchestra::cdss {
namespace {

using storage::Tuple;
using storage::Value;
using storage::ValueType;

class CdssTest : public ::testing::Test {
 protected:
  CdssTest() {
    deploy::DeploymentOptions opts;
    opts.num_nodes = 4;
    dep = std::make_unique<deploy::Deployment>(opts);
    // Two participants with different trust priorities on different nodes.
    alice = std::make_unique<Participant>(dep.get(), 0, "alice", /*priority=*/1);
    bob = std::make_unique<Participant>(dep.get(), 1, "bob", /*priority=*/2);

    // Shared relation: gene annotations keyed by gene id, plus origin cols.
    shared = SharedRelation("gene_ann",
                            {{"gene", ValueType::kString},
                             {"function", ValueType::kString}},
                            1);
    EXPECT_TRUE(alice->CreateSharedRelation(shared).ok());

    // Both participants keep a local relation with the same shape.
    storage::RelationDef local;
    local.name = "my_genes";
    local.schema = storage::Schema(
        {{"gene", ValueType::kString}, {"function", ValueType::kString}}, 1);
    alice->CreateLocalRelation(local);
    bob->CreateLocalRelation(local);
    alice->BindLocalToShared("my_genes", "gene_ann");
    bob->BindLocalToShared("my_genes", "gene_ann");

    SchemaMapping m;
    m.name = "import-genes";
    m.target_relation = "my_genes";
    m.sql = "SELECT gene, function, origin, origin_priority FROM gene_ann";
    alice->AddMapping(m);
    bob->AddMapping(m);
  }

  std::unique_ptr<deploy::Deployment> dep;
  std::unique_ptr<Participant> alice, bob;
  storage::RelationDef shared;
};

TEST_F(CdssTest, LocalEditsAccumulateInLog) {
  alice->LocalInsert("my_genes", {Value("BRCA1"), Value("dna repair")});
  alice->LocalInsert("my_genes", {Value("TP53"), Value("tumor suppressor")});
  EXPECT_EQ(alice->pending_updates(), 2u);
  auto rows = alice->LocalScan("my_genes");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(CdssTest, PublishThenImportPropagates) {
  alice->LocalInsert("my_genes", {Value("BRCA1"), Value("dna repair")});
  auto epoch = alice->Publish();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(alice->pending_updates(), 0u);  // log cleared on publish

  auto report = bob->Import();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->tuples_imported, 1u);
  auto rows = bob->LocalScan("my_genes");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(std::string("BRCA1")));
  EXPECT_EQ(rows[0][1], Value(std::string("dna repair")));
}

TEST_F(CdssTest, OwnDataDoesNotRoundTrip) {
  alice->LocalInsert("my_genes", {Value("BRCA1"), Value("dna repair")});
  ASSERT_TRUE(alice->Publish().ok());
  auto report = alice->Import();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tuples_imported, 0u);
  EXPECT_EQ(alice->LocalScan("my_genes").size(), 1u);
}

TEST_F(CdssTest, ConflictResolvedByTrustPriority) {
  // Both annotate the same gene differently; the shared key includes only
  // the gene, so the two versions collide at import time (§II).
  alice->LocalInsert("my_genes", {Value("MYC"), Value("proto-oncogene")});
  ASSERT_TRUE(alice->Publish().ok());
  bob->LocalInsert("my_genes", {Value("MYC"), Value("transcription factor")});
  ASSERT_TRUE(bob->Publish().ok());

  // Bob imports alice's higher-trust version: alice wins, bob's local copy
  // is replaced.
  auto bob_report = bob->Import();
  ASSERT_TRUE(bob_report.ok());
  EXPECT_EQ(bob_report->conflicts_found, 1u);
  EXPECT_EQ(bob_report->conflicts_kept_mine, 0u);
  auto bob_rows = bob->LocalScan("my_genes");
  ASSERT_EQ(bob_rows.size(), 1u);
  EXPECT_EQ(bob_rows[0][1], Value(std::string("proto-oncogene")));
}

TEST_F(CdssTest, HigherTrustKeepsOwnVersionOnImport) {
  bob->LocalInsert("my_genes", {Value("MYC"), Value("transcription factor")});
  ASSERT_TRUE(bob->Publish().ok());
  alice->LocalInsert("my_genes", {Value("MYC"), Value("proto-oncogene")});
  // Alice (priority 1) imports bob's (priority 2) conflicting tuple: alice
  // keeps hers.
  auto report = alice->Import();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->conflicts_found, 1u);
  EXPECT_EQ(report->conflicts_kept_mine, 1u);
  auto rows = alice->LocalScan("my_genes");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value(std::string("proto-oncogene")));
}

TEST_F(CdssTest, MultipleEpochsAccumulate) {
  alice->LocalInsert("my_genes", {Value("A1"), Value("f1")});
  ASSERT_TRUE(alice->Publish().ok());
  alice->LocalInsert("my_genes", {Value("A2"), Value("f2")});
  ASSERT_TRUE(alice->Publish().ok());
  auto report = bob->Import();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tuples_imported, 2u);
}

// Participant::Publish submits through the node's client::Session: a second
// publish from the same participant commits at the very next epoch, and an
// import at that epoch sees both.
TEST_F(CdssTest, SecondPublishLandsAtTheNextEpoch) {
  alice->LocalInsert("my_genes", {Value("A1"), Value("f1")});
  auto first = alice->Publish();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  alice->LocalInsert("my_genes", {Value("A2"), Value("f2")});
  auto second = alice->Publish();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*second, *first + 1);
  EXPECT_EQ(dep->session(0).stats().committed, 2u);
  auto report = bob->Import();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->epoch, *second);
  EXPECT_EQ(report->tuples_imported, 2u);
}

TEST_F(CdssTest, PublishNothingFails) {
  EXPECT_FALSE(alice->Publish().ok());
}

TEST_F(CdssTest, MappingWithFilterImportsSubset) {
  SchemaMapping m;
  m.name = "only-repair";
  m.target_relation = "my_genes";
  m.sql = "SELECT gene, function, origin, origin_priority FROM gene_ann "
          "WHERE function = 'dna repair'";
  Participant carol(dep.get(), 2, "carol", 3);
  storage::RelationDef local;
  local.name = "my_genes";
  local.schema = storage::Schema(
      {{"gene", ValueType::kString}, {"function", ValueType::kString}}, 1);
  carol.CreateLocalRelation(local);
  carol.BindLocalToShared("my_genes", "gene_ann");
  carol.AddMapping(m);

  alice->LocalInsert("my_genes", {Value("BRCA1"), Value("dna repair")});
  alice->LocalInsert("my_genes", {Value("MYC"), Value("proto-oncogene")});
  ASSERT_TRUE(alice->Publish().ok());

  auto report = carol.Import();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->tuples_imported, 1u);
  auto rows = carol.LocalScan("my_genes");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(std::string("BRCA1")));
}

}  // namespace
}  // namespace orchestra::cdss
