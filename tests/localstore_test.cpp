#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "localstore/local_store.h"

namespace orchestra::localstore {
namespace {

TEST(LocalStore, PutGetOverwrite) {
  LocalStore store;
  ASSERT_TRUE(store.Put("k1", "v1").ok());
  auto v = store.Get("k1");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v1");
  ASSERT_TRUE(store.Put("k1", "v2").ok());
  EXPECT_EQ(*store.Get("k1"), "v2");
  EXPECT_EQ(store.entry_count(), 1u);
}

TEST(LocalStore, GetMissingIsNotFound) {
  LocalStore store;
  EXPECT_TRUE(store.Get("nope").status().IsNotFound());
}

TEST(LocalStore, EmptyKeyRejected) {
  LocalStore store;
  EXPECT_TRUE(store.Put("", "v").IsInvalidArgument());
}

TEST(LocalStore, DeleteIsIdempotent) {
  LocalStore store;
  store.Put("k", "v").ok();
  ASSERT_TRUE(store.Delete("k").ok());
  EXPECT_FALSE(store.Contains("k"));
  ASSERT_TRUE(store.Delete("k").ok());  // again, no error
}

TEST(LocalStore, OrderedIteration) {
  LocalStore store;
  store.Put("b", "2").ok();
  store.Put("a", "1").ok();
  store.Put("c", "3").ok();
  std::string keys;
  for (auto it = store.Seek(""); it.Valid(); it.Next()) keys += it.key();
  EXPECT_EQ(keys, "abc");
}

TEST(LocalStore, SeekStartsAtLowerBound) {
  LocalStore store;
  store.Put("apple", "1").ok();
  store.Put("banana", "2").ok();
  store.Put("cherry", "3").ok();
  auto it = store.Seek("b");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "banana");
}

TEST(LocalStore, PrefixScan) {
  LocalStore store;
  store.Put("x/1", "a").ok();
  store.Put("x/2", "b").ok();
  store.Put("y/1", "c").ok();
  int count = 0;
  for (auto it = store.SeekPrefix("x/"); it.Valid(); it.Next()) {
    ++count;
  }
  EXPECT_EQ(count, 2);
}

TEST(LocalStore, BinaryKeysAndValues) {
  LocalStore store;
  std::string key("\x01\x00\xFF\x7F", 4);
  std::string value(1024, '\0');
  value[512] = 'x';
  ASSERT_TRUE(store.Put(key, value).ok());
  auto v = store.Get(key);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, value);
}

TEST(LocalStore, RecoverRebuildsIdenticalIndex) {
  LocalStore store;
  Rng rng(5);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000; ++i) {
    std::string k = "key-" + std::to_string(rng.Uniform(500));
    if (rng.OneIn(4)) {
      store.Delete(k).ok();
      model.erase(k);
    } else {
      std::string v = rng.AlphaString(16);
      store.Put(k, v).ok();
      model[k] = v;
    }
  }
  ASSERT_TRUE(store.Recover().ok());
  EXPECT_EQ(store.entry_count(), model.size());
  for (const auto& [k, v] : model) {
    auto got = store.Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, v);
  }
}

TEST(LocalStore, CompactionPreservesContentAndReclaimsLog) {
  StoreOptions opts;
  opts.compaction_min_records = 100;
  opts.compaction_garbage_ratio = 0.5;
  LocalStore store(opts);
  // Overwrite the same small key set many times -> lots of garbage.
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 20; ++k) {
      store.Put(StrCat({"k", std::to_string(k)}), StrCat({"round-", std::to_string(round)})).ok();
    }
  }
  EXPECT_GT(store.stats().compactions, 0u);
  EXPECT_EQ(store.entry_count(), 20u);
  for (int k = 0; k < 20; ++k) {
    EXPECT_EQ(*store.Get(StrCat({"k", std::to_string(k)})), "round-49");
  }
  // After compaction, recovery still works.
  ASSERT_TRUE(store.Recover().ok());
  EXPECT_EQ(store.entry_count(), 20u);
}

// A few large dead values are most of the bytes but few of the records: the
// byte count alone must trip compaction. 20 of 220 records end dead, holding
// about 99% of the arena.
TEST(LocalStore, CompactionCountsDeadBytes) {
  StoreOptions opts;
  opts.compaction_min_records = 100;
  opts.compaction_garbage_ratio = 0.5;
  LocalStore store(opts);
  auto key = [](int k) { return StrCat({"k", std::to_string(k)}); };
  for (int k = 0; k < 200; ++k) ASSERT_TRUE(store.Put(key(k), "small").ok());
  for (int k = 0; k < 10; ++k) {
    ASSERT_TRUE(store.Put(key(k), std::string(64 << 10, 'x')).ok());
  }
  for (int k = 0; k < 10; ++k) ASSERT_TRUE(store.Put(key(k), "small").ok());
  EXPECT_GE(store.stats().compactions, 1u);
  EXPECT_LT(store.arena_bytes(), 16u << 10);
  EXPECT_LE(store.dead_fraction(), 0.5);
  EXPECT_EQ(store.entry_count(), 200u);
  for (int k = 0; k < 200; ++k) EXPECT_EQ(*store.Get(key(k)), "small");
}

TEST(LocalStore, StatsTrackOperations) {
  LocalStore store;
  store.Put("a", "1").ok();
  store.Get("a").ok();
  store.Get("missing").ok();
  store.Delete("a").ok();
  EXPECT_EQ(store.stats().puts, 1u);
  EXPECT_EQ(store.stats().gets, 2u);
  EXPECT_EQ(store.stats().deletes, 1u);
  EXPECT_EQ(store.stats().live_records, 0u);
}

TEST(LocalStore, GetViewIsZeroCopyAndMatchesGet) {
  LocalStore store;
  store.Put("k1", "value-one").ok();
  store.Put("k2", std::string(2048, 'z')).ok();
  auto v1 = store.GetView("k1");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, "value-one");
  EXPECT_EQ(*store.Get("k2"), *store.GetView("k2"));
  EXPECT_TRUE(store.GetView("absent").status().IsNotFound());
  // The view aliases the stored record: stable across reads.
  auto again = store.GetView("k1");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(v1->data(), again->data());
}

TEST(LocalStore, PrefixUpperBoundComputation) {
  EXPECT_EQ(LocalStore::PrefixUpperBound("abc"), "abd");
  EXPECT_EQ(LocalStore::PrefixUpperBound(""), "");
  std::string ff2("\xff\xff", 2);
  EXPECT_EQ(LocalStore::PrefixUpperBound(ff2), "");
  std::string aff("a\xff", 2);
  EXPECT_EQ(LocalStore::PrefixUpperBound(aff), "b");
}

TEST(LocalStore, SeekPrefixStopsAtComputedEndBound) {
  LocalStore store;
  // "x0" sorts immediately after every "x/..." key; without a real end
  // bound the iterator would run into it.
  store.Put("x/a", "1").ok();
  store.Put("x/b", "2").ok();
  store.Put("x0", "3").ok();
  store.Put("y", "4").ok();
  std::vector<std::string> seen;
  for (auto it = store.SeekPrefix("x/"); it.Valid(); it.Next()) {
    seen.push_back(std::string(it.key()));
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"x/a", "x/b"}));
}

TEST(LocalStore, SeekPrefixAllFfPrefixRunsToEnd) {
  LocalStore store;
  std::string hi("\xff\xff", 2);
  store.Put(hi + "a", "1").ok();
  store.Put("a", "2").ok();
  int n = 0;
  for (auto it = store.SeekPrefix(hi); it.Valid(); it.Next()) ++n;
  EXPECT_EQ(n, 1);
}

TEST(LocalStore, StatsReadCountingOnConstStore) {
  LocalStore store;
  store.Put("a", "1").ok();
  const LocalStore& cref = store;
  cref.Get("a").ok();
  cref.GetView("a").ok();
  cref.Get("missing").ok();
  EXPECT_EQ(cref.stats().gets, 3u);
}

// Property test: Put/Delete/Compact/Recover round-trip equivalence against a
// model map, including prefix-scan bounds, under aggressive compaction. Values
// range from 1 byte to 2 KiB, and once the log reaches the compaction floor
// the arena never holds more than the live bytes / (1 - ratio).
class LocalStoreProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LocalStoreProperty, EquivalentToModelUnderChurn) {
  StoreOptions opts;
  opts.compaction_garbage_ratio = 0.25;
  opts.compaction_min_records = 128;
  LocalStore store(opts);
  std::map<std::string, std::string> model;
  uint64_t model_live_bytes = 0;  // key+value bytes of the model's entries
  auto erase = [&](const std::string& k) {
    auto it = model.find(k);
    if (it == model.end()) return;
    model_live_bytes -= k.size() + it->second.size();
    model.erase(it);
  };
  Rng rng(GetParam() * 7919 + 13);
  const std::vector<std::string> prefixes = {"D/r1/", "D/r2/", "P/", "C/", ""};
  for (int op = 0; op < 8000; ++op) {
    const std::string& prefix = prefixes[rng.Uniform(prefixes.size())];
    std::string k = prefix + std::to_string(rng.Uniform(300));
    if (k.empty()) k = "fallback";
    switch (rng.Uniform(8)) {
      case 0:
      case 1:
      case 2:
      case 3: {
        std::string v = rng.AlphaString(
            rng.Uniform(8) == 0 ? 256 + rng.Uniform(1792) : 1 + rng.Uniform(64));
        ASSERT_TRUE(store.Put(k, v).ok());
        erase(k);
        model_live_bytes += k.size() + v.size();
        model[k] = v;
        break;
      }
      case 4:
      case 5:
        ASSERT_TRUE(store.Delete(k).ok());
        erase(k);
        break;
      case 6:
        store.Compact();
        break;
      case 7:
        // Without a WAL, Recover re-indexes the same log and arena, so the
        // bound below holds across it too.
        ASSERT_TRUE(store.Recover().ok());
        break;
    }
    if (store.log_size() >= opts.compaction_min_records) {
      ASSERT_LE(static_cast<double>(store.arena_bytes()),
                static_cast<double>(model_live_bytes) /
                    (1 - opts.compaction_garbage_ratio))
          << "op " << op;
    }
    // The store's live-byte count matches the model through every mutation,
    // compaction and rebuild.
    if (store.log_size() > 0) {
      double live = std::min(
          static_cast<double>(store.entry_count()) / static_cast<double>(store.log_size()),
          static_cast<double>(model_live_bytes) / static_cast<double>(store.arena_bytes()));
      ASSERT_NEAR(store.dead_fraction(), 1 - live, 1e-9) << "op " << op;
    }
    if (op % 997 == 0) {
      // Full ordered sweep matches the model exactly.
      auto it = store.Seek("");
      for (const auto& [mk, mv] : model) {
        ASSERT_TRUE(it.Valid());
        ASSERT_EQ(it.key(), mk);
        ASSERT_EQ(it.value(), mv);
        it.Next();
      }
      ASSERT_FALSE(it.Valid());
    }
  }
  ASSERT_EQ(store.entry_count(), model.size());
  // Point lookups: Get, GetView, Contains agree with the model.
  for (const auto& [mk, mv] : model) {
    ASSERT_TRUE(store.Contains(mk));
    ASSERT_EQ(*store.Get(mk), mv);
    ASSERT_EQ(*store.GetView(mk), mv);
  }
  // Prefix scans honor the computed bounds for every prefix family.
  for (const std::string& prefix : prefixes) {
    std::vector<std::string> got;
    for (auto it = store.SeekPrefix(prefix); it.Valid(); it.Next()) {
      got.push_back(std::string(it.key()));
    }
    std::vector<std::string> expect;
    for (const auto& [mk, mv] : model) {
      if (mk.compare(0, prefix.size(), prefix) == 0) expect.push_back(mk);
    }
    ASSERT_EQ(got, expect) << "prefix '" << prefix << "'";
  }
  // A final Recover after heavy churn reports a consistent log.
  ASSERT_TRUE(store.Recover().ok());
  ASSERT_EQ(store.entry_count(), model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalStoreProperty, ::testing::Values(1, 2, 3, 4));

class LocalStoreFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LocalStoreFuzz, MatchesStdMapModel) {
  StoreOptions opts;
  opts.compaction_garbage_ratio = 0.3;
  opts.compaction_min_records = 256;
  LocalStore store(opts);
  std::map<std::string, std::string> model;
  Rng rng(GetParam());
  for (int op = 0; op < 5000; ++op) {
    std::string k = StrCat({"k", std::to_string(rng.Uniform(200))});
    switch (rng.Uniform(3)) {
      case 0:
      case 1: {
        std::string v = rng.AlphaString(1 + rng.Uniform(40));
        store.Put(k, v).ok();
        model[k] = v;
        break;
      }
      case 2:
        store.Delete(k).ok();
        model.erase(k);
        break;
    }
  }
  ASSERT_EQ(store.entry_count(), model.size());
  auto it = store.Seek("");
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), k);
    EXPECT_EQ(it.value(), v);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalStoreFuzz, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// SeekPrefix x overwrite/delete x Compact/Recover interplay: the live-slot
// indirection (overwrites repoint a slot, deletes mark it dead, the tree is
// insert-only) must survive full index rebuilds, and prefix scans must see
// the same live view before and after each rebuild.

// One prefixed key family interleaved with neighbors; mutate, then verify
// prefix scans across a Compact and a Recover cycle.
TEST(LocalStore, SeekPrefixSurvivesCompactRecoverCycle) {
  LocalStore store;
  auto key = [](const std::string& pfx, int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%03d", i);
    return pfx + buf;
  };
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.Put(key("A/", i), "a" + std::to_string(i)).ok());
    ASSERT_TRUE(store.Put(key("B/", i), "b" + std::to_string(i)).ok());
    ASSERT_TRUE(store.Put(key("C/", i), "c" + std::to_string(i)).ok());
  }
  // Overwrite evens, delete every third key in the B family.
  for (int i = 0; i < 50; i += 2) {
    ASSERT_TRUE(store.Put(key("B/", i), "B" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 50; i += 3) {
    ASSERT_TRUE(store.Delete(key("B/", i)).ok());
  }

  auto expect_b = [&](const char* when) {
    std::vector<std::pair<std::string, std::string>> want;
    for (int i = 0; i < 50; ++i) {
      if (i % 3 == 0) continue;
      want.emplace_back(key("B/", i),
                        StrCat({i % 2 == 0 ? "B" : "b", std::to_string(i)}));
    }
    size_t n = 0;
    for (auto it = store.SeekPrefix("B/"); it.Valid(); it.Next(), ++n) {
      ASSERT_LT(n, want.size()) << when;
      EXPECT_EQ(it.key(), want[n].first) << when;
      EXPECT_EQ(it.value(), want[n].second) << when;
    }
    EXPECT_EQ(n, want.size()) << when;
  };

  expect_b("before rebuilds");
  store.Compact();
  expect_b("after Compact");
  // Mutate again after the compaction rebuilt the tree/live table densely:
  // the indirection must still route overwrites/deletes correctly.
  ASSERT_TRUE(store.Put(key("B/", 1), "post-compact").ok());
  ASSERT_TRUE(store.Delete(key("B/", 49)).ok());
  ASSERT_TRUE(store.Recover().ok());
  {
    auto it = store.SeekPrefix("B/");
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), key("B/", 1));
    EXPECT_EQ(it.value(), "post-compact");
  }
  size_t b_count = 0;
  for (auto it = store.SeekPrefix("B/"); it.Valid(); it.Next()) ++b_count;
  EXPECT_EQ(b_count, 50u - 17u - 1u);  // 17 deleted by 3s, then B/49
  // Neighboring families are untouched by all of the above.
  size_t a_count = 0;
  for (auto it = store.SeekPrefix("A/"); it.Valid(); it.Next()) ++a_count;
  EXPECT_EQ(a_count, 50u);
}

// Randomized: interleave Put/overwrite/Delete with Compact+Recover cycles
// and check SeekPrefix against a model at every stage.
TEST(LocalStoreFuzz, PrefixScansMatchModelAcrossRebuilds) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    LocalStore store;
    std::map<std::string, std::string> model;
    const std::string prefixes[] = {"p/", "q/", "p0", ""};
    for (int step = 0; step < 2000; ++step) {
      std::string k = (rng.OneIn(2) ? "p/" : "q/") + std::to_string(rng.Uniform(80));
      switch (rng.Uniform(3)) {
        case 0:
        case 1: {
          std::string v = rng.AlphaString(12);
          ASSERT_TRUE(store.Put(k, v).ok());
          model[k] = v;
          break;
        }
        case 2:
          ASSERT_TRUE(store.Delete(k).ok());
          model.erase(k);
          break;
      }
      if (step % 500 == 499) {
        if (rng.OneIn(2)) {
          store.Compact();
        } else {
          ASSERT_TRUE(store.Recover().ok()) << "seed " << seed;
        }
        for (const std::string& pfx : prefixes) {
          auto lo = model.lower_bound(pfx);
          auto hi = pfx.empty() ? model.end()
                                : model.lower_bound(LocalStore::PrefixUpperBound(pfx));
          auto it = store.SeekPrefix(pfx);
          for (auto m = lo; m != hi; ++m, it.Next()) {
            ASSERT_TRUE(it.Valid()) << "seed " << seed << " pfx " << pfx;
            EXPECT_EQ(it.key(), m->first);
            EXPECT_EQ(it.value(), m->second);
          }
          EXPECT_FALSE(it.Valid()) << "seed " << seed << " pfx " << pfx;
        }
      }
    }
  }
}

}  // namespace
}  // namespace orchestra::localstore
