// Sustained-overwrite storage-footprint bench: the perf side of the
// multi-epoch GC story. One deployment publishes continuous overwrite
// traffic over a fixed working set; we report publish throughput and the
// cluster-wide storage footprint with GC off (every version retained — the
// seed behavior) versus GC on (watermark = epoch - keep). The JSON makes the
// footprint-bounded claim machine-checkable across PRs: with GC on,
// live_records must stay flat as rounds grow; with GC off it grows linearly.
// Host throughput (wall clock) is each side's median over 5 alternating runs.
//
// ORCHESTRA_BENCH_SMOKE=1 shrinks rounds ~5x for CI smoke runs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "deploy/deployment.h"
#include "storage/publisher.h"

namespace orchestra {
namespace {

bool Smoke() {
  const char* env = std::getenv("ORCHESTRA_BENCH_SMOKE");
  return env != nullptr && std::string(env) == "1";
}

storage::RelationDef ChurnRelation() {
  storage::RelationDef def;
  def.name = "hot";
  def.schema = storage::Schema(
      {{"k", storage::ValueType::kInt64}, {"v", storage::ValueType::kString}},
      1);
  def.num_partitions = 16;
  return def;
}

struct RunResult {
  double wall_s = 0;
  double sim_s = 0;
  double wire_bytes = 0;
  uint64_t tuples = 0;
  uint64_t live_records = 0;
  uint64_t log_records = 0;
  double arena_mb = 0;
  double dead_fraction_max = 0;
  uint64_t gc_retired = 0;
  uint64_t epochs = 0;
};

RunResult RunSustained(uint64_t gc_keep, size_t rounds, size_t keys,
                       size_t updates_per_round) {
  deploy::DeploymentOptions opts;
  opts.num_nodes = 4;
  opts.replication = 3;
  opts.gc_keep_epochs = gc_keep;
  opts.store.compaction_min_records = 256;
  deploy::Deployment dep(opts);
  Rng rng(7);

  RunResult r;
  if (!dep.CreateRelation(0, ChurnRelation()).ok()) std::exit(1);
  double wall0 = bench::WallSeconds();
  for (size_t round = 0; round < rounds; ++round) {
    storage::UpdateBatch batch;
    auto& ups = batch["hot"];
    for (size_t i = 0; i < updates_per_round; ++i) {
      ups.push_back(storage::Update::Insert(
          storage::Tuple{storage::Value(static_cast<int64_t>(rng.Uniform(keys))),
                         storage::Value(rng.AlphaString(32))}));
    }
    auto e = dep.Publish(0, std::move(batch));
    if (!e.ok()) {
      std::fprintf(stderr, "publish failed: %s\n", e.status().ToString().c_str());
      std::exit(1);
    }
    r.epochs = *e;
    r.tuples += updates_per_round;
  }
  dep.RunFor(2 * sim::kMicrosPerSec);  // drain watermark advertisements + GC
  r.wall_s = bench::WallSeconds() - wall0;
  r.sim_s = static_cast<double>(dep.sim().now()) / 1e6;
  r.wire_bytes = static_cast<double>(dep.network().total_bytes());
  for (size_t i = 0; i < dep.size(); ++i) {
    const auto& store = dep.storage(i).store();
    r.live_records += store.entry_count();
    r.log_records += store.log_size();
    r.arena_mb += static_cast<double>(store.arena_bytes()) / 1e6;
    r.dead_fraction_max = std::max(r.dead_fraction_max, store.dead_fraction());
    const auto& gs = dep.storage(i).gc_stats();
    r.gc_retired += gs.retired_data + gs.retired_pages + gs.retired_coords +
                    gs.retired_tombstones;
  }
  return r;
}

/// The run with the median wall time (odd count). Every field but wall_s is
/// deterministic, so this is the median host throughput of identical runs.
RunResult MedianWall(std::vector<RunResult> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const RunResult& a, const RunResult& b) { return a.wall_s < b.wall_s; });
  return runs[runs.size() / 2];
}

void Report(bench::JsonReport& report, const std::string& name,
            const RunResult& r, size_t repeats) {
  report.AddTimed(name, static_cast<double>(r.tuples), r.wall_s, r.sim_s,
                  r.wire_bytes,
                  {{"repeats", static_cast<double>(repeats)},
                   {"live_records", static_cast<double>(r.live_records)},
                   {"log_records", static_cast<double>(r.log_records)},
                   {"arena_mb", r.arena_mb},
                   {"dead_fraction_max", r.dead_fraction_max},
                   {"gc_retired", static_cast<double>(r.gc_retired)},
                   {"epochs", static_cast<double>(r.epochs)}});
  std::printf("%s,%llu,%.3f,%llu,%llu,%.2f,%.3f\n", name.c_str(),
              static_cast<unsigned long long>(r.tuples), r.wall_s,
              static_cast<unsigned long long>(r.live_records),
              static_cast<unsigned long long>(r.log_records), r.arena_mb,
              r.dead_fraction_max);
}

// --------------------------------------------------------------------------
// Multi-writer contention sweep: W concurrent sessions (disjoint key
// stripes, one participant each) race for the same epoch chain with
// abandonment fencing armed. Reports committed-tuple throughput plus the
// contention machinery's work — claim conflicts, re-bases, fence activity —
// as the writer count scales 1 -> 32. Every batch must commit (same-batch
// retry on failure); a batch that cannot commit within the attempt budget
// is a liveness bug and fails the bench.

struct ContentionResult {
  double wall_s = 0;
  double sim_s = 0;
  double wire_bytes = 0;
  uint64_t tuples = 0;
  uint64_t commits = 0;
  uint64_t conflicts = 0;
  uint64_t rebases = 0;
  uint64_t fenced_skips = 0;
  uint64_t fences_granted = 0;
  uint64_t chain_epoch = 0;
};

ContentionResult RunContention(size_t writers, size_t rounds,
                               size_t updates_per_round) {
  deploy::DeploymentOptions opts;
  opts.num_nodes = writers + 2;
  opts.replication = 3;
  opts.fence_after_us = 8 * sim::kMicrosPerSec;
  deploy::Deployment dep(opts);
  Rng rng(11);

  ContentionResult r;
  if (!dep.CreateRelation(0, ChurnRelation()).ok()) std::exit(1);
  const size_t stripe = 64;  // per-writer key range: disjoint update logs
  double wall0 = bench::WallSeconds();
  for (size_t round = 0; round < rounds; ++round) {
    // Everyone submits in the same sim instant: maximal claim contention.
    std::vector<storage::UpdateBatch> pending(writers);
    std::vector<size_t> owner(writers);
    for (size_t w = 0; w < writers; ++w) {
      auto& ups = pending[w]["hot"];
      for (size_t i = 0; i < updates_per_round; ++i) {
        ups.push_back(storage::Update::Insert(storage::Tuple{
            storage::Value(static_cast<int64_t>(w * stripe +
                                                rng.Uniform(stripe))),
            storage::Value(rng.AlphaString(32))}));
      }
      owner[w] = w;
    }
    for (int attempt = 0; attempt < 16 && !pending.empty(); ++attempt) {
      std::vector<client::Ticket> tickets;
      tickets.reserve(pending.size());
      for (size_t i = 0; i < pending.size(); ++i) {
        tickets.push_back(dep.session(owner[i]).Submit(pending[i]));
      }
      bool all_done = dep.RunUntil(
          [&tickets] {
            for (const client::Ticket& t : tickets) {
              if (!t.epoch.done()) return false;
            }
            return true;
          },
          600 * sim::kMicrosPerSec);
      if (!all_done) {
        std::fprintf(stderr, "contention w=%zu: ticket wedged\n", writers);
        std::exit(1);
      }
      std::vector<storage::UpdateBatch> failed;
      std::vector<size_t> failed_owner;
      for (size_t i = 0; i < tickets.size(); ++i) {
        if (tickets[i].epoch.ok()) {
          r.commits += 1;
          r.tuples += updates_per_round;
          r.chain_epoch = std::max(r.chain_epoch,
                                   static_cast<uint64_t>(tickets[i].epoch.value()));
        } else {
          // The liveness contract: the SAME batch retries from the SAME
          // participant until it commits.
          failed.push_back(std::move(pending[i]));
          failed_owner.push_back(owner[i]);
        }
      }
      pending = std::move(failed);
      owner = std::move(failed_owner);
    }
    if (!pending.empty()) {
      std::fprintf(stderr, "contention w=%zu: batch never committed\n",
                   writers);
      std::exit(1);
    }
  }
  r.wall_s = bench::WallSeconds() - wall0;
  r.sim_s = static_cast<double>(dep.sim().now()) / 1e6;
  r.wire_bytes = static_cast<double>(dep.network().total_bytes());
  for (size_t w = 0; w < writers; ++w) {
    const auto& ps = dep.publisher(w).pipeline_stats();
    r.conflicts += ps.epoch_conflicts;
    r.rebases += ps.rebases;
    r.fenced_skips += ps.fenced_skips;
  }
  for (size_t i = 0; i < dep.size(); ++i) {
    r.fences_granted += dep.storage(i).counters().fences_granted;
  }
  return r;
}

void ReportContention(bench::JsonReport& report, const std::string& name,
                      const ContentionResult& r) {
  report.AddTimed(name, static_cast<double>(r.tuples), r.wall_s, r.sim_s,
                  r.wire_bytes,
                  {{"commits", static_cast<double>(r.commits)},
                   {"conflicts", static_cast<double>(r.conflicts)},
                   {"rebases", static_cast<double>(r.rebases)},
                   {"fenced_skips", static_cast<double>(r.fenced_skips)},
                   {"fences_granted", static_cast<double>(r.fences_granted)},
                   {"chain_epoch", static_cast<double>(r.chain_epoch)}});
  std::printf("%s,%llu,%.3f,%.1f,%llu,%llu,%llu\n", name.c_str(),
              static_cast<unsigned long long>(r.commits), r.wall_s, r.sim_s,
              static_cast<unsigned long long>(r.conflicts),
              static_cast<unsigned long long>(r.rebases),
              static_cast<unsigned long long>(r.chain_epoch));
}

void Main() {
  const size_t rounds = Smoke() ? 120 : 600;
  const size_t keys = 96;
  const size_t updates = 12;

  bench::JsonReport report("sustained_churn");
  bench::Header("sustained overwrite traffic: storage footprint, GC off vs on");
  std::printf("name,tuples,wall_s,live_records,log_records,arena_mb,dead_max\n");

  // ops_per_sec is host wall clock, which drifts run to run: gc_off and
  // gc_on run alternately kRepeats times and each reports its median run,
  // so the benchdiff gc_on/gc_off throughput gate compares medians.
  constexpr size_t kRepeats = 5;
  std::vector<RunResult> offs, ons;
  for (size_t i = 0; i < kRepeats; ++i) {
    offs.push_back(RunSustained(/*gc_keep=*/0, rounds, keys, updates));
    ons.push_back(RunSustained(/*gc_keep=*/6, rounds, keys, updates));
  }
  RunResult off = MedianWall(offs);
  Report(report, "sustained_overwrite_gc_off", off, kRepeats);
  RunResult on = MedianWall(ons);
  Report(report, "sustained_overwrite_gc_on", on, kRepeats);

  // Footprint-bounded sanity right here in the bench: GC must cut the
  // retained live set by a large factor at these round counts.
  if (on.live_records * 2 >= off.live_records) {
    std::fprintf(stderr, "GC failed to bound footprint: on=%llu off=%llu\n",
                 static_cast<unsigned long long>(on.live_records),
                 static_cast<unsigned long long>(off.live_records));
    std::exit(1);
  }

  bench::Header("multi-writer contention: W sessions race one epoch chain");
  std::printf("name,commits,wall_s,sim_s,conflicts,rebases,chain_epoch\n");
  const size_t contention_rounds = Smoke() ? 4 : 10;
  for (size_t writers : {1u, 4u, 16u, 32u}) {
    ContentionResult c = RunContention(writers, contention_rounds, 8);
    ReportContention(report, "contention_w" + std::to_string(writers), c);
  }
}

}  // namespace
}  // namespace orchestra

int main() {
  orchestra::Main();
  return 0;
}
