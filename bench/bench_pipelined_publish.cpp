// Pipelined batched publishing through client::Session: throughput of an
// STBench-sized update stream at publish windows 1/2/4/8, the coalesced
// kPutTuples RPC count, and the admission-control story (inbox depth + the
// backpressure knob).
//
// The primary sweep runs the paper's own setting — collaborative peers
// publishing over wide-area links (§VI deploys on shared clusters/EC2; the
// CDSS participants are different institutions) — where publish latency is
// round-trip dominated and pipelining pays most: a chained publish skips
// epoch discovery and the base coordinator/page fetches and overlaps its
// prepare stages with the predecessor's writes. Commits stay strictly
// ordered and a chained publish writes nothing until its predecessor has
// committed, so the steady-state floor is one write + one commit round trip
// per epoch; windows deeper than 2 buy burst absorption, not extra overlap.
//
// Emits BENCH_pipelined_publish.json; the benchdiff CI stage asserts the
// acceptance bounds on the deterministic sim metrics:
//   * WAN sim throughput at window 4 >= 2x window 1,
//   * max per-node inbox depth at window 8 <= 16 (two queued deliveries per
//     in-flight publish),
//   * the admission-control phase actually throttled (and lost nothing).
//
//   build/bench_pipelined_publish
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "client/session.h"

using namespace orchestra;
using storage::Update;
using storage::UpdateBatch;
using storage::Value;
using storage::ValueType;

namespace {

storage::RelationDef StreamRelation() {
  storage::RelationDef def;
  def.name = "stb_stream";
  def.schema = storage::Schema(
      {{"k", ValueType::kInt64}, {"payload", ValueType::kString}},
      /*key_arity=*/1);
  def.num_partitions = 16;
  return def;
}

/// Inter-site link: ~100 Mbit/s with 5 ms one-way latency.
net::LinkParams WanLink() {
  net::LinkParams link;
  link.bandwidth_bytes_per_sec = 12.5e6;
  link.latency_us = 5000;
  return link;
}

struct PhaseResult {
  size_t window = 0;
  double wall_s = 0;
  double sim_s = 0;
  uint64_t tuples = 0;
  uint64_t publishes = 0;
  uint64_t wire_bytes = 0;
  uint64_t put_frames = 0;   // coalesced kPutTuples RPCs (publisher side)
  uint64_t chained = 0;      // publishes that pipelined onto a predecessor
  uint64_t max_inbox_msgs = 0;
  uint64_t max_inbox_bytes = 0;
  uint64_t throttle_shrinks = 0;
  size_t min_window_seen = 0;
};

struct PhaseConfig {
  size_t window = 1;
  net::LinkParams link;            // default: Gigabit LAN
  uint64_t rows_per_batch = 50;    // small batches -> latency-bound publishes
  uint64_t injected_peer_load = 0; // synthetic overload on every peer
};

PhaseResult RunPhase(const PhaseConfig& cfg, uint64_t total_rows) {
  deploy::DeploymentOptions opts;
  opts.num_nodes = 5;
  opts.replication = 3;
  opts.link = cfg.link;
  opts.session.max_window = cfg.window;
  deploy::Deployment dep(opts);
  if (!dep.CreateRelation(0, StreamRelation()).ok()) {
    std::fprintf(stderr, "create relation failed\n");
    std::exit(1);
  }
  if (cfg.injected_peer_load > 0) {
    for (size_t i = 1; i < dep.size(); ++i) {
      dep.storage(i).InjectLoadHint(
          static_cast<uint32_t>(cfg.injected_peer_load));
    }
  }

  const uint64_t batches = std::max<uint64_t>(8, total_rows / cfg.rows_per_batch);
  // Overwrite-heavy working set (the sustained-traffic regime): the stream
  // cycles a keyspace half its own size.
  const uint64_t keyspace = std::max<uint64_t>(64, total_rows / 10);

  dep.network().ResetTraffic();
  client::Session& session = dep.session(0);
  double wall0 = bench::WallSeconds();
  double sim0 = static_cast<double>(dep.sim().now()) / 1e6;

  std::vector<client::Ticket> tickets;
  tickets.reserve(batches);
  uint64_t key = 0;
  for (uint64_t b = 0; b < batches; ++b) {
    UpdateBatch batch;
    auto& ups = batch["stb_stream"];
    ups.reserve(cfg.rows_per_batch);
    for (uint64_t i = 0; i < cfg.rows_per_batch; ++i) {
      key = (key + 7919) % keyspace;  // co-prime stride: spread + overwrite
      ups.push_back(Update::Insert(
          {Value(static_cast<int64_t>(key)), Value(std::string(40, 'x'))}));
    }
    tickets.push_back(session.Submit(std::move(batch)));
  }
  bool done = dep.RunUntil(
      [&tickets] {
        for (const client::Ticket& t : tickets) {
          if (!t.epoch.done()) return false;
        }
        return true;
      },
      3600 * sim::kMicrosPerSec);
  if (!done) {
    std::fprintf(stderr, "publish stream stalled at window %zu\n", cfg.window);
    std::exit(1);
  }
  for (const client::Ticket& t : tickets) {
    if (!t.epoch.ok()) {
      std::fprintf(stderr, "publish failed: %s\n",
                   t.epoch.status().ToString().c_str());
      std::exit(1);
    }
  }

  PhaseResult r;
  r.window = cfg.window;
  r.wall_s = bench::WallSeconds() - wall0;
  r.sim_s = static_cast<double>(dep.sim().now()) / 1e6 - sim0;
  r.tuples = batches * cfg.rows_per_batch;
  r.publishes = batches;
  r.wire_bytes = dep.network().total_bytes();
  const auto& ps = dep.publisher(0).pipeline_stats();
  r.put_frames = ps.put_frames;
  r.chained = ps.chained;
  for (size_t i = 0; i < dep.size(); ++i) {
    const auto& ib = dep.network().inbox_stats(static_cast<net::NodeId>(i));
    r.max_inbox_msgs = std::max(r.max_inbox_msgs, ib.max_messages);
    r.max_inbox_bytes = std::max(r.max_inbox_bytes, ib.max_bytes);
  }
  r.throttle_shrinks = session.stats().throttle_shrinks;
  r.min_window_seen = session.stats().min_window_seen;
  return r;
}

void Report(bench::JsonReport& report, const std::string& name,
            const PhaseResult& r) {
  report.AddTimed(
      name, static_cast<double>(r.tuples), r.wall_s, r.sim_s,
      static_cast<double>(r.wire_bytes),
      {{"sim_tuples_per_sec",
        r.sim_s > 0 ? static_cast<double>(r.tuples) / r.sim_s : 0},
       {"publishes", static_cast<double>(r.publishes)},
       {"put_frames", static_cast<double>(r.put_frames)},
       {"chained", static_cast<double>(r.chained)},
       {"max_inbox_msgs", static_cast<double>(r.max_inbox_msgs)},
       {"max_inbox_bytes", static_cast<double>(r.max_inbox_bytes)},
       {"throttle_shrinks", static_cast<double>(r.throttle_shrinks)},
       {"min_window_seen", static_cast<double>(r.min_window_seen)}});
  std::printf(
      "%-28s window=%zu tuples=%" PRIu64 " sim_s=%.3f wall_s=%.3f "
      "sim_tuples_per_sec=%.0f put_frames=%" PRIu64 " chained=%" PRIu64
      " max_inbox_msgs=%" PRIu64 " throttle_shrinks=%" PRIu64 "\n",
      name.c_str(), r.window, r.tuples, r.sim_s, r.wall_s,
      r.sim_s > 0 ? static_cast<double>(r.tuples) / r.sim_s : 0, r.put_frames,
      r.chained, r.max_inbox_msgs, r.throttle_shrinks);
}

}  // namespace

int main() {
  bench::Header("pipelined batched publishing (client::Session)");
  bench::JsonReport report("pipelined_publish");
  const uint64_t rows = bench::StbTuples();
  std::printf("%" PRIu64 " rows per phase\n", rows);

  // Primary sweep: wide-area profile, windows 1/2/4/8.
  PhaseResult wan[4];
  const size_t windows[4] = {1, 2, 4, 8};
  for (int i = 0; i < 4; ++i) {
    PhaseConfig cfg;
    cfg.window = windows[i];
    cfg.link = WanLink();
    wan[i] = RunPhase(cfg, rows);
    Report(report, "wan_window_" + std::to_string(windows[i]), wan[i]);
  }

  // Reference: Gigabit LAN, where the write payload (not latency) dominates.
  for (size_t w : {size_t{1}, size_t{4}}) {
    PhaseConfig cfg;
    cfg.window = w;
    PhaseResult r = RunPhase(cfg, rows);
    Report(report, "lan_window_" + std::to_string(w), r);
  }

  // Admission control under overload: every peer advertises heavy load; the
  // window-8 session must throttle down (to 1) and still commit everything.
  {
    PhaseConfig cfg;
    cfg.window = 8;
    cfg.injected_peer_load = 100000;
    PhaseResult r = RunPhase(cfg, rows);
    Report(report, "overload_injected_window_8", r);
  }

  double speedup = wan[0].sim_s > 0 && wan[2].sim_s > 0
                       ? wan[0].sim_s / wan[2].sim_s
                       : 0;
  std::printf("\nWAN sim speedup window4/window1: %.2fx\n", speedup);
  std::printf("WAN inbox depth: w1=%" PRIu64 " w8=%" PRIu64 "\n",
              wan[0].max_inbox_msgs, wan[3].max_inbox_msgs);
  return 0;
}
