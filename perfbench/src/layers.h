// Per-layer counters read from the program's public stats accessors, summed
// over nodes. The benchmark snapshots them around its own calls and reports
// deltas; nothing here reaches into src/ beyond those accessors.
#ifndef ORCHESTRA_PERFBENCH_LAYERS_H_
#define ORCHESTRA_PERFBENCH_LAYERS_H_

#include <utility>
#include <vector>

#include "deploy/deployment.h"

namespace orchestra::perfbench {

// X(field, level): cumulative counters (level = false) subtract in a delta;
// levels (high-water marks, gauges) keep the later snapshot's value.
#define PERFBENCH_LAYER_COUNTERS(X)                                       \
  /* client: Session::stats() */                                          \
  X(client_throttle_shrinks, false)                                       \
  X(client_max_in_flight, true)                                           \
  /* publisher: Publisher::pipeline_stats() */                            \
  X(pub_publishes, false)                                                 \
  X(pub_chained, false)                                                   \
  X(pub_put_frames, false)                                                \
  X(pub_tuple_records, false)                                             \
  X(pub_epoch_conflicts, false)                                           \
  X(pub_rebases, false)                                                   \
  X(pub_fenced_skips, false)                                              \
  /* storage: StorageService counters(), gc_stats(), rpc_counters() */    \
  X(st_tuples_stored, false)                                              \
  X(st_pages_stored, false)                                               \
  X(st_coordinators_stored, false)                                        \
  X(st_tuples_served, false)                                              \
  X(st_claims_refused, false)                                             \
  X(st_gc_slices, false)                                                  \
  X(st_gc_retired, false)                                                 \
  X(rpc_started, false)                                                   \
  X(rpc_timed_out, false)                                                 \
  X(rpc_reaped, false)                                                    \
  /* localstore: LocalStore::stats(), arena_bytes(), dead_fraction() */   \
  X(ls_puts, false)                                                       \
  X(ls_gets, false)                                                       \
  X(ls_log_bytes, false)                                                  \
  X(ls_compactions, false)                                                \
  X(ls_replayed_records, false)                                           \
  X(ls_arena_bytes, true)                                                 \
  X(ls_dead_fraction_max, true)                                           \
  /* wal: LocalStore::wal()->stats() */                                   \
  X(wal_bytes, false)                                                     \
  X(wal_syncs, false)                                                     \
  X(wal_checkpoints, false)                                               \
  X(wal_segments_sealed, false)                                           \
  /* net: Network totals and inbox high-water marks */                    \
  X(net_messages, false)                                                  \
  X(net_bytes, false)                                                     \
  X(net_max_inbox_msgs, true)                                             \
  /* query: QueryService::counters() */                                   \
  X(q_blocks_sent, false)                                                 \
  X(q_rows_routed, false)                                                 \
  X(q_rows_shipped, false)                                                \
  X(q_scans_restarted, false)                                             \
  /* sim: Simulator::events_fired(), pending_events() */                  \
  X(sim_events, false)                                                    \
  X(sim_pending, true)

/// One snapshot; every value is a double so deltas and ratios need no casts
/// (counts stay exact far beyond what a run produces).
struct LayerCounters {
#define PERFBENCH_FIELD(name, level) double name = 0;
  PERFBENCH_LAYER_COUNTERS(PERFBENCH_FIELD)
#undef PERFBENCH_FIELD

  static LayerCounters Capture(deploy::Deployment& dep);
  /// `later - earlier` for counters; levels are taken from `later`.
  static LayerCounters Delta(const LayerCounters& later, const LayerCounters& earlier);
  /// (name, value) of every non-zero field, for trace records.
  std::vector<std::pair<const char*, double>> NonZero() const;
};

}  // namespace orchestra::perfbench

#endif  // ORCHESTRA_PERFBENCH_LAYERS_H_
