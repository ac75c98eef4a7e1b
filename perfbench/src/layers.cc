#include "layers.h"

#include <algorithm>

namespace orchestra::perfbench {

LayerCounters LayerCounters::Capture(deploy::Deployment& dep) {
  LayerCounters c;
  for (size_t i = 0; i < dep.size(); ++i) {
    const client::Session::Stats& ss = dep.session(i).stats();
    c.client_throttle_shrinks += static_cast<double>(ss.throttle_shrinks);
    c.client_max_in_flight =
        std::max(c.client_max_in_flight, static_cast<double>(ss.max_in_flight));

    const storage::Publisher::PipelineStats& ps = dep.publisher(i).pipeline_stats();
    c.pub_publishes += static_cast<double>(ps.publishes);
    c.pub_chained += static_cast<double>(ps.chained);
    c.pub_put_frames += static_cast<double>(ps.put_frames);
    c.pub_tuple_records += static_cast<double>(ps.tuple_records);
    c.pub_epoch_conflicts += static_cast<double>(ps.epoch_conflicts);
    c.pub_rebases += static_cast<double>(ps.rebases);
    c.pub_fenced_skips += static_cast<double>(ps.fenced_skips);

    storage::StorageService& svc = dep.storage(i);
    const storage::StorageService::Counters& sc = svc.counters();
    c.st_tuples_stored += static_cast<double>(sc.tuples_stored);
    c.st_pages_stored += static_cast<double>(sc.pages_stored);
    c.st_coordinators_stored += static_cast<double>(sc.coordinators_stored);
    c.st_tuples_served += static_cast<double>(sc.tuples_served);
    c.st_claims_refused += static_cast<double>(sc.claims_refused);
    const storage::StorageService::GcStats& gs = svc.gc_stats();
    c.st_gc_slices += static_cast<double>(gs.slices);
    c.st_gc_retired += static_cast<double>(gs.retired_data + gs.retired_pages +
                                           gs.retired_coords + gs.retired_tombstones);
    const net::RpcClient::Counters& rc = svc.rpc_counters();
    c.rpc_started += static_cast<double>(rc.started);
    c.rpc_timed_out += static_cast<double>(rc.timed_out);
    c.rpc_reaped += static_cast<double>(rc.reaped);

    localstore::LocalStore& store = svc.store();
    const localstore::StoreStats& ls = store.stats();
    c.ls_puts += static_cast<double>(ls.puts);
    c.ls_gets += static_cast<double>(ls.gets.load(std::memory_order_relaxed));
    c.ls_log_bytes += static_cast<double>(ls.log_bytes);
    c.ls_compactions += static_cast<double>(ls.compactions);
    c.ls_replayed_records += static_cast<double>(ls.replayed_records);
    c.ls_arena_bytes += static_cast<double>(store.arena_bytes());
    c.ls_dead_fraction_max = std::max(c.ls_dead_fraction_max, store.dead_fraction());
    if (store.wal() != nullptr) {
      const wal::WalStats& ws = store.wal()->stats();
      c.wal_bytes += static_cast<double>(ws.bytes_appended);
      c.wal_syncs += static_cast<double>(ws.syncs);
      c.wal_checkpoints += static_cast<double>(ws.checkpoints);
      c.wal_segments_sealed += static_cast<double>(ws.segments_sealed);
    }

    const query::QueryService::Counters& qc = dep.query(i).counters();
    c.q_blocks_sent += static_cast<double>(qc.blocks_sent);
    c.q_rows_routed += static_cast<double>(qc.rows_routed);
    c.q_rows_shipped += static_cast<double>(qc.rows_shipped);
    c.q_scans_restarted += static_cast<double>(qc.scans_restarted);
  }
  c.net_messages = static_cast<double>(dep.network().total_messages());
  c.net_bytes = static_cast<double>(dep.network().total_bytes());
  c.net_max_inbox_msgs = static_cast<double>(dep.network().MaxInboxMessages());
  c.sim_events = static_cast<double>(dep.sim().events_fired());
  c.sim_pending = static_cast<double>(dep.sim().pending_events());
  return c;
}

LayerCounters LayerCounters::Delta(const LayerCounters& later,
                                   const LayerCounters& earlier) {
  LayerCounters d;
#define PERFBENCH_DELTA(name, level) \
  d.name = (level) ? later.name : later.name - earlier.name;
  PERFBENCH_LAYER_COUNTERS(PERFBENCH_DELTA)
#undef PERFBENCH_DELTA
  return d;
}

std::vector<std::pair<const char*, double>> LayerCounters::NonZero() const {
  std::vector<std::pair<const char*, double>> out;
#define PERFBENCH_NONZERO(name, level) \
  if (name != 0) out.emplace_back(#name, name);
  PERFBENCH_LAYER_COUNTERS(PERFBENCH_NONZERO)
#undef PERFBENCH_NONZERO
  return out;
}

}  // namespace orchestra::perfbench
