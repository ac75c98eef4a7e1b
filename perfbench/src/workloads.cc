#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/rng.h"
#include "common/serial.h"
#include "deploy/deployment.h"
#include "optimizer/optimizer.h"
#include "query/reference.h"
#include "sql/parser.h"
#include "workload/tpch.h"
#include "workload/workload.h"

namespace orchestra::perfbench {
namespace {

using sim::SimTime;
using storage::Epoch;
using storage::KeyFilter;
using storage::Tuple;
using storage::Update;
using storage::UpdateBatch;
using storage::Value;
using storage::ValueType;
using workload::GeneratedRelation;

constexpr SimTime kSec = sim::kMicrosPerSec;
/// A batch that fails this many times in a row never commits: the run fails.
constexpr int kMaxAttempts = 16;
/// No operation resolving for this long of simulated time is a wedge.
constexpr SimTime kWedgeUs = 900 * kSec;

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

uint64_t TupleBytes(const Tuple& t) {
  Writer w;
  storage::EncodeTuple(t, &w);
  return w.size();
}

/// FNV-1a over the bytes of `s`, continuing from `h`.
uint64_t MixBytes(uint64_t h, std::string_view s) {
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t MixTuple(uint64_t h, const Tuple& t) {
  Writer w;
  storage::EncodeTuple(t, &w);
  return MixBytes(h, w.Release());
}

// ---------------------------------------------------------------------------
// The benchmark's own model of the data: every key's versions by epoch.

class Model {
 public:
  void AddRelation(const storage::RelationDef& def) { rels_[def.name].schema = def.schema; }

  void Apply(Epoch e, const UpdateBatch& batch) {
    for (const auto& [name, updates] : batch) {
      Rel& rel = rels_.at(name);
      for (const Update& u : updates) {
        Versions& versions = rel.rows[storage::EncodeTupleKey(rel.schema, u.tuple)];
        std::optional<Tuple> v;
        if (u.kind == Update::Kind::kInsert) v = u.tuple;
        // Commits of different writers may resolve out of epoch order.
        auto it = std::upper_bound(versions.begin(), versions.end(), e,
                                   [](Epoch x, const Version& ver) { return x < ver.first; });
        versions.insert(it, {e, std::move(v)});
      }
    }
  }

  std::vector<Tuple> Rows(const std::string& name, Epoch e, const KeyFilter& f) const {
    std::vector<Tuple> out;
    const Rel& rel = rels_.at(name);
    auto it = f.all ? rel.rows.begin() : rel.rows.lower_bound(f.lo);
    for (; it != rel.rows.end(); ++it) {
      if (!f.all && it->first > f.hi) break;
      if (const Tuple* t = At(it->second, e)) out.push_back(*t);
    }
    return out;
  }

  query::ReferenceDatabase Database(Epoch e) const {
    query::ReferenceDatabase db;
    for (const auto& [name, rel] : rels_) db[name] = Rows(name, e, KeyFilter{});
    return db;
  }

  uint64_t LiveBytes(Epoch e) const {
    uint64_t bytes = 0;
    for (const auto& [name, rel] : rels_) {
      for (const auto& [key, versions] : rel.rows) {
        if (const Tuple* t = At(versions, e)) bytes += TupleBytes(*t);
      }
    }
    return bytes;
  }

  /// Forgets versions no read at or above `floor` can see.
  void Prune(Epoch floor) {
    for (auto& [name, rel] : rels_) {
      for (auto it = rel.rows.begin(); it != rel.rows.end();) {
        Versions& v = it->second;
        size_t keep = 0;  // index of the newest version at or below floor
        while (keep + 1 < v.size() && v[keep + 1].first <= floor) ++keep;
        v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(keep));
        if (v.size() == 1 && v[0].first <= floor && !v[0].second) {
          it = rel.rows.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

 private:
  using Version = std::pair<Epoch, std::optional<Tuple>>;
  using Versions = std::vector<Version>;
  struct Rel {
    storage::Schema schema;
    std::map<std::string, Versions> rows;  // by key bytes, as KeyFilter orders
  };

  static const Tuple* At(const Versions& versions, Epoch e) {
    const Tuple* found = nullptr;
    for (const Version& v : versions) {
      if (v.first > e) break;
      found = v.second ? &*v.second : nullptr;
    }
    return found;
  }

  std::map<std::string, Rel> rels_;
};

// ---------------------------------------------------------------------------
// Spans recorded from the benchmark's own calls into the program.

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
  SimTime sim_start = 0;
  SimTime sim_end = 0;
  int64_t cpu_start = 0;
  int64_t cpu_end = 0;
  LayerCounters delta;
};

class Tracer {
 public:
  Tracer(deploy::Deployment* dep, bool on) : dep_(dep), on_(on) {}

  /// Opens a span; returns 0 (a no-op id) when tracing is off.
  uint64_t Begin(const char* name, uint64_t parent, uint64_t op) {
    if (!on_) return 0;
    Span s;
    s.name = name;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.op = op;
    s.sim_start = dep_->sim().now();
    open_[s.id] = LayerCounters::Capture(*dep_);
    s.cpu_start = ThreadCpuNs();
    spans_.push_back(s);
    return s.id;
  }

  void End(uint64_t id) {
    if (id == 0) return;
    Span& s = spans_[id - 1];
    s.cpu_end = ThreadCpuNs();
    s.sim_end = dep_->sim().now();
    auto it = open_.find(id);
    s.delta = LayerCounters::Delta(LayerCounters::Capture(*dep_), it->second);
    open_.erase(it);
  }

  void SetParent(uint64_t id, uint64_t parent) {
    if (id != 0) spans_[id - 1].parent = parent;
  }

  size_t size() const { return spans_.size(); }

  /// Per span name: count, host CPU total and self (minus child spans), and
  /// simulated time. Op spans overlap one another, so an op's self time
  /// includes work done for other ops while it was outstanding.
  std::vector<std::string> Summary() const {
    std::vector<int64_t> child_ns(spans_.size() + 1, 0);
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ns[s.parent] += s.cpu_end - s.cpu_start;
    }
    struct Agg {
      uint64_t n = 0;
      double total_us = 0, self_us = 0, sim_ms = 0;
    };
    std::map<std::string, Agg> by_name;
    for (const Span& s : spans_) {
      Agg& a = by_name[s.name];
      ++a.n;
      const double total = static_cast<double>(s.cpu_end - s.cpu_start) / 1e3;
      a.total_us += total;
      a.self_us += total - static_cast<double>(child_ns[s.id]) / 1e3;
      a.sim_ms += static_cast<double>(s.sim_end - s.sim_start) / 1e3;
    }
    std::vector<std::string> out;
    for (const auto& [name, a] : by_name) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "span %-16s n=%-7llu host_total_ms=%.3f host_self_ms=%.3f "
                    "self_us_per_span=%.3f sim_ms_per_span=%.3f",
                    name.c_str(), static_cast<unsigned long long>(a.n),
                    a.total_us / 1e3, a.self_us / 1e3,
                    a.self_us / static_cast<double>(a.n),
                    a.sim_ms / static_cast<double>(a.n));
      out.push_back(buf);
    }
    return out;
  }

  /// One JSON object per line: the summary first, then every span.
  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const std::string& line : Summary()) {
      std::fprintf(f, "{\"summary\": \"%s\"}\n", line.c_str());
    }
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\": %llu, \"parent\": %llu, \"op\": %llu, \"name\": \"%s\", "
                   "\"sim_start_us\": %lld, \"sim_end_us\": %lld, "
                   "\"cpu_start_ns\": %lld, \"cpu_end_ns\": %lld, \"counters\": {",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op), s.name,
                   static_cast<long long>(s.sim_start), static_cast<long long>(s.sim_end),
                   static_cast<long long>(s.cpu_start), static_cast<long long>(s.cpu_end));
      bool first = true;
      for (const auto& [name, v] : s.delta.NonZero()) {
        std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ", name, v);
        first = false;
      }
      std::fprintf(f, "}}\n");
    }
    return std::fclose(f) == 0;
  }

 private:
  deploy::Deployment* dep_;
  bool on_;
  std::vector<Span> spans_;
  std::unordered_map<uint64_t, LayerCounters> open_;
};

// ---------------------------------------------------------------------------
// Workload definitions.

struct WriterSpec {
  size_t node = 0;
  /// Closed loop: batches kept in flight. 0 selects the open loop.
  size_t outstanding = 1;
  /// Open loop: mean gap between arrivals. The gaps are exponential,
  /// rescaled so the whole schedule lasts exactly batches * interval_us.
  /// Closed loop: mean exponential think time before the next batch.
  SimTime interval_us = 0;
  uint64_t batches = 0;
};

struct ClientSpec {
  size_t node = 0;
  /// Operations to complete; the phase also runs on until its writers end.
  uint64_t count = 0;
  /// Closed loop: mean of the exponential think time between a result and
  /// the next request (0: none).
  SimTime think_us = 0;
};

struct Spec {
  /// Draws open-loop gaps and think times. Random gaps keep the clients'
  /// schedules from phase-locking, which fixed periods do in a
  /// deterministic simulation, making percentiles depend on the alignment.
  std::shared_ptr<Rng> timing;
  deploy::DeploymentOptions options;
  std::vector<GeneratedRelation> initial;  // created and loaded at set-up
  /// Write phase. A separate read phase follows when `read_after_write`;
  /// otherwise the readers run beside the writers.
  std::vector<WriterSpec> writers;
  std::function<UpdateBatch(size_t writer)> make_batch;
  bool read_after_write = true;
  ClientSpec reader;
  std::function<std::pair<std::string, KeyFilter>()> make_range;
  ClientSpec querier;
  std::function<std::string()> make_sql;
  /// Relations the post-run crash check retrieves in full.
  std::vector<std::string> written;
  size_t crash_victim = 1;
};

uint64_t Scaled(double scale, uint64_t n) {
  return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(scale * static_cast<double>(n))));
}

/// Filter over keys whose leading int64 attribute lies in [lo, hi]. The
/// upper bound extends past any trailing key attributes.
KeyFilter LeadingRange(int64_t lo, int64_t hi) {
  KeyFilter f;
  f.all = false;
  Value(lo).EncodeOrdered(&f.lo);
  Value(hi).EncodeOrdered(&f.hi);
  f.hi.append(16, '\xff');
  return f;
}

/// The `hot` relation of the publish workloads: (k, grp, v), keyed on k.
storage::RelationDef HotRelation(uint32_t partitions) {
  storage::RelationDef def;
  def.name = "hot";
  def.schema = storage::Schema({{"k", ValueType::kInt64},
                                {"grp", ValueType::kInt64},
                                {"v", ValueType::kString}},
                               1);
  def.num_partitions = partitions;
  return def;
}

Tuple HotRow(Rng* rng, int64_t k) {
  return {Value(k), Value(k % 16), Value(rng->AlphaString(90 + rng->Uniform(21)))};
}

/// Zipf(s) sampler over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(uint64_t n, double s) : cdf_(n) {
    double sum = 0;
    for (uint64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  uint64_t Sample(Rng* rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng->NextDouble());
    return std::min<uint64_t>(static_cast<uint64_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Read-phase clients shared by both publish workloads: key-range retrieves
/// of about 48 keys and three SQL shapes over `hot`, with fresh constants in
/// every request.
void AddHotReaders(Spec* spec, std::shared_ptr<Rng> rng, int64_t key_space,
                   size_t reader_node, size_t querier_node, double scale) {
  spec->reader = {reader_node, Scaled(scale, 1000)};
  spec->make_range = [rng, key_space] {
    int64_t lo = static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(key_space)));
    return std::make_pair(std::string("hot"), LeadingRange(lo, lo + 47));
  };
  spec->querier = {querier_node, Scaled(scale, 200)};
  auto turn = std::make_shared<uint64_t>(0);
  spec->make_sql = [rng, key_space, turn] {
    const int64_t lo = static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(key_space)));
    switch ((*turn)++ % 3) {
      case 0:
        return std::string("SELECT grp, COUNT(*) AS n, SUM(k) AS s FROM hot GROUP BY grp");
      case 1:
        return "SELECT k, v FROM hot WHERE k BETWEEN " + std::to_string(lo) + " AND " +
               std::to_string(lo + 255);
      default:
        return "SELECT MIN(k), MAX(k), COUNT(*) FROM hot WHERE grp <> " +
               std::to_string(lo % 16);
    }
  };
}

Spec PublishSteady(uint64_t seed, double scale) {
  constexpr uint64_t kWorkingSet = 16384;  // power of two: see the key scramble
  constexpr size_t kBatch = 64;
  Spec spec;
  spec.options.num_nodes = 8;
  spec.options.replication = 3;
  spec.options.gc_keep_epochs = 6;
  spec.options.seed = seed;
  auto rng = std::make_shared<Rng>(seed);

  GeneratedRelation hot;
  hot.def = HotRelation(256);
  for (uint64_t k = 0; k < kWorkingSet; ++k) {
    hot.rows.push_back(HotRow(rng.get(), static_cast<int64_t>(k)));
  }
  spec.initial.push_back(std::move(hot));

  spec.writers = {WriterSpec{0, 4, 0, Scaled(scale, 1000)}};
  auto zipf = std::make_shared<Zipf>(kWorkingSet, 0.99);
  auto next_new = std::make_shared<int64_t>(static_cast<int64_t>(kWorkingSet));
  spec.make_batch = [rng, zipf, next_new](size_t) {
    UpdateBatch batch;
    auto& ups = batch["hot"];
    std::set<int64_t> used;
    while (ups.size() < kBatch) {
      const double r = rng->NextDouble();
      if (r < 0.05) {  // insert a brand-new key
        const int64_t k = (*next_new)++;
        used.insert(k);
        ups.push_back(Update::Insert(HotRow(rng.get(), k)));
        continue;
      }
      // Zipf rank, scrambled so hot keys spread over partitions (odd
      // multiplier mod a power of two is a permutation).
      const uint64_t rank = zipf->Sample(rng.get());
      const auto k = static_cast<int64_t>((rank * 2654435761ull) % kWorkingSet);
      if (!used.insert(k).second) continue;
      if (r < 0.10) {
        ups.push_back(Update::Delete(HotRow(rng.get(), k)));
      } else {
        ups.push_back(Update::Insert(HotRow(rng.get(), k)));
      }
    }
    return batch;
  };
  AddHotReaders(&spec, rng, static_cast<int64_t>(kWorkingSet), 2, 1, scale);
  spec.written = {"hot"};
  spec.crash_victim = 1 + seed % 7;
  return spec;
}

Spec PublishContended(uint64_t seed, double scale) {
  constexpr size_t kWriters = 16;
  constexpr int64_t kStripe = 64;
  constexpr size_t kBatch = 8;
  Spec spec;
  spec.options.num_nodes = kWriters + 2;
  spec.options.replication = 3;
  spec.options.fence_after_us = 8 * kSec;
  spec.options.seed = seed;
  auto rng = std::make_shared<Rng>(seed);

  GeneratedRelation hot;
  hot.def = HotRelation(16);
  for (int64_t k = 0; k < static_cast<int64_t>(kWriters) * kStripe; ++k) {
    hot.rows.push_back(HotRow(rng.get(), k));
  }
  spec.initial.push_back(std::move(hot));

  const uint64_t per_writer = Scaled(scale, 192);
  // Exponential think time between a writer's commit and its next batch, so
  // writers keep colliding at random instead of settling into a schedule.
  for (size_t w = 0; w < kWriters; ++w) {
    spec.writers.push_back({w, 1, 20 * sim::kMicrosPerMilli, per_writer});
  }
  spec.make_batch = [rng](size_t w) {
    UpdateBatch batch;
    auto& ups = batch["hot"];
    std::set<int64_t> used;
    while (ups.size() < kBatch) {
      const int64_t k = static_cast<int64_t>(w) * kStripe +
                        static_cast<int64_t>(rng->Uniform(kStripe));
      if (!used.insert(k).second) continue;
      if (rng->OneIn(8)) {
        ups.push_back(Update::Delete(HotRow(rng.get(), k)));
      } else {
        ups.push_back(Update::Insert(HotRow(rng.get(), k)));
      }
    }
    return batch;
  };
  AddHotReaders(&spec, rng, static_cast<int64_t>(kWriters) * kStripe, kWriters + 1,
                kWriters, scale);
  spec.written = {"hot"};
  spec.crash_victim = kWriters + seed % 2;
  return spec;
}

Spec QueryMix(uint64_t seed, double scale) {
  Spec spec;
  spec.options.num_nodes = 8;
  spec.options.replication = 3;
  // Retire versions 32 epochs (320 ms of writes) behind the head: far older
  // than any read in flight, and it keeps the footprint bounded.
  spec.options.gc_keep_epochs = 32;
  spec.options.seed = seed;
  auto rng = std::make_shared<Rng>(seed);

  workload::TpchConfig cfg;
  cfg.scale_factor = 0.002;
  cfg.seed = 7;  // fixed base data, as dbgen's; the seed drives everything else
  cfg.num_partitions = 64;
  spec.initial = workload::TpchGenerate(cfg);
  int64_t n_orders = 0, n_customer = 0, n_part = 0, n_supplier = 0;
  for (const GeneratedRelation& r : spec.initial) {
    const auto n = static_cast<int64_t>(r.rows.size());
    if (r.def.name == "orders") n_orders = n;
    if (r.def.name == "customer") n_customer = n;
    if (r.def.name == "part") n_part = n;
    if (r.def.name == "supplier") n_supplier = n;
  }

  // Writer: open loop, one small lineitem/orders batch every 10 ms on average.
  spec.read_after_write = false;
  spec.writers = {WriterSpec{0, 0, 10 * sim::kMicrosPerMilli, Scaled(scale, 2000)}};
  auto next_order = std::make_shared<int64_t>(n_orders + 1);
  auto lineitem = [=](Rng* r, int64_t order, int64_t line) -> Tuple {
    const int64_t ship = workload::TpchDate(1992, 1, 2) + static_cast<int64_t>(r->Uniform(2400));
    const double qty = 1 + static_cast<double>(r->Uniform(50));
    return {Value(order), Value(line),
            Value(1 + static_cast<int64_t>(r->Uniform(static_cast<uint64_t>(n_part)))),
            Value(1 + static_cast<int64_t>(r->Uniform(static_cast<uint64_t>(n_supplier)))),
            Value(qty), Value(qty * (900.0 + static_cast<double>(r->Uniform(100000)) / 100.0)),
            Value(static_cast<double>(r->Uniform(11)) / 100.0),
            Value(static_cast<double>(r->Uniform(9)) / 100.0),
            Value(std::string(r->OneIn(2) ? "R" : "N")),
            Value(std::string(r->OneIn(2) ? "F" : "O")), Value(ship),
            Value(ship + 30), Value(ship + 1 + static_cast<int64_t>(r->Uniform(30)))};
  };
  auto order_row = [=](Rng* r, int64_t order) -> Tuple {
    return {Value(order),
            Value(1 + static_cast<int64_t>(r->Uniform(static_cast<uint64_t>(n_customer)))),
            Value(std::string("O")), Value(1000.0 + static_cast<double>(r->Uniform(100000))),
            Value(workload::TpchDate(1992, 1, 1) + static_cast<int64_t>(r->Uniform(2400))),
            Value(std::string("3-MEDIUM")), Value(int64_t{0})};
  };
  spec.make_batch = [rng, n_orders, next_order, lineitem, order_row](size_t) {
    UpdateBatch batch;
    auto& li = batch["lineitem"];
    auto& ord = batch["orders"];
    std::set<int64_t> touched;
    while (touched.size() < 4) {
      const int64_t o = 1 + static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(n_orders)));
      if (touched.insert(o).second) li.push_back(Update::Insert(lineitem(rng.get(), o, 1)));
    }
    const int64_t o = 1 + static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(n_orders)));
    ord.push_back(Update::Insert(order_row(rng.get(), o)));
    if (rng->OneIn(4)) {  // a new order with two lines
      const int64_t fresh = (*next_order)++;
      ord.push_back(Update::Insert(order_row(rng.get(), fresh)));
      li.push_back(Update::Insert(lineitem(rng.get(), fresh, 1)));
      li.push_back(Update::Insert(lineitem(rng.get(), fresh, 2)));
    } else if (rng->OneIn(3)) {  // drop one line of an untouched order
      int64_t victim = 0;
      do {
        victim = 1 + static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(n_orders)));
      } while (touched.count(victim) != 0);
      li.push_back(Update::Delete(lineitem(rng.get(), victim, 2)));
    }
    return batch;
  };

  spec.reader = {2, Scaled(scale, 1000), 5 * sim::kMicrosPerMilli};
  spec.make_range = [rng, n_orders] {
    const int64_t lo =
        1 + static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(n_orders - 32)));
    if (rng->OneIn(2)) return std::make_pair(std::string("lineitem"), LeadingRange(lo, lo + 7));
    return std::make_pair(std::string("orders"), LeadingRange(lo, lo + 23));
  };
  spec.querier = {1, Scaled(scale, 200), 30 * sim::kMicrosPerMilli};
  auto turn = std::make_shared<uint64_t>(0);
  spec.make_sql = [turn] {
    const std::vector<std::string> names = workload::TpchQueryNames();
    return workload::TpchQuerySql(names[(*turn)++ % names.size()]);
  };
  spec.written = {"lineitem", "orders"};
  spec.crash_victim = 1 + seed % 7;
  return spec;
}

Spec MakeSpec(const std::string& name, uint64_t seed, double scale) {
  Spec spec = name == "publish_steady"      ? PublishSteady(seed, scale)
              : name == "publish_contended" ? PublishContended(seed, scale)
                                            : QueryMix(seed, scale);
  spec.timing = std::make_shared<Rng>(seed ^ 0x7469'6d69'6e67ull);
  return spec;
}

/// Exponentially distributed delay with the given mean, at least 1 us.
SimTime Exponential(Rng* rng, SimTime mean_us) {
  const double u = rng->NextDouble();
  return std::max<SimTime>(1, static_cast<SimTime>(-std::log1p(-u) * static_cast<double>(mean_us)));
}

/// Open-loop arrival gaps: `n` exponential gaps with mean `mean_us`,
/// rescaled so they sum to exactly n * mean_us.
std::vector<SimTime> ArrivalGaps(Rng* rng, uint64_t n, SimTime mean_us) {
  std::vector<double> raw;
  double total = 0;
  for (uint64_t i = 0; i < n; ++i) {
    raw.push_back(static_cast<double>(Exponential(rng, mean_us)));
    total += raw.back();
  }
  const double want = static_cast<double>(mean_us) * static_cast<double>(n);
  std::vector<SimTime> gaps;
  for (double g : raw) gaps.push_back(std::max<SimTime>(1, std::llround(g * want / total)));
  return gaps;
}

// ---------------------------------------------------------------------------
// The runner: issues operations, drives the simulator until one resolves,
// checks every result, and accounts host CPU spent inside program calls.

/// Resolutions, and due times of open-loop batches and of reads after
/// their think time.
enum class OpKind : uint8_t { kPublish, kRetrieve, kQuery, kDue, kRetrieveDue, kQueryDue };

struct Completion {
  OpKind kind;
  size_t client;
  uint64_t op;
};

struct InFlightBatch {
  UpdateBatch updates;
  SimTime start = 0;  // first submit, or due time in an open loop
  int attempts = 0;
  uint64_t span = 0;
  client::Ticket ticket;
};

struct WriterState {
  WriterSpec spec;
  uint64_t generated = 0;
  uint64_t finished = 0;  // committed, or failed for good
  std::map<uint64_t, InFlightBatch> in_flight;  // by op id
  std::vector<SimTime> gaps;  // open loop: the arrival schedule
  uint64_t tuples = 0;        // committed
  SimTime last_commit = 0;
};

struct ReadState {
  bool busy = false;
  uint64_t done = 0;
  uint64_t op = 0;
  Epoch epoch = 0;
  SimTime start = 0;
  uint64_t span = 0;
  std::string relation;  // retrieve
  KeyFilter filter;      // retrieve
  Pending<std::vector<Tuple>> rows;
  query::PhysicalPlan plan;  // query
  Pending<query::QueryResult> result;
};

class Runner {
 public:
  Runner(const Spec& spec, deploy::Deployment* dep, Model* model, Tracer* tracer,
         Epoch base)
      : spec_(spec), dep_(dep), model_(model), tracer_(tracer), frontier_(base) {
    committed_epochs_.insert(base);
  }

  // Outputs.
  std::vector<double> publish_ms, retrieve_ms, query_ms;
  uint64_t attempted = 0, failed = 0, completed = 0;
  uint64_t commits = 0, user_tuples = 0, user_bytes = 0, ticket_retries = 0;
  uint64_t rows_retrieved = 0, rows_queried = 0;
  int64_t program_ns = 0, submit_ns = 0, parse_ns = 0, plan_ns = 0, sim_ns = 0;
  /// Footprint samples: summed arena bytes and live user bytes, taken
  /// every `footprint_every` commits and at the end of the measured phases.
  double arena_sum = 0, live_sum = 0;
  uint64_t footprint_every = 1;
  uint64_t submits = 0, parses = 0, plans = 0;
  double candidates = 0, pending_max = 0;
  SimTime write_start = 0;
  std::vector<std::string> errors;
  /// FNV-1a over every generated input: initial rows, batches, read ranges
  /// and SQL text.
  uint64_t input_digest = 0xcbf29ce484222325ull;

  Epoch frontier() const { return frontier_; }

  /// Committed tuples per sim-second, summed over writers, each over its own
  /// run from the phase start to its last commit. Summing per-writer rates
  /// keeps the figure from hinging on when the slowest writer finishes.
  double CommitTuplesPerSimS() const {
    double rate = 0;
    for (const WriterState& w : writers_) {
      if (w.last_commit > write_start) {
        rate += static_cast<double>(w.tuples) /
                (static_cast<double>(w.last_commit - write_start) / 1e6);
      }
    }
    return rate;
  }

  void SampleFootprint() {
    for (size_t i = 0; i < dep_->size(); ++i) {
      arena_sum += static_cast<double>(dep_->storage(i).store().arena_bytes());
    }
    live_sum += static_cast<double>(model_->LiveBytes(frontier_));
  }

  /// Runs the write phase (with readers beside it unless the spec separates
  /// them), then the read phase. False when a wedge or a failed op stops it.
  bool Run() {
    for (const WriterSpec& w : spec_.writers) writers_.push_back(WriterState{w, 0, 0, {}, {}, 0, 0});
    optimizer_ = std::make_unique<optimizer::Optimizer>(
        workload::StatsFor(spec_.initial), CostParamsFor());
    write_start = dep_->sim().now();
    for (size_t i = 0; i < writers_.size(); ++i) StartWriter(i);
    if (!spec_.read_after_write) {
      reads_on_ = true;
      IssueRetrieve();
      IssueQuery();
    }
    if (!Loop([this] { return WritersDone() && (!reads_on_ || ReadsDone()); })) return false;
    if (spec_.read_after_write) {
      reads_on_ = true;
      IssueRetrieve();
      IssueQuery();
      if (!Loop([this] { return ReadsDone(); })) return false;
    }
    return errors.empty();
  }

  void Fail(std::string why) {
    if (errors.size() < 20) errors.push_back(std::move(why));
  }

 private:
  optimizer::CostParams CostParamsFor() const {
    optimizer::CostParams params;
    params.num_nodes = dep_->size();
    params.bandwidth_bytes_per_sec = dep_->options().link.bandwidth_bytes_per_sec;
    return params;
  }

  template <typename F>
  auto InProgram(int64_t* bucket, F&& f) {
    const int64_t t0 = ThreadCpuNs();
    auto r = f();
    const int64_t dt = ThreadCpuNs() - t0;
    program_ns += dt;
    if (bucket != nullptr) *bucket += dt;
    return r;
  }

  bool WritersDone() const {
    for (const WriterState& w : writers_) {
      if (w.finished < w.spec.batches) return false;
    }
    return true;
  }

  bool ReadsDone() const {
    return !reader_.busy && !querier_.busy && reader_.done >= spec_.reader.count &&
           querier_.done >= spec_.querier.count;
  }

  /// Readers keep issuing until their counts are met and the writers ended.
  bool KeepReading(const ReadState& s, uint64_t count) const {
    return reads_on_ && (s.done < count || !WritersDone());
  }

  // --- writers --------------------------------------------------------------

  void StartWriter(size_t w) {
    WriterState& ws = writers_[w];
    if (ws.spec.outstanding == 0) {
      ws.gaps = ArrivalGaps(spec_.timing.get(), ws.spec.batches, ws.spec.interval_us);
      ScheduleDue(w, dep_->sim().now());
      return;
    }
    for (size_t i = 0; i < ws.spec.outstanding; ++i) NewBatch(w, dep_->sim().now());
  }

  void ScheduleDue(size_t w, SimTime at) {
    dep_->sim().Schedule(at, [this, w] {
      queue_.push_back({OpKind::kDue, w, 0});
    });
  }

  void NextClosedLoopBatch(size_t w) {
    const SimTime think = writers_[w].spec.interval_us;
    if (think == 0) return NewBatch(w, dep_->sim().now());
    ScheduleDue(w, dep_->sim().now() + Exponential(spec_.timing.get(), think));
  }

  void NewBatch(size_t w, SimTime start) {
    WriterState& ws = writers_[w];
    if (ws.generated >= ws.spec.batches) return;
    ++ws.generated;
    ++attempted;
    const uint64_t op = ++next_op_;
    InFlightBatch& b = ws.in_flight[op];
    b.updates = spec_.make_batch(w);
    for (const auto& [rel, ups] : b.updates) {
      for (const Update& u : ups) input_digest = MixTuple(input_digest, u.tuple);
    }
    b.start = start;
    b.span = tracer_->Begin("op.publish", 0, op);
    Submit(w, op);
  }

  void Submit(size_t w, uint64_t op) {
    InFlightBatch& b = writers_[w].in_flight.at(op);
    ++b.attempts;
    const uint64_t span = tracer_->Begin("client.submit", b.span, op);
    b.ticket = InProgram(&submit_ns, [&] {
      return dep_->session(writers_[w].spec.node).Submit(b.updates);
    });
    ++submits;
    tracer_->End(span);
    b.ticket.epoch.OnReady([this, w, op] { queue_.push_back({OpKind::kPublish, w, op}); });
  }

  void OnPublish(size_t w, uint64_t op) {
    WriterState& ws = writers_[w];
    InFlightBatch& b = ws.in_flight.at(op);
    if (!b.ticket.epoch.ok()) {
      if (b.attempts >= kMaxAttempts) {
        ++failed;
        Fail("batch never committed: " + b.ticket.epoch.status().ToString());
        tracer_->End(b.span);
        ws.in_flight.erase(op);
        ++ws.finished;
        if (ws.spec.outstanding > 0) NextClosedLoopBatch(w);
        return;
      }
      ++ticket_retries;
      Submit(w, op);  // same batch, same participant
      return;
    }
    const Epoch e = b.ticket.epoch.value();
    publish_ms.push_back(static_cast<double>(dep_->sim().now() - b.start) / 1e3);
    tracer_->End(b.span);
    model_->Apply(e, b.updates);
    for (const auto& [rel, ups] : b.updates) {
      user_tuples += ups.size();
      for (const Update& u : ups) user_bytes += TupleBytes(u.tuple);
    }
    ++commits;
    ++completed;
    ++ws.finished;
    for (const auto& [rel, ups] : b.updates) ws.tuples += ups.size();
    ws.last_commit = dep_->sim().now();
    committed_epochs_.insert(e);
    while (committed_epochs_.count(frontier_ + 1) != 0) ++frontier_;
    ws.in_flight.erase(op);
    if (ws.spec.outstanding > 0) NextClosedLoopBatch(w);
    if (commits % 64 == 0) model_->Prune(ReadFloor());
    if (commits % footprint_every == 0) SampleFootprint();
  }

  /// Oldest epoch a read still in flight may need.
  Epoch ReadFloor() const {
    Epoch floor = frontier_;
    if (reader_.busy) floor = std::min(floor, reader_.epoch);
    if (querier_.busy) floor = std::min(floor, querier_.epoch);
    return floor;
  }

  // --- readers --------------------------------------------------------------

  void IssueRetrieve() {
    if (!KeepReading(reader_, spec_.reader.count)) return;
    ReadState& s = reader_;
    s.busy = true;
    ++attempted;
    s.op = ++next_op_;
    std::tie(s.relation, s.filter) = spec_.make_range();
    input_digest = MixBytes(MixBytes(input_digest, s.filter.lo), s.filter.hi);
    s.epoch = frontier_;
    s.start = dep_->sim().now();
    s.span = tracer_->Begin("op.retrieve", 0, s.op);
    const uint64_t span = tracer_->Begin("client.submit", s.span, s.op);
    s.rows = InProgram(nullptr, [&] {
      return dep_->session(spec_.reader.node).Retrieve(s.relation, s.epoch, s.filter);
    });
    tracer_->End(span);
    const uint64_t op = s.op;
    s.rows.OnReady([this, op] { queue_.push_back({OpKind::kRetrieve, 0, op}); });
  }

  void OnRetrieve() {
    ReadState& s = reader_;
    s.busy = false;
    tracer_->End(s.span);
    if (!s.rows.ok()) {
      ++failed;
      Fail("retrieve failed: " + s.rows.status().ToString());
    } else {
      retrieve_ms.push_back(static_cast<double>(dep_->sim().now() - s.start) / 1e3);
      rows_retrieved += s.rows.value().size();
      ++completed;
      ++s.done;
      if (!query::SameBag(s.rows.value(), model_->Rows(s.relation, s.epoch, s.filter))) {
        Fail("retrieve of " + s.relation + " at epoch " + std::to_string(s.epoch) +
             " differs from the model");
      }
    }
    AfterThink(OpKind::kRetrieveDue, spec_.reader.think_us);
  }

  void IssueQuery() {
    if (!KeepReading(querier_, spec_.querier.count)) return;
    ReadState& s = querier_;
    s.busy = true;
    ++attempted;
    s.op = ++next_op_;
    const std::string text = spec_.make_sql();
    input_digest = MixBytes(input_digest, text);
    s.epoch = frontier_;
    s.start = dep_->sim().now();
    s.span = tracer_->Begin("op.query", 0, s.op);
    storage::StorageService& catalog_node = dep_->storage(spec_.querier.node);
    auto catalog = [&catalog_node](const std::string& name) {
      return catalog_node.Relation(name);
    };
    uint64_t span = tracer_->Begin("sql.parse", s.span, s.op);
    auto analyzed = InProgram(&parse_ns, [&] { return sql::ParseAndAnalyze(text, catalog); });
    ++parses;
    tracer_->End(span);
    if (!analyzed.ok()) return QueryNotIssued(text, analyzed.status());
    span = tracer_->Begin("optimizer.plan", s.span, s.op);
    auto planned = InProgram(&plan_ns, [&] { return optimizer_->Plan(*analyzed); });
    ++plans;
    candidates += static_cast<double>(optimizer_->search_stats().candidates_generated);
    tracer_->End(span);
    if (!planned.ok()) return QueryNotIssued(text, planned.status());
    s.plan = planned->plan;
    span = tracer_->Begin("client.submit", s.span, s.op);
    s.result = InProgram(nullptr, [&] {
      return dep_->session(spec_.querier.node).Query(s.plan, s.epoch);
    });
    tracer_->End(span);
    const uint64_t op = s.op;
    s.result.OnReady([this, op] { queue_.push_back({OpKind::kQuery, 0, op}); });
  }

  void QueryNotIssued(const std::string& text, const Status& st) {
    querier_.busy = false;
    tracer_->End(querier_.span);
    ++failed;
    Fail("query not planned: " + st.ToString() + " for " + text);
  }

  void OnQuery() {
    ReadState& s = querier_;
    s.busy = false;
    tracer_->End(s.span);
    if (!s.result.ok()) {
      ++failed;
      Fail("query failed: " + s.result.status().ToString());
    } else {
      query_ms.push_back(static_cast<double>(dep_->sim().now() - s.start) / 1e3);
      rows_queried += s.result.value().rows.size();
      ++completed;
      ++s.done;
      if (db_epoch_ != s.epoch || db_ == nullptr) {
        db_ = std::make_unique<query::ReferenceDatabase>(model_->Database(s.epoch));
        db_epoch_ = s.epoch;
      }
      auto expected = query::ReferenceExecute(s.plan, *db_);
      if (!expected.ok() || !query::SameBagApprox(s.result.value().rows, *expected)) {
        Fail("query result at epoch " + std::to_string(s.epoch) +
             " differs from the reference executor");
      }
    }
    AfterThink(OpKind::kQueryDue, spec_.querier.think_us);
  }

  void AfterThink(OpKind due, SimTime think_us) {
    if (think_us == 0) return Dispatch({due, 0, 0});
    dep_->sim().ScheduleAfter(Exponential(spec_.timing.get(), think_us),
                              [this, due] { queue_.push_back({due, 0, 0}); });
  }

  // --- the loop ---------------------------------------------------------------

  /// Steps the simulator until some operation resolves or a due time
  /// arrives; false on a wedge.
  bool Drive() {
    const uint64_t span = tracer_->Begin("sim.run", 0, 0);
    sim::Simulator& sim = dep_->sim();
    const SimTime deadline = sim.now() + kWedgeUs;
    bool ok = InProgram(&sim_ns, [&] {
      while (queue_.empty()) {
        if (sim.now() > deadline || !sim.Step()) return false;
      }
      return true;
    });
    pending_max = std::max(pending_max, static_cast<double>(sim.pending_events()));
    if (!queue_.empty()) tracer_->SetParent(span, SpanOf(queue_.front()));
    tracer_->End(span);
    return ok;
  }

  uint64_t SpanOf(const Completion& c) const {
    switch (c.kind) {
      case OpKind::kPublish: {
        auto it = writers_[c.client].in_flight.find(c.op);
        return it == writers_[c.client].in_flight.end() ? 0 : it->second.span;
      }
      case OpKind::kRetrieve:
        return reader_.span;
      case OpKind::kQuery:
        return querier_.span;
      case OpKind::kDue:
      case OpKind::kRetrieveDue:
      case OpKind::kQueryDue:
        return 0;
    }
    return 0;
  }

  bool Loop(const std::function<bool()>& done) {
    while (!done()) {
      if (!Drive()) {
        Fail("simulation wedged at " + std::to_string(dep_->sim().now()) + " us");
        return false;
      }
      while (!queue_.empty()) {
        const Completion c = queue_.front();
        queue_.pop_front();
        Dispatch(c);
      }
    }
    return true;
  }

  void Dispatch(const Completion& c) {
    switch (c.kind) {
      case OpKind::kPublish:
        return OnPublish(c.client, c.op);
      case OpKind::kRetrieve:
        return OnRetrieve();
      case OpKind::kQuery:
        return OnQuery();
      case OpKind::kDue: {
        WriterState& ws = writers_[c.client];
        const SimTime due = dep_->sim().now();
        NewBatch(c.client, due);
        if (ws.spec.outstanding == 0 && ws.generated < ws.spec.batches) {
          ScheduleDue(c.client, due + ws.gaps[ws.generated]);
        }
        return;
      }
      case OpKind::kRetrieveDue:
        return IssueRetrieve();
      case OpKind::kQueryDue:
        return IssueQuery();
    }
  }

  const Spec& spec_;
  deploy::Deployment* dep_;
  Model* model_;
  Tracer* tracer_;
  std::unique_ptr<optimizer::Optimizer> optimizer_;
  std::vector<WriterState> writers_;
  ReadState reader_, querier_;
  bool reads_on_ = false;
  std::deque<Completion> queue_;
  uint64_t next_op_ = 0;
  Epoch frontier_;
  std::set<Epoch> committed_epochs_;
  std::unique_ptr<query::ReferenceDatabase> db_;
  Epoch db_epoch_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"publish_steady", "publish_contended",
                                                  "query_mix"};
  return kNames;
}

RunOutput RunWorkload(const RunConfig& config) {
  RunOutput out;
  const Spec spec = MakeSpec(config.workload, config.seed, config.scale);

  // Set-up: build the deployment and load the initial data.
  std::vector<double> setup_s;
  auto set_up = [&](std::unique_ptr<deploy::Deployment>* d) {
    const int64_t t0 = ThreadCpuNs();
    *d = std::make_unique<deploy::Deployment>(spec.options);
    Result<Epoch> loaded = workload::Load(d->get(), 0, spec.initial);
    setup_s.push_back(static_cast<double>(ThreadCpuNs() - t0) / 1e9);
    if (!loaded.ok()) {
      out.correct = false;
      out.errors.push_back("initial load failed: " + loaded.status().ToString());
    }
    return loaded;
  };
  std::unique_ptr<deploy::Deployment> dep;
  Result<Epoch> loaded = set_up(&dep);
  if (!loaded.ok()) return out;
  const Epoch base = *loaded;

  Model model;
  for (const GeneratedRelation& r : spec.initial) {
    model.AddRelation(r.def);
    UpdateBatch batch;
    for (const Tuple& t : r.rows) batch[r.def.name].push_back(Update::Insert(t));
    model.Apply(base, batch);
  }

  Tracer tracer(dep.get(), config.trace);
  Runner runner(spec, dep.get(), &model, &tracer, base);
  for (const GeneratedRelation& r : spec.initial) {
    for (const Tuple& t : r.rows) runner.input_digest = MixTuple(runner.input_digest, t);
  }
  uint64_t batches = 0;
  for (const WriterSpec& w : spec.writers) batches += w.batches;
  runner.footprint_every = std::max<uint64_t>(1, batches / 20);
  dep->network().ResetTraffic();
  const LayerCounters before = LayerCounters::Capture(*dep);
  const bool ran = runner.Run();
  const LayerCounters d = LayerCounters::Delta(LayerCounters::Capture(*dep), before);
  const Epoch final_epoch = runner.frontier();
  runner.SampleFootprint();

  // Crash check: every acknowledged write survives a kill and restart.
  double replayed = 0;
  if (ran) {
    const auto victim = static_cast<net::NodeId>(spec.crash_victim);
    const double replayed0 = static_cast<double>(
        dep->storage(victim).store().stats().replayed_records);
    dep->KillNode(victim);
    dep->RunFor(1 * kSec);
    dep->RestartNode(victim);
    dep->RunFor(5 * kSec);
    replayed = static_cast<double>(dep->storage(victim).store().stats().replayed_records) -
               replayed0;
    for (const std::string& rel : spec.written) {
      auto rows = dep->Retrieve(victim, rel, final_epoch);
      if (!rows.ok()) {
        runner.Fail("post-restart retrieve of " + rel + " failed: " + rows.status().ToString());
      } else if (!query::SameBag(*rows, model.Rows(rel, final_epoch, KeyFilter{}))) {
        runner.Fail("post-restart retrieve of " + rel + " differs from the model");
      }
    }
  }

  out.trace_digest = dep->sim().trace_digest();
  dep.reset();
  // Further set-ups for the setup_s median, made in the warmed-up process:
  // at least config.setups in all, and more while they total under 1 s.
  double setup_total_s = setup_s.front();
  while (setup_s.size() < static_cast<size_t>(config.setups) ||
         (config.setups > 1 && setup_total_s < 1.0 && setup_s.size() < 25)) {
    std::unique_ptr<deploy::Deployment> again;
    if (!set_up(&again).ok()) return out;
    setup_total_s += setup_s.back();
  }

  out.errors.insert(out.errors.begin(), runner.errors.begin(), runner.errors.end());
  out.correct = out.errors.empty();
  out.attempted = runner.attempted;
  out.failed = runner.failed;
  out.input_digest = runner.input_digest;
  out.counters = d;
  out.spans = tracer.size();

  // End-to-end metrics.
  Report& e2e = out.end_to_end;
  const double ops = static_cast<double>(runner.completed);
  e2e.AddTiming("publish", runner.publish_ms, {99});
  e2e.AddTiming("query", runner.query_ms, {95});
  e2e.AddTiming("retrieve", runner.retrieve_ms, {99});
  const double rate = runner.CommitTuplesPerSimS();
  e2e.AddRatio("commit_tuples_per_sim_s", static_cast<double>(runner.user_tuples),
               rate > 0 ? static_cast<double>(runner.user_tuples) / rate : 0,
               "sim-s (per-writer rates summed)", "tuples/sim-s");
  e2e.AddRatio("wire_bytes_per_op", d.net_bytes, ops, "ops", "B/op");
  e2e.AddRatio("stored_bytes_per_user_byte", runner.arena_sum, runner.live_sum,
               "live user bytes, summed over footprint samples");
  e2e.AddRatio("host_ops_per_cpu_s", ops, static_cast<double>(runner.program_ns) / 1e9,
               "CPU-s in program calls", "ops/CPU-s");
  e2e.Add("setup_s", Median(setup_s), "s");
  e2e.Add("peak_rss_mb", PeakRssMb(), "MB");
  e2e.AddRatio("ops_failed_frac", static_cast<double>(runner.failed),
               static_cast<double>(runner.attempted), "ops attempted");

  // Per-layer metrics: deltas over the measured phases, with their bases.
  Report& pl = out.per_layer;
  const double commits = static_cast<double>(runner.commits);
  const double tuples = static_cast<double>(runner.user_tuples);
  const double ubytes = static_cast<double>(runner.user_bytes);
  const double queries = static_cast<double>(runner.query_ms.size());
  const double plans = static_cast<double>(runner.plans);
  pl.Add("client.throttle_shrinks", d.client_throttle_shrinks, "count");
  pl.Add("client.max_in_flight", d.client_max_in_flight, "count");
  pl.AddRatio("client.submit_host_us", static_cast<double>(runner.submit_ns) / 1e3,
              static_cast<double>(runner.submits), "Submit calls", "us");
  pl.AddRatio("client.ticket_retries_per_commit", static_cast<double>(runner.ticket_retries),
              commits, "commits");
  pl.AddRatio("publisher.attempts_per_commit", d.pub_publishes, commits, "commits");
  pl.AddRatio("publisher.rebases_per_commit", d.pub_rebases, commits, "commits");
  pl.AddRatio("publisher.epoch_conflicts_per_commit", d.pub_epoch_conflicts, commits,
              "commits");
  pl.Add("publisher.fenced_skips", d.pub_fenced_skips, "count");
  pl.AddRatio("publisher.chained_frac", d.pub_chained, d.pub_publishes, "publishes");
  pl.AddRatio("publisher.put_frames_per_commit", d.pub_put_frames, commits, "commits");
  pl.AddRatio("publisher.tuple_records_per_user_tuple", d.pub_tuple_records, tuples,
              "user tuples");
  pl.AddRatio("storage.claims_refused_per_commit", d.st_claims_refused, commits, "commits");
  pl.AddRatio("storage.tuples_stored_per_user_tuple", d.st_tuples_stored, tuples,
              "user tuples");
  pl.AddRatio("storage.pages_stored_per_commit", d.st_pages_stored, commits, "commits");
  pl.AddRatio("storage.coordinators_stored_per_commit", d.st_coordinators_stored, commits,
              "commits");
  pl.Add("storage.gc_slices", d.st_gc_slices, "count");
  pl.AddRatio("storage.gc_retired_per_commit", d.st_gc_retired, commits, "commits");
  pl.AddRatio("storage.tuples_served_per_row_returned", d.st_tuples_served,
              static_cast<double>(runner.rows_retrieved), "rows retrieved");
  pl.AddRatio("localstore.puts_per_user_tuple", d.ls_puts, tuples, "user tuples");
  pl.AddRatio("localstore.gets_per_op", d.ls_gets, ops, "ops");
  pl.AddRatio("localstore.log_bytes_per_user_byte", d.ls_log_bytes, ubytes, "user bytes");
  pl.Add("localstore.compactions", d.ls_compactions, "count");
  pl.Add("localstore.dead_fraction_max", d.ls_dead_fraction_max, "ratio");
  pl.AddRatio("wal.bytes_per_user_byte", d.wal_bytes, ubytes, "user bytes");
  pl.AddRatio("wal.syncs_per_commit", d.wal_syncs, commits, "commits");
  pl.Add("wal.checkpoints", d.wal_checkpoints, "count");
  pl.Add("wal.segments_sealed", d.wal_segments_sealed, "count");
  pl.Add("wal.replayed_records", replayed, "count");
  pl.AddRatio("net.messages_per_op", d.net_messages, ops, "ops");
  pl.Add("net.max_inbox_msgs", d.net_max_inbox_msgs, "count");
  pl.AddRatio("rpc.calls_per_op", d.rpc_started, ops, "ops");
  pl.Add("rpc.timed_out", d.rpc_timed_out, "count");
  pl.Add("rpc.reaped", d.rpc_reaped, "count");
  pl.AddRatio("query.rows_shipped_per_row_returned", d.q_rows_shipped,
              static_cast<double>(runner.rows_queried), "query rows");
  pl.AddRatio("query.blocks_sent_per_query", d.q_blocks_sent, queries, "queries");
  pl.AddRatio("query.rows_routed_per_query", d.q_rows_routed, queries, "queries");
  pl.Add("query.scans_restarted", d.q_scans_restarted, "count");
  pl.AddRatio("sql.parse_host_us", static_cast<double>(runner.parse_ns) / 1e3,
              static_cast<double>(runner.parses), "parses", "us");
  pl.AddRatio("optimizer.plan_host_us", static_cast<double>(runner.plan_ns) / 1e3, plans,
              "plans", "us");
  pl.AddRatio("optimizer.candidates_per_plan", runner.candidates, plans, "plans");
  pl.AddRatio("sim.events_per_op", d.sim_events, ops, "ops");
  pl.Add("sim.pending_events_max", runner.pending_max, "count");
  pl.AddRatio("sim.host_ns_per_event", static_cast<double>(runner.sim_ns), d.sim_events,
              "events", "ns");

  if (config.trace) {
    out.span_summary = tracer.Summary();
    if (!config.trace_path.empty() && !tracer.Write(config.trace_path)) {
      out.correct = false;
      out.errors.push_back("could not write " + config.trace_path);
    }
  }
  return out;
}

}  // namespace orchestra::perfbench
