#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/log.h"

namespace orchestra::optimizer {

using query::AggSpec;
using query::OpKind;
using query::PhysOp;
using query::PhysicalPlan;

namespace {

constexpr double kDefaultSelectivity = 1.0 / 3.0;
constexpr double kEqualitySelectivity = 1.0 / 10.0;

/// A physical plan fragment with its logical/physical properties.
struct SubPlan {
  std::vector<PhysOp> ops;  // local ids == index; last op need not be root
  int32_t root = -1;
  std::vector<int32_t> out_cols;   // global column index per output position
  std::vector<int32_t> part_cols;  // global cols the output is hashed on
  bool broadcast = false;          // full copy at every node
  double rows = 0;
  double row_bytes = 0;
  double cost = 0;
};

struct JoinEdge {
  uint32_t left_table, right_table;
  int32_t left_col, right_col;  // global
};

int32_t AppendOp(SubPlan* p, PhysOp op) {
  op.id = static_cast<int32_t>(p->ops.size());
  p->ops.push_back(std::move(op));
  p->root = p->ops.back().id;
  return p->root;
}

/// Appends `src`'s ops into `dst`, rebasing ids; returns src's new root id.
int32_t MergeFragment(SubPlan* dst, const SubPlan& src) {
  int32_t base = static_cast<int32_t>(dst->ops.size());
  for (PhysOp op : src.ops) {
    op.id += base;
    for (int32_t& c : op.children) c += base;
    dst->ops.push_back(std::move(op));
  }
  return src.root + base;
}

/// Maps a global column index to its position in `out_cols`.
Result<int32_t> PosOf(const std::vector<int32_t>& out_cols, int32_t global) {
  for (size_t i = 0; i < out_cols.size(); ++i) {
    if (out_cols[i] == global) return static_cast<int32_t>(i);
  }
  return Status::InvalidArgument("column not available in subplan output");
}

Result<Expr> Remap(const Expr& e, const std::vector<int32_t>& out_cols) {
  std::vector<int32_t> referenced;
  e.CollectColumns(&referenced);
  int32_t max_col = 0;
  for (int32_t c : referenced) max_col = std::max(max_col, c);
  std::vector<int32_t> mapping(static_cast<size_t>(max_col) + 1, -1);
  for (int32_t c : referenced) {
    ORC_ASSIGN_OR_RETURN(int32_t pos, PosOf(out_cols, c));
    mapping[c] = pos;
  }
  return e.RemapColumns(mapping);
}

bool SameCols(const std::vector<int32_t>& a, const std::vector<int32_t>& b) {
  return a == b;
}

/// The key-bytes range that sargable conjuncts `k op c` (or `c op k`) put on
/// a relation's leading key column `k` (global id `col`, of type `type`):
/// =, <=, >= and BETWEEN, with < and > taken inclusively. The kSelect above
/// the scan stays, so the filter only has to keep every matching key. Key
/// bytes open with the leading value's self-delimiting ordered encoding and
/// every encoding opens with a type tag below 0xFF, so enc(c) + "\xff"
/// bounds every key whose leading value is at most c, and "\xff" every key.
storage::KeyFilter LeadingKeyFilter(const std::vector<Expr>& preds, int32_t col,
                                    storage::ValueType type) {
  storage::KeyFilter filter;
  filter.hi.assign(1, '\xff');
  for (const Expr& p : preds) {
    if (p.kind() != Expr::Kind::kCompare) continue;
    const Expr& lhs = p.args()[0];
    const Expr& rhs = p.args()[1];
    char op = p.op();
    const Expr* lit = nullptr;
    if (lhs.kind() == Expr::Kind::kColumn && lhs.column() == col &&
        rhs.kind() == Expr::Kind::kLiteral) {
      lit = &rhs;
    } else if (rhs.kind() == Expr::Kind::kColumn && rhs.column() == col &&
               lhs.kind() == Expr::Kind::kLiteral) {
      lit = &lhs;  // c op k: mirror the comparison
      op = op == '<' ? '>' : op == '>' ? '<' : op == 'L' ? 'G' : op == 'G' ? 'L' : op;
    }
    // A literal of another type encodes under another tag: no range.
    if (lit == nullptr || lit->literal().type() != type) continue;
    std::string enc;
    lit->literal().EncodeOrdered(&enc);
    if (op == '=' || op == 'G' || op == '>') {
      filter.lo = std::max(filter.lo, enc);
      filter.all = false;
    }
    if (op == '=' || op == 'L' || op == '<') {
      enc.push_back('\xff');
      filter.hi = std::min(filter.hi, enc);
      filter.all = false;
    }
  }
  return filter;
}

}  // namespace

Result<PlannedQuery> Optimizer::Plan(const AnalyzedQuery& q) {
  search_stats_ = SearchStats{};
  if (q.tables.empty()) return Status::InvalidArgument("no tables");
  if (q.tables.size() > 16) return Status::NotSupported("too many tables");
  const size_t n_tables = q.tables.size();
  const double n = static_cast<double>(params_.num_nodes);
  const sim::CostModel& cm = *params_.costs;

  // ---- Classify conjuncts -------------------------------------------------
  auto table_of_col = [&q](int32_t col) -> uint32_t {
    for (size_t t = q.tables.size(); t-- > 0;) {
      if (col >= static_cast<int32_t>(q.tables[t].first_column)) {
        return static_cast<uint32_t>(t);
      }
    }
    return 0;
  };
  auto tables_of_expr = [&](const Expr& e) {
    std::vector<int32_t> cols;
    e.CollectColumns(&cols);
    std::set<uint32_t> ts;
    for (int32_t c : cols) ts.insert(table_of_col(c));
    return ts;
  };

  std::vector<std::vector<Expr>> table_preds(n_tables);
  std::vector<JoinEdge> edges;
  std::vector<Expr> residual;
  for (const Expr& c : q.conjuncts) {
    auto ts = tables_of_expr(c);
    if (ts.size() <= 1) {
      uint32_t t = ts.empty() ? 0 : *ts.begin();
      table_preds[t].push_back(c);
      continue;
    }
    // Equi-join edge: col = col across two tables.
    if (ts.size() == 2 && c.kind() == Expr::Kind::kCompare && c.op() == '=' &&
        c.args()[0].kind() == Expr::Kind::kColumn &&
        c.args()[1].kind() == Expr::Kind::kColumn) {
      int32_t a = c.args()[0].column(), b = c.args()[1].column();
      uint32_t ta = table_of_col(a), tb = table_of_col(b);
      if (ta != tb) {
        edges.push_back(JoinEdge{ta, tb, a, b});
        continue;
      }
    }
    residual.push_back(c);
  }

  // Needed columns per table: referenced anywhere above the scans.
  std::set<int32_t> needed;
  auto note = [&needed](const Expr& e) {
    std::vector<int32_t> cols;
    e.CollectColumns(&cols);
    needed.insert(cols.begin(), cols.end());
  };
  for (const auto& item : q.items) note(item.expr);
  for (int32_t g : q.group_cols) needed.insert(g);
  for (const Expr& e : residual) note(e);
  for (const JoinEdge& e : edges) {
    needed.insert(e.left_col);
    needed.insert(e.right_col);
  }

  // ---- Leaf candidates -----------------------------------------------------
  // memo[subset] -> Pareto set of candidates.
  std::map<uint32_t, std::vector<SubPlan>> memo;

  auto stats_of = [this](const std::string& rel) {
    auto it = stats_.find(rel);
    return it != stats_.end() ? it->second : RelationStats{};
  };

  for (size_t t = 0; t < n_tables; ++t) {
    const TableRef& tr = q.tables[t];
    RelationStats rs = stats_of(tr.relation);
    double sel = 1.0;
    for (const Expr& p : table_preds[t]) {
      sel *= (p.kind() == Expr::Kind::kCompare && p.op() == '=')
                 ? kEqualitySelectivity
                 : kDefaultSelectivity;
    }

    // Output columns: the needed subset of this table's columns.
    std::vector<int32_t> table_out;
    std::vector<int32_t> key_cols;  // global ids of the storage key attrs
    double bytes_per_col = rs.avg_tuple_bytes /
                           std::max<double>(1.0, tr.def.schema.arity());
    double out_bytes = 0;
    for (uint32_t c = 0; c < tr.def.schema.arity(); ++c) {
      int32_t global = static_cast<int32_t>(tr.first_column + c);
      if (c < tr.def.schema.key_arity()) key_cols.push_back(global);
      if (needed.count(global)) {
        table_out.push_back(global);
        out_bytes += bytes_per_col;
      }
    }
    if (table_out.empty() && !key_cols.empty()) {
      table_out.push_back(key_cols[0]);
      out_bytes += bytes_per_col;
    }
    out_bytes = std::max(out_bytes, 8.0);

    // Pred columns may not be in table_out; scans output the full tuple and
    // the Project narrows after the Select, so that's fine.
    bool covering = true;
    for (int32_t g : table_out) {
      if (std::find(key_cols.begin(), key_cols.end(), g) == key_cols.end()) {
        covering = false;
      }
    }
    for (const Expr& p : table_preds[t]) {
      std::vector<int32_t> cols;
      p.CollectColumns(&cols);
      for (int32_t c : cols) {
        if (std::find(key_cols.begin(), key_cols.end(), c) == key_cols.end()) {
          covering = false;
        }
      }
    }

    auto make_scan = [&](bool broadcast) -> SubPlan {
      SubPlan sp;
      PhysOp scan;
      scan.kind = covering ? OpKind::kCoveringScan : OpKind::kScan;
      scan.relation = tr.relation;
      scan.broadcast_local = broadcast;
      if (!key_cols.empty()) {
        scan.key_filter = LeadingKeyFilter(table_preds[t], key_cols[0],
                                           tr.def.schema.column(0).type);
      }
      int32_t cur = AppendOp(&sp, std::move(scan));
      // Scan output: full tuple (global cols of the table) — or key attrs
      // only for a covering scan.
      std::vector<int32_t> cur_cols;
      if (covering) {
        cur_cols = key_cols;
      } else {
        for (uint32_t c = 0; c < tr.def.schema.arity(); ++c) {
          cur_cols.push_back(static_cast<int32_t>(tr.first_column + c));
        }
      }
      double scan_rows = static_cast<double>(rs.row_count);
      double denom = broadcast ? 1.0 : n;
      sp.cost += scan_rows / denom *
                 (covering ? cm.index_entry_us : cm.tuple_scan_us) / params_.cpu_speed;

      if (!table_preds[t].empty()) {
        Expr pred = table_preds[t][0];
        for (size_t i = 1; i < table_preds[t].size(); ++i) {
          pred = Expr::And(pred, table_preds[t][i]);
        }
        auto remapped = Remap(pred, cur_cols);
        ORC_CHECK(remapped.ok(), "leaf predicate remap failed");
        PhysOp select;
        select.kind = OpKind::kSelect;
        select.children = {cur};
        select.predicate = std::move(remapped).value();
        cur = AppendOp(&sp, std::move(select));
        sp.cost += scan_rows / denom * cm.predicate_eval_us / params_.cpu_speed;
      }
      if (cur_cols != table_out) {
        PhysOp proj;
        proj.kind = OpKind::kProject;
        proj.children = {cur};
        for (int32_t g : table_out) {
          auto pos = PosOf(cur_cols, g);
          ORC_CHECK(pos.ok(), "project col missing");
          proj.columns.push_back(*pos);
        }
        cur = AppendOp(&sp, std::move(proj));
      }
      sp.root = cur;
      sp.out_cols = table_out;
      sp.rows = scan_rows * sel;
      sp.row_bytes = out_bytes;
      sp.broadcast = broadcast;
      if (!broadcast) {
        // Storage partitioning (§IV): the placement prefix of the key.
        uint32_t part_arity = tr.def.effective_partition_arity();
        sp.part_cols.assign(key_cols.begin(), key_cols.begin() + part_arity);
      }
      return sp;
    };

    std::vector<SubPlan>& cands = memo[1u << t];
    cands.push_back(make_scan(false));
    if (tr.def.replicate_everywhere) cands.push_back(make_scan(true));
    search_stats_.candidates_generated += cands.size();
  }

  // ---- Join enumeration (top-down with memoization would recurse; with the
  // memo keyed by subset, bottom-up subset DP explores the identical space,
  // including bushy shapes) ---------------------------------------------------
  double best_complete = std::numeric_limits<double>::infinity();

  auto rehash_cost = [&](const SubPlan& sp) {
    double bytes = sp.rows * sp.row_bytes;
    double cpu = sp.rows / n * cm.marshal_per_tuple_us * 2 +
                 bytes / n / 1024.0 * (cm.marshal_per_kb_us + cm.compress_per_kb_us) * 2;
    double net = bytes / n / params_.bandwidth_bytes_per_sec * 1e6;
    return cpu / params_.cpu_speed + net;
  };

  auto ensure_partitioned = [&](const SubPlan& sp, const std::vector<int32_t>& want,
                                SubPlan* out) -> bool {
    *out = sp;
    if (sp.broadcast) return true;  // every node has everything
    if (SameCols(sp.part_cols, want)) return true;
    PhysOp rehash;
    rehash.kind = OpKind::kRehash;
    rehash.children = {out->root};
    for (int32_t g : want) {
      auto pos = PosOf(sp.out_cols, g);
      if (!pos.ok()) return false;
      rehash.hash_cols.push_back(*pos);
    }
    AppendOp(out, std::move(rehash));
    out->part_cols = want;
    out->cost += rehash_cost(sp);
    return true;
  };

  auto key_of_table = [&](uint32_t t) {
    std::vector<int32_t> keys;
    for (uint32_t c = 0; c < q.tables[t].def.schema.key_arity(); ++c) {
      keys.push_back(static_cast<int32_t>(q.tables[t].first_column + c));
    }
    return keys;
  };

  const uint32_t full = (n_tables >= 32) ? 0xFFFFFFFFu : ((1u << n_tables) - 1);
  // Enumerate subsets in increasing popcount order.
  std::vector<uint32_t> subsets;
  for (uint32_t s = 1; s <= full; ++s) {
    if ((s & full) == s) subsets.push_back(s);
  }
  std::sort(subsets.begin(), subsets.end(), [](uint32_t a, uint32_t b) {
    int pa = __builtin_popcount(a), pb = __builtin_popcount(b);
    if (pa != pb) return pa < pb;
    return a < b;
  });

  for (uint32_t s : subsets) {
    if (__builtin_popcount(s) < 2) continue;
    std::vector<SubPlan>& cands = memo[s];
    // All partitions (L, R) of s — this includes bushy plans.
    for (uint32_t l = (s - 1) & s; l > 0; l = (l - 1) & s) {
      uint32_t r = s & ~l;
      if (l > r) continue;  // each unordered pair once; join is symmetric here
      auto li = memo.find(l);
      auto ri = memo.find(r);
      if (li == memo.end() || ri == memo.end()) continue;

      // Join keys connecting L and R.
      std::vector<std::pair<int32_t, int32_t>> keys;  // (left global, right global)
      for (const JoinEdge& e : edges) {
        bool lt_in_l = (l >> e.left_table) & 1, rt_in_r = (r >> e.right_table) & 1;
        bool lt_in_r = (r >> e.left_table) & 1, rt_in_l = (l >> e.right_table) & 1;
        if (lt_in_l && rt_in_r) keys.emplace_back(e.left_col, e.right_col);
        if (lt_in_r && rt_in_l) keys.emplace_back(e.right_col, e.left_col);
      }
      if (keys.empty()) continue;  // avoid cross products
      std::sort(keys.begin(), keys.end());
      std::vector<int32_t> lkeys, rkeys;
      for (auto& [a, b] : keys) {
        lkeys.push_back(a);
        rkeys.push_back(b);
      }

      for (const SubPlan& lc : li->second) {
        for (const SubPlan& rc : ri->second) {
          if (lc.cost + rc.cost >= best_complete) {
            search_stats_.pruned_by_bound += 1;
            continue;  // branch-and-bound
          }
          if (lc.broadcast && rc.broadcast) continue;  // degenerate
          // A broadcast side co-locates with anything: the partitioned side
          // keeps its current partitioning and needs no rehash.
          SubPlan lp, rp;
          if (rc.broadcast) {
            lp = lc;
          } else if (!ensure_partitioned(lc, lkeys, &lp)) {
            continue;
          }
          if (lc.broadcast) {
            rp = rc;
          } else if (!ensure_partitioned(rc, rkeys, &rp)) {
            continue;
          }

          SubPlan joined;
          joined.cost = lp.cost + rp.cost;
          int32_t lroot = MergeFragment(&joined, lp);
          int32_t rroot = MergeFragment(&joined, rp);
          PhysOp join;
          join.kind = OpKind::kHashJoin;
          join.children = {lroot, rroot};
          bool ok = true;
          for (int32_t g : lkeys) {
            auto pos = PosOf(lp.out_cols, g);
            if (!pos.ok()) ok = false;
            else join.left_keys.push_back(*pos);
          }
          for (int32_t g : rkeys) {
            auto pos = PosOf(rp.out_cols, g);
            if (!pos.ok()) ok = false;
            else join.right_keys.push_back(*pos);
          }
          if (!ok) continue;
          AppendOp(&joined, std::move(join));

          joined.out_cols = lp.out_cols;
          joined.out_cols.insert(joined.out_cols.end(), rp.out_cols.begin(),
                                 rp.out_cols.end());
          // FK-join cardinality: if one side's keys are its relation's
          // storage key, output ~= other side's rows.
          auto is_table_key = [&](uint32_t side_mask,
                                  const std::vector<int32_t>& jkeys) {
            if (__builtin_popcount(side_mask) != 1) return false;
            uint32_t t = static_cast<uint32_t>(__builtin_ctz(side_mask));
            return SameCols(jkeys, key_of_table(t));
          };
          double sel_rows;
          if (is_table_key(r, rkeys)) {
            sel_rows = lp.rows;
          } else if (is_table_key(l, lkeys)) {
            sel_rows = rp.rows;
          } else {
            sel_rows = lp.rows * rp.rows /
                       std::max(1.0, std::max(lp.rows, rp.rows)) * 2.0;
          }
          joined.rows = std::max(1.0, sel_rows);
          joined.row_bytes = lp.row_bytes + rp.row_bytes;
          joined.broadcast = lp.broadcast && rp.broadcast;
          if (lp.broadcast) {
            joined.part_cols = rp.part_cols;
          } else if (rp.broadcast) {
            joined.part_cols = lp.part_cols;
          } else {
            joined.part_cols = lkeys;
          }
          double denom = joined.broadcast ? 1.0 : n;
          joined.cost += (lp.rows + rp.rows) / denom * cm.hash_build_us /
                             params_.cpu_speed +
                         joined.rows / denom * cm.hash_probe_us / params_.cpu_speed;

          // Residual predicates whose tables are all inside s.
          for (const Expr& res : residual) {
            auto ts = tables_of_expr(res);
            bool all_in = std::all_of(ts.begin(), ts.end(), [s](uint32_t t) {
              return (s >> t) & 1;
            });
            if (!all_in) continue;
            // Apply only at the first subset where all tables are present:
            // that is exactly when neither child subset contains them all.
            auto contained = [&ts](uint32_t mask) {
              return std::all_of(ts.begin(), ts.end(),
                                 [mask](uint32_t t) { return (mask >> t) & 1; });
            };
            if (contained(l) || contained(r)) continue;
            auto remapped = Remap(res, joined.out_cols);
            if (!remapped.ok()) continue;
            PhysOp select;
            select.kind = OpKind::kSelect;
            select.children = {joined.root};
            select.predicate = std::move(remapped).value();
            AppendOp(&joined, std::move(select));
            joined.rows *= kDefaultSelectivity;
            joined.cost += joined.rows / denom * cm.predicate_eval_us;
          }

          search_stats_.candidates_generated += 1;
          // Pareto prune within the subset: drop if dominated.
          bool dominated = false;
          for (const SubPlan& existing : cands) {
            if (existing.cost <= joined.cost &&
                SameCols(existing.part_cols, joined.part_cols) &&
                existing.broadcast == joined.broadcast) {
              dominated = true;
              break;
            }
          }
          if (dominated) continue;
          cands.erase(std::remove_if(cands.begin(), cands.end(),
                                     [&joined](const SubPlan& e) {
                                       return joined.cost <= e.cost &&
                                              SameCols(e.part_cols,
                                                       joined.part_cols) &&
                                              e.broadcast == joined.broadcast;
                                     }),
                      cands.end());
          cands.push_back(std::move(joined));
          if (s == full) {
            best_complete = std::min(best_complete, cands.back().cost);
          }
        }
      }
    }
  }
  search_stats_.memo_entries = memo.size();

  auto full_it = memo.find(full);
  if (full_it == memo.end() || full_it->second.empty()) {
    return Status::InvalidArgument("no plan found (disconnected join graph?)");
  }

  // ---- Aggregation / projection / ship on top of each full candidate -------
  bool aggregating = q.has_group_by ||
                     std::any_of(q.items.begin(), q.items.end(),
                                 [](const SelectItem& i) { return i.is_aggregate; });

  PlannedQuery best;
  double best_cost = std::numeric_limits<double>::infinity();

  for (const SubPlan& cand : full_it->second) {
    // A broadcast-only candidate (single replicated table) would produce
    // duplicate rows across nodes; restrict it to node-0 execution? Simpler:
    // skip — replicated relations are tiny lookup tables, never the sole scan.
    if (cand.broadcast) continue;

    auto finalize = [&](SubPlan sp, query::FinalStage final_stage) {
      PhysOp ship;
      ship.kind = OpKind::kShip;
      ship.children = {sp.root};
      AppendOp(&sp, std::move(ship));
      double ship_bytes = sp.rows * sp.row_bytes;
      sp.cost += ship_bytes / params_.bandwidth_bytes_per_sec * 1e6;  // initiator link
      sp.cost += sp.rows * cm.marshal_per_tuple_us / params_.cpu_speed;
      if (sp.cost < best_cost) {
        best_cost = sp.cost;
        PhysicalPlan plan;
        plan.ops = sp.ops;
        plan.root = sp.root;
        plan.final_stage = std::move(final_stage);
        best.plan = std::move(plan);
        best.estimated_cost_us = sp.cost;
        best.estimated_rows = sp.rows;
      }
    };

    if (!aggregating) {
      SubPlan sp = cand;
      // Compute the select list.
      PhysOp compute;
      compute.kind = OpKind::kCompute;
      compute.children = {sp.root};
      bool ok = true;
      for (const SelectItem& item : q.items) {
        auto remapped = Remap(item.expr, sp.out_cols);
        if (!remapped.ok()) ok = false;
        else compute.exprs.push_back(std::move(remapped).value());
      }
      if (!ok) continue;
      bool identity = false;
      AppendOp(&sp, std::move(compute));
      (void)identity;
      sp.row_bytes = sp.row_bytes;  // roughly unchanged
      query::FinalStage fs;
      for (const OrderItem& o : q.order_by) {
        fs.sort.push_back({static_cast<int32_t>(o.select_index), o.asc});
      }
      fs.limit = q.limit;
      finalize(std::move(sp), std::move(fs));
      continue;
    }

    // Aggregate layout: [group cols...][agg slot per item...][avg counts...]
    std::vector<AggSpec> slots;
    std::vector<int32_t> avg_count_slot(q.items.size(), -1);
    std::vector<int32_t> item_slot(q.items.size(), -1);
    for (size_t i = 0; i < q.items.size(); ++i) {
      const SelectItem& item = q.items[i];
      if (!item.is_aggregate) continue;
      AggSpec spec;
      spec.fn = item.agg_fn;
      spec.has_arg = item.agg_has_arg;
      spec.arg = item.expr;  // still global cols; remapped below
      item_slot[i] = static_cast<int32_t>(slots.size());
      slots.push_back(spec);
    }
    for (size_t i = 0; i < q.items.size(); ++i) {
      if (!q.items[i].is_avg) continue;
      AggSpec cnt;
      cnt.fn = query::AggFn::kCount;
      cnt.has_arg = true;
      cnt.arg = q.items[i].expr;
      avg_count_slot[i] = static_cast<int32_t>(slots.size());
      slots.push_back(cnt);
    }

    const size_t n_group = q.group_cols.size();
    auto make_agg_plan = [&](const SubPlan& input, bool locally_complete,
                             double extra_cost) -> bool {
      SubPlan sp = input;
      PhysOp agg;
      agg.kind = OpKind::kAggregate;
      agg.children = {sp.root};
      bool ok = true;
      for (int32_t g : q.group_cols) {
        auto pos = PosOf(sp.out_cols, g);
        if (!pos.ok()) ok = false;
        else agg.group_cols.push_back(*pos);
      }
      for (AggSpec spec : slots) {
        if (spec.has_arg) {
          auto remapped = Remap(spec.arg, sp.out_cols);
          if (!remapped.ok()) ok = false;
          else spec.arg = std::move(remapped).value();
        }
        agg.aggs.push_back(std::move(spec));
      }
      if (!ok) return false;
      AppendOp(&sp, std::move(agg));
      sp.cost += extra_cost + input.rows / n * cm.agg_update_us / params_.cpu_speed;
      // Group count estimate: sqrt heuristic capped by input rows.
      double groups = q.has_group_by
                          ? std::min(input.rows, 40.0 + std::sqrt(input.rows) * 4)
                          : 1.0;
      sp.rows = locally_complete ? groups : std::min(groups * n, input.rows);
      sp.row_bytes = 16.0 * static_cast<double>(n_group + slots.size());

      // The aggregate operator emits one partial row per provenance
      // sub-group (§V-D), so the initiator always re-aggregates; "locally
      // complete" strategies just ship far fewer partials.
      query::FinalStage fs;
      fs.has_agg = true;
      for (size_t g = 0; g < n_group; ++g) {
        fs.group_cols.push_back(static_cast<int32_t>(g));
      }
      for (size_t a = 0; a < slots.size(); ++a) {
        AggSpec merge;
        merge.fn = slots[a].fn;
        merge.has_arg = true;
        merge.arg = Expr::Column(static_cast<int32_t>(n_group + a));
        fs.aggs.push_back(std::move(merge));
      }
      // Post expressions: select list order over [groups..., slots...].
      fs.has_post = true;
      size_t group_seen = 0;
      for (size_t i = 0; i < q.items.size(); ++i) {
        const SelectItem& item = q.items[i];
        if (!item.is_aggregate) {
          // Position of this group col in group_cols.
          int32_t gpos = -1;
          for (size_t g = 0; g < n_group; ++g) {
            if (q.group_cols[g] == item.expr.column()) gpos = static_cast<int32_t>(g);
          }
          if (gpos < 0) return false;
          fs.post_exprs.push_back(Expr::Column(gpos));
          ++group_seen;
          continue;
        }
        int32_t slot = static_cast<int32_t>(n_group) + item_slot[i];
        if (item.is_avg) {
          fs.post_exprs.push_back(
              Expr::Arith('/', Expr::Column(slot),
                          Expr::Column(static_cast<int32_t>(n_group) +
                                       avg_count_slot[i])));
        } else {
          fs.post_exprs.push_back(Expr::Column(slot));
        }
      }
      (void)group_seen;
      for (const OrderItem& o : q.order_by) {
        fs.sort.push_back({static_cast<int32_t>(o.select_index), o.asc});
      }
      fs.limit = q.limit;
      finalize(std::move(sp), std::move(fs));
      return true;
    };

    // Strategy B: input already partitioned on a subset of the group cols —
    // groups are node-local, aggregate once, no re-aggregation.
    bool local_ok = q.has_group_by && !cand.part_cols.empty();
    if (local_ok) {
      for (int32_t p : cand.part_cols) {
        if (std::find(q.group_cols.begin(), q.group_cols.end(), p) ==
            q.group_cols.end()) {
          local_ok = false;
        }
      }
    }
    if (local_ok) make_agg_plan(cand, /*locally_complete=*/true, 0.0);

    // Strategy A: partial aggregation + re-aggregation at the initiator
    // (Table I; this is the paper's Q1 plan).
    make_agg_plan(cand, /*locally_complete=*/false, 0.0);

    // Strategy C: rehash on group columns, then aggregate locally-complete.
    // Only worthwhile when there are many groups; with a handful of groups
    // the rehash funnels the whole input into a few nodes (hash skew) and
    // partial aggregation (strategy A) dominates — the paper's Q1 plan.
    double groups_est = 1.0;
    for (int32_t g : q.group_cols) {
      uint32_t t = table_of_col(g);
      const RelationStats rs = stats_of(q.tables[t].relation);
      uint32_t col = static_cast<uint32_t>(g) - q.tables[t].first_column;
      double d = (col < rs.column_distinct.size() && rs.column_distinct[col] > 0)
                     ? static_cast<double>(rs.column_distinct[col])
                     : 40.0 + std::sqrt(cand.rows) * 4;
      groups_est *= d;
    }
    groups_est = std::min(groups_est, cand.rows);
    if (q.has_group_by && groups_est > 8.0 * n) {
      SubPlan rehashed;
      if (ensure_partitioned(cand, q.group_cols, &rehashed) &&
          !SameCols(rehashed.part_cols, cand.part_cols)) {
        make_agg_plan(rehashed, /*locally_complete=*/true, 0.0);
      }
    }
  }

  if (best.plan.ops.empty()) return Status::InvalidArgument("no viable plan");
  ORC_RETURN_IF_ERROR(best.plan.Validate());
  return best;
}

}  // namespace orchestra::optimizer
