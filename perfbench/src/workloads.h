// The benchmark's three workloads, run against a deploy::Deployment through
// client::Session verbs (Submit/Retrieve/Query) plus sql::ParseAndAnalyze and
// optimizer::Optimizer::Plan. Every output is checked against the
// benchmark's own model of the data; see perfbench/README.md.
#ifndef ORCHESTRA_PERFBENCH_WORKLOADS_H_
#define ORCHESTRA_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "layers.h"
#include "metrics.h"

namespace orchestra::perfbench {

/// publish_steady, publish_contended, query_mix.
const std::vector<std::string>& WorkloadNames();

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Multiplies every operation count of the workload. The benchmark maps
  /// --seconds to this (seconds / 20), so run length follows --seconds while
  /// the work done stays a pure function of (workload, seed, scale).
  double scale = 1.0;
  /// Set-ups per run, the last one measured; setup_s is their median.
  /// With more than one, short set-ups repeat until they total 1 s (at most
  /// 25).
  int setups = 5;
  /// Record spans; written to `trace_path` when it is not empty.
  bool trace = false;
  std::string trace_path;
};

struct RunOutput {
  bool correct = true;
  std::vector<std::string> errors;  // failed output checks, in order
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Report end_to_end;
  Report per_layer;
  /// Per-span-name host CPU summary lines (traced runs only).
  std::vector<std::string> span_summary;
  size_t spans = 0;
  // Determinism evidence: the simulator's event digest at the end of the
  // run, the per-layer deltas over the measured phases, and a digest of
  // every generated input.
  uint64_t trace_digest = 0;
  uint64_t input_digest = 0;
  LayerCounters counters;
};

/// Runs one workload. Never throws; a failed check sets `correct` false.
RunOutput RunWorkload(const RunConfig& config);

}  // namespace orchestra::perfbench

#endif  // ORCHESTRA_PERFBENCH_WORKLOADS_H_
