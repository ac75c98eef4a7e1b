// Statistics and reporting helpers of the end-to-end benchmark: percentile
// selection, latency summaries with sample counts, ratios with their base,
// metric-name validation and the one-line JSON result.
#ifndef ORCHESTRA_PERFBENCH_METRICS_H_
#define ORCHESTRA_PERFBENCH_METRICS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace orchestra::perfbench {

/// Samples that must lie beyond a reported percentile, so a tail figure is
/// never decided by one or two outliers.
constexpr uint64_t kMinSamplesBeyond = 10;

/// True when `n` samples put at least kMinSamplesBeyond of them beyond the
/// `pct` percentile: p99 needs 1000 samples, p95 200, p50 20.
bool PercentileSupported(uint64_t n, int pct);

/// Nearest-rank percentile of `values` (sorted in place). Precondition: the
/// vector is not empty and 0 < pct <= 100.
double Percentile(std::vector<double>* values, int pct);

/// Metric names use only [A-Za-z0-9_.-], start with a letter or digit and
/// are at most 64 long; units may also use '/' and '%', at most 16 long.
bool ValidMetricName(std::string_view name);
bool ValidUnit(std::string_view unit);

/// One reported figure. `samples` is the sample count behind a timing;
/// `num`/`base` are the numerator and denominator behind a ratio. Exactly
/// one of the two annotations is set for timings and ratios; plain counts
/// carry neither.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  bool is_ratio = false;
  double num = 0;
  double base = 0;
  std::string base_what;  // what the base counts, e.g. "commits"
};

/// Collects metrics in report order and formats them.
class Report {
 public:
  void Add(std::string name, double value, std::string unit);
  /// Adds `name_p50` and the `name_p<pct>` tail for every pct in `tails`
  /// that the sample count supports; a timing with no samples adds nothing.
  void AddTiming(const std::string& prefix, std::vector<double> samples_ms,
                 const std::vector<int>& tails);
  /// Adds num / base; a zero base reports 0 (the base is printed beside it).
  void AddRatio(std::string name, double num, double base, std::string base_what,
                std::string unit = "ratio");

  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(std::string_view name) const;

  /// Names that break ValidMetricName/ValidUnit or repeat; empty when clean.
  std::vector<std::string> Problems() const;

  /// Human-readable line: "name = value unit  [samples n]" or
  /// "name = value unit  [num / base what]".
  static std::string FormatLine(const Metric& m);

 private:
  std::vector<Metric> metrics_;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
/// with every metric of `report` as {"value": v, "unit": u}. Numbers are
/// printed with all their significant digits.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const Report& report);

}  // namespace orchestra::perfbench

#endif  // ORCHESTRA_PERFBENCH_METRICS_H_
