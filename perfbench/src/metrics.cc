#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace orchestra::perfbench {

bool PercentileSupported(uint64_t n, int pct) {
  if (pct <= 0 || pct >= 100) return false;
  // n * (100 - pct) / 100 >= kMinSamplesBeyond, in integers.
  return n * static_cast<uint64_t>(100 - pct) >= kMinSamplesBeyond * 100;
}

double Percentile(std::vector<double>* values, int pct) {
  std::sort(values->begin(), values->end());
  const size_t n = values->size();
  // Nearest rank: the smallest value with at least pct% of samples <= it.
  size_t rank = (static_cast<size_t>(pct) * n + 99) / 100;
  rank = std::clamp<size_t>(rank, 1, n);
  return (*values)[rank - 1];
}

namespace {

bool Alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
}

bool ValidChars(std::string_view s, size_t max_len, std::string_view extra) {
  if (s.empty() || s.size() > max_len) return false;
  for (char c : s) {
    if (!Alnum(c) && c != '_' && c != '.' && c != '-' &&
        extra.find(c) == std::string_view::npos) {
      return false;
    }
  }
  return true;
}

// Shortest round-trip decimal form of a double ("%.17g" keeps all digits).
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool ValidMetricName(std::string_view name) {
  return ValidChars(name, 64, "") && Alnum(name[0]);
}

bool ValidUnit(std::string_view unit) { return ValidChars(unit, 16, "/%"); }

void Report::Add(std::string name, double value, std::string unit) {
  Metric m;
  m.name = std::move(name);
  m.value = value;
  m.unit = std::move(unit);
  metrics_.push_back(std::move(m));
}

void Report::AddTiming(const std::string& prefix, std::vector<double> samples_ms,
                       const std::vector<int>& tails) {
  const uint64_t n = samples_ms.size();
  if (!PercentileSupported(n, 50)) return;
  std::vector<int> pcts = {50};
  for (int t : tails) {
    if (PercentileSupported(n, t)) pcts.push_back(t);
  }
  for (int pct : pcts) {
    Metric m;
    m.name = prefix + "_p" + std::to_string(pct) + "_ms";
    m.value = Percentile(&samples_ms, pct);
    m.unit = "ms";
    m.samples = n;
    metrics_.push_back(std::move(m));
  }
}

void Report::AddRatio(std::string name, double num, double base,
                      std::string base_what, std::string unit) {
  Metric m;
  m.name = std::move(name);
  m.value = base != 0 ? num / base : 0;
  m.unit = std::move(unit);
  m.is_ratio = true;
  m.num = num;
  m.base = base;
  m.base_what = std::move(base_what);
  metrics_.push_back(std::move(m));
}

const Metric* Report::Find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::vector<std::string> Report::Problems() const {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const Metric& m : metrics_) {
    if (!ValidMetricName(m.name)) out.push_back("bad metric name: " + m.name);
    if (!ValidUnit(m.unit)) out.push_back("bad unit for " + m.name + ": " + m.unit);
    if (!seen.insert(m.name).second) out.push_back("duplicate metric: " + m.name);
  }
  return out;
}

std::string Report::FormatLine(const Metric& m) {
  std::string line = m.name + " = " + Num(m.value) + " " + m.unit;
  if (m.samples > 0) {
    line += "  [samples " + std::to_string(m.samples) + "]";
  } else if (m.is_ratio) {
    line += "  [" + Num(m.num) + " / " + Num(m.base) + " " + m.base_what + "]";
  }
  return line;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const Report& report) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + Num(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace orchestra::perfbench
