// perfbench: the end-to-end benchmark binary. Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// --trace 0 prints every end-to-end metric; --trace 1 runs the workload once
// untraced and once traced, prints the per-layer metrics, the per-span host
// CPU summary and the tracing overhead, and writes the spans to --trace-out.
// Human-readable lines come first; the last line is the JSON result. The
// exit code is non-zero when any output check failed.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "metrics.h"
#include "workloads.h"

namespace {

using orchestra::perfbench::Metric;
using orchestra::perfbench::Report;
using orchestra::perfbench::RunConfig;
using orchestra::perfbench::RunOutput;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n");
  return 2;
}

void PrintReport(const Report& report) {
  for (const Metric& m : report.metrics()) {
    std::printf("metric %s\n", Report::FormatLine(m).c_str());
  }
}

bool Finish(const RunOutput& out, const Report& report) {
  for (const std::string& e : out.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  bool ok = out.correct && out.failed == 0;
  for (const std::string& p : report.Problems()) {
    std::fprintf(stderr, "REPORT PROBLEM: %s\n", p.c_str());
    ok = false;
  }
  PrintReport(report);
  std::printf("%s\n",
              orchestra::perfbench::ResultJson(ok, out.attempted, out.failed, report).c_str());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  long seconds = 10;
  int trace = -1;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtol(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const std::string& w : orchestra::perfbench::WorkloadNames()) known |= w == config.workload;
  if (!known || seconds < 1 || seconds > 600 || (trace != 0 && trace != 1) || argc % 2 == 0) {
    return Usage();
  }
  config.scale = static_cast<double>(seconds) / 20.0;

  if (trace == 0) {
    RunOutput out = orchestra::perfbench::RunWorkload(config);
    std::printf("workload %s seed %llu: %llu ops attempted, %llu failed, trace digest %016llx\n",
                config.workload.c_str(), static_cast<unsigned long long>(config.seed),
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.trace_digest));
    return Finish(out, out.end_to_end) ? 0 : 1;
  }

  // Traced run: the untraced twin gives the overhead baseline; per-layer
  // counters come from the traced run and must equal the untraced ones.
  config.setups = 1;
  RunOutput plain = orchestra::perfbench::RunWorkload(config);
  config.trace = true;
  config.trace_path = trace_out;
  RunOutput traced = orchestra::perfbench::RunWorkload(config);
  if (traced.trace_digest != plain.trace_digest) {
    traced.correct = false;
    traced.errors.push_back("tracing changed the simulation (trace digest differs)");
  }
  traced.errors.insert(traced.errors.begin(), plain.errors.begin(), plain.errors.end());
  traced.correct = traced.correct && plain.correct;
  traced.failed += plain.failed;
  for (const std::string& line : traced.span_summary) std::printf("%s\n", line.c_str());
  const Metric* with = traced.end_to_end.Find("host_ops_per_cpu_s");
  const Metric* without = plain.end_to_end.Find("host_ops_per_cpu_s");
  traced.per_layer.Add("trace.overhead_ops_per_cpu_s",
                       with != nullptr && without != nullptr ? with->value - without->value : 0,
                       "ops/CPU-s");
  traced.per_layer.Add("trace.spans", static_cast<double>(traced.spans), "count");
  return Finish(traced, traced.per_layer) ? 0 : 1;
}
