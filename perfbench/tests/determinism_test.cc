// Two runs with the same seed are identical in everything the simulator
// decides: sim-time metrics, per-layer counters and the event trace digest.
// Host CPU measurement (and tracing) therefore never perturbs the sim. A
// different seed changes the generated inputs.
#include <gtest/gtest.h>

#include <string>

#include "workloads.h"

namespace orchestra::perfbench {
namespace {

RunOutput SmallRun(const std::string& workload, uint64_t seed, bool trace) {
  RunConfig c;
  c.workload = workload;
  c.seed = seed;
  c.scale = 0.05;
  c.setups = 1;
  c.trace = trace;
  return RunWorkload(c);
}

/// Metrics decided by the simulator alone (not host time or memory).
bool SimDecided(const Metric& m) {
  return m.unit == "ms" || m.unit == "tuples/sim-s" || m.unit == "B/op" ||
         m.name == "stored_bytes_per_user_byte" || m.name == "ops_failed_frac";
}

void ExpectSameSim(const RunOutput& a, const RunOutput& b) {
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.input_digest, b.input_digest);
  EXPECT_EQ(a.attempted, b.attempted);
#define PERFBENCH_EXPECT_EQ(name, level) EXPECT_EQ(a.counters.name, b.counters.name) << #name;
  PERFBENCH_LAYER_COUNTERS(PERFBENCH_EXPECT_EQ)
#undef PERFBENCH_EXPECT_EQ
  size_t compared = 0;
  for (const Metric& m : a.end_to_end.metrics()) {
    if (!SimDecided(m)) continue;
    const Metric* other = b.end_to_end.Find(m.name);
    ASSERT_NE(other, nullptr) << m.name;
    EXPECT_EQ(m.value, other->value) << m.name;
    EXPECT_EQ(m.samples, other->samples) << m.name;
    ++compared;
  }
  EXPECT_GE(compared, 5u);
}

class Determinism : public ::testing::TestWithParam<std::string> {};

TEST_P(Determinism, SameSeedSameSimulation) {
  RunOutput a = SmallRun(GetParam(), 7, false);
  RunOutput b = SmallRun(GetParam(), 7, false);
  ASSERT_TRUE(a.correct) << (a.errors.empty() ? "" : a.errors.front());
  ASSERT_TRUE(b.correct);
  EXPECT_EQ(a.failed, 0u);
  ExpectSameSim(a, b);
}

TEST_P(Determinism, TracingDoesNotPerturbTheSimulation) {
  RunOutput plain = SmallRun(GetParam(), 3, false);
  RunOutput traced = SmallRun(GetParam(), 3, true);
  ASSERT_TRUE(traced.correct) << (traced.errors.empty() ? "" : traced.errors.front());
  EXPECT_GT(traced.spans, 0u);
  EXPECT_EQ(plain.spans, 0u);
  ExpectSameSim(plain, traced);
}

TEST_P(Determinism, OtherSeedOtherInputs) {
  RunOutput a = SmallRun(GetParam(), 7, false);
  RunOutput b = SmallRun(GetParam(), 8, false);
  ASSERT_TRUE(b.correct) << (b.errors.empty() ? "" : b.errors.front());
  EXPECT_NE(a.input_digest, b.input_digest);
  EXPECT_NE(a.trace_digest, b.trace_digest);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Determinism, ::testing::ValuesIn(WorkloadNames()),
                         [](const auto& param_info) { return param_info.param; });

}  // namespace
}  // namespace orchestra::perfbench
