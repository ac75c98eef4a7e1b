// Statistics helpers of the benchmark: percentile support rule, sample-count
// and ratio-with-base reporting, metric-name charset, JSON result line.
#include <gtest/gtest.h>

#include "metrics.h"

namespace orchestra::perfbench {
namespace {

TEST(PercentileRule, TenSamplesBeyondThePercentile) {
  EXPECT_FALSE(PercentileSupported(999, 99));
  EXPECT_TRUE(PercentileSupported(1000, 99));
  EXPECT_FALSE(PercentileSupported(199, 95));
  EXPECT_TRUE(PercentileSupported(200, 95));
  EXPECT_FALSE(PercentileSupported(19, 50));
  EXPECT_TRUE(PercentileSupported(20, 50));
  EXPECT_FALSE(PercentileSupported(1000000, 100));
  EXPECT_FALSE(PercentileSupported(1000000, 0));
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(Percentile(&v, 50), 50);
  EXPECT_EQ(Percentile(&v, 99), 99);
  std::vector<double> one = {7};
  EXPECT_EQ(Percentile(&one, 99), 7);
}

TEST(Report, TimingEmitsOnlySupportedTailsWithSampleCounts) {
  Report r;
  std::vector<double> samples(500);
  for (size_t i = 0; i < samples.size(); ++i) samples[i] = static_cast<double>(i + 1);
  r.AddTiming("publish", samples, {99, 95});
  ASSERT_NE(r.Find("publish_p50_ms"), nullptr);
  ASSERT_NE(r.Find("publish_p95_ms"), nullptr);
  EXPECT_EQ(r.Find("publish_p99_ms"), nullptr);  // 500 < 1000 samples
  EXPECT_EQ(r.Find("publish_p50_ms")->samples, 500u);
  EXPECT_EQ(r.Find("publish_p95_ms")->value, 475);
  EXPECT_EQ(Report::FormatLine(*r.Find("publish_p50_ms")),
            "publish_p50_ms = 250 ms  [samples 500]");

  Report empty;
  empty.AddTiming("query", {}, {95});
  EXPECT_TRUE(empty.metrics().empty());  // no samples: omitted, not zero
}

TEST(Report, RatioCarriesItsBase) {
  Report r;
  r.AddRatio("publisher.rebases_per_commit", 30, 120, "commits");
  const Metric* m = r.Find("publisher.rebases_per_commit");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->value, 0.25);
  EXPECT_EQ(Report::FormatLine(*m),
            "publisher.rebases_per_commit = 0.25 ratio  [30 / 120 commits]");
  r.AddRatio("query.blocks_sent_per_query", 5, 0, "queries");
  EXPECT_EQ(r.Find("query.blocks_sent_per_query")->value, 0);
  EXPECT_EQ(Report::FormatLine(*r.Find("query.blocks_sent_per_query")),
            "query.blocks_sent_per_query = 0 ratio  [5 / 0 queries]");
}

TEST(Names, MetricCharset) {
  EXPECT_TRUE(ValidMetricName("publish_p99_ms"));
  EXPECT_TRUE(ValidMetricName("sim.host_ns_per_event"));
  EXPECT_TRUE(ValidMetricName("a-b.c_9"));
  EXPECT_TRUE(ValidMetricName("9lives"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/no"));
  EXPECT_FALSE(ValidMetricName("quote\""));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_TRUE(ValidUnit("tuples/sim-s"));
  EXPECT_TRUE(ValidUnit("%"));
  EXPECT_FALSE(ValidUnit("ops per second"));
  EXPECT_FALSE(ValidUnit(std::string(17, 'x')));
}

TEST(Names, ProblemsFlagsBadAndDuplicateNames) {
  Report r;
  r.Add("ok_name", 1, "s");
  r.Add("ok_name", 2, "s");
  r.Add("bad name", 3, "s");
  r.Add("fine", 4, "bad unit");
  EXPECT_EQ(r.Problems().size(), 3u);
}

TEST(Json, ResultLineHasExactlyTheContractKeys) {
  Report r;
  r.Add("setup_s", 0.8127, "s");
  r.AddRatio("wire_bytes_per_op", 10, 4, "ops", "B/op");
  EXPECT_EQ(ResultJson(true, 1000, 0, r),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": "
            "{\"setup_s\": {\"value\": 0.81269999999999998, \"unit\": \"s\"}, "
            "\"wire_bytes_per_op\": {\"value\": 2.5, \"unit\": \"B/op\"}}}");
}

}  // namespace
}  // namespace orchestra::perfbench
