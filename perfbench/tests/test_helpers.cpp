// Unit tests of the benchmark's own helpers: the percentile rule, the rate
// ladder, the sustainable-rate rule, span self-time arithmetic and the
// result-line schema.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "report.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(highest_percentile(19), 0.0);
  EXPECT_EQ(highest_percentile(20), 50.0);
  EXPECT_EQ(highest_percentile(99), 50.0);
  EXPECT_EQ(highest_percentile(100), 90.0);
  EXPECT_EQ(highest_percentile(999), 90.0);
  EXPECT_EQ(highest_percentile(1000), 99.0);
  EXPECT_EQ(highest_percentile(9999), 99.0);
  EXPECT_EQ(highest_percentile(10000), 99.9);
  EXPECT_EQ(highest_percentile(100000), 99.99);
  EXPECT_EQ(highest_percentile(1000, 20), 90.0);
}

TEST(Percentile, QuantileInterpolatesAndMedianIsUnsortedSafe) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({5.0, 1.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({5.0, 1.0}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(median({9.0, 1.0, 5.0}), 5.0);
}

TEST(Percentile, ChunkQuantilesIsolateOneStall) {
  std::vector<double> v(4500, 1.0);
  for (int i = 0; i < 50; ++i) v[100 + i] = 100.0;  // one stall, chunk 0
  EXPECT_GT(quantile(v, 0.99), 1.0);
  const std::vector<double> c = chunk_quantiles(v, 0.99, 1000);
  ASSERT_EQ(c.size(), 4u);  // the 500-sample tail joins the last chunk
  EXPECT_GT(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[1], 1.0);
  EXPECT_DOUBLE_EQ(quantile(c, kQuietQuantile), 1.0);
  // Too few samples for two chunks: the plain quantile.
  EXPECT_EQ(chunk_quantiles(v, 0.99, 3000),
            std::vector<double>{quantile(v, 0.99)});
}

TEST(Ladder, ClimbsUntilFirstFailureThenRefines) {
  RateLadder ladder(2000.0, 2.0, 1e6, 2);
  std::vector<double> rates;
  const double capacity = 10000.0;
  while (!ladder.done()) {
    rates.push_back(ladder.rate());
    ladder.record(ladder.rate() <= capacity);
  }
  ASSERT_EQ(rates.size(), 6u);
  EXPECT_EQ(rates[0], 2000.0);
  EXPECT_EQ(rates[1], 4000.0);
  EXPECT_EQ(rates[2], 8000.0);
  EXPECT_EQ(rates[3], 16000.0);  // first failure
  EXPECT_NEAR(rates[4], std::sqrt(8000.0 * 16000.0), 1e-9);  // fails
  EXPECT_NEAR(rates[5], std::sqrt(8000.0 * rates[4]), 1e-9);  // passes
  EXPECT_NEAR(ladder.sustainable(), rates[5], 1e-9);
  EXPECT_NEAR(ladder.failing(), rates[4], 1e-9);
  EXPECT_FALSE(ladder.hit_ceiling());
}

TEST(Ladder, StopsAtCeiling) {
  RateLadder ladder(1000.0, 2.0, 5000.0, 3);
  std::vector<double> rates;
  while (!ladder.done()) {
    rates.push_back(ladder.rate());
    ladder.record(true);
  }
  EXPECT_EQ(rates, (std::vector<double>{1000.0, 2000.0, 4000.0}));
  EXPECT_TRUE(ladder.hit_ceiling());
  EXPECT_EQ(ladder.sustainable(), 4000.0);
  EXPECT_EQ(ladder.failing(), 0.0);
}

TEST(Ladder, FirstRungFailureDescendsThenRefines) {
  RateLadder ladder(2000.0, 2.0, 40000.0, 1);
  std::vector<double> rates;
  while (!ladder.done()) {
    rates.push_back(ladder.rate());
    ladder.record(ladder.rate() <= 800.0);
  }
  ASSERT_EQ(rates.size(), 4u);
  EXPECT_EQ(rates[0], 2000.0);
  EXPECT_EQ(rates[1], 1000.0);
  EXPECT_EQ(rates[2], 500.0);  // first pass
  EXPECT_NEAR(rates[3], std::sqrt(500.0 * 1000.0), 1e-9);  // passes
  EXPECT_NEAR(ladder.sustainable(), rates[3], 1e-9);
  EXPECT_EQ(ladder.failing(), 1000.0);
}

TEST(Ladder, DescentStopsAtAnEighthOfStart) {
  RateLadder ladder(2000.0, 2.0, 40000.0, 3);
  std::vector<double> rates;
  while (!ladder.done()) {
    rates.push_back(ladder.rate());
    ladder.record(false);
  }
  EXPECT_EQ(rates, (std::vector<double>{2000.0, 1000.0, 500.0, 250.0}));
  EXPECT_EQ(ladder.sustainable(), 0.0);
  EXPECT_EQ(ladder.failing(), 250.0);
}

RungResult calm_rung() {
  RungResult r;
  r.offered_per_s = 2000.0;
  r.sent = r.accepted = r.latencies = 2000;
  r.p99_ms = 1.0;
  r.backlog = {2, 0, 1, 3, 0, 2, 1, 0};
  return r;
}

TEST(Sustainable, FlatBacklogPassesGrowingFails) {
  RungResult r = calm_rung();
  EXPECT_FALSE(backlog_growing(r.backlog));
  EXPECT_TRUE(rung_sustainable(r, 50.0));
  r.backlog = {5, 10, 40, 80, 120, 160, 200, 240};
  EXPECT_TRUE(backlog_growing(r.backlog));
  EXPECT_FALSE(rung_sustainable(r, 50.0));
  // Growth smaller than the slack is noise, not a trend: 16 ticks by
  // default, 20 ms of offered ticks (40 at 2000 ticks/s) in the rule.
  EXPECT_FALSE(backlog_growing({0, 0, 1, 1, 2, 4, 6, 8}));
  r.backlog = {1, 2, 1, 2, 3, 30, 35, 30};
  EXPECT_TRUE(backlog_growing(r.backlog));
  EXPECT_TRUE(rung_sustainable(r, 50.0));
}

TEST(Sustainable, LatencyShedAndFailuresEachDisqualify) {
  RungResult r = calm_rung();
  r.p99_ms = 51.0;
  EXPECT_FALSE(rung_sustainable(r, 50.0));
  r = calm_rung();
  r.shed = 1;
  EXPECT_FALSE(rung_sustainable(r, 50.0));
  r = calm_rung();
  r.failed = 1;
  EXPECT_FALSE(rung_sustainable(r, 50.0));
  r = calm_rung();
  r.latencies = 0;
  EXPECT_FALSE(rung_sustainable(r, 50.0));
}

TEST(Sustainable, LateGeneratorInvalidatesRung) {
  RungResult r = calm_rung();
  r.gen_late_p99_ms = 0.5;
  EXPECT_TRUE(rung_valid(r, 5.0));
  r.gen_late_p99_ms = 6.0;
  EXPECT_FALSE(rung_valid(r, 5.0));
}

Span span(const char* name, std::int64_t a, std::int64_t b, int parent) {
  return Span{name, a, b, parent, 0};
}

TEST(SelfTime, HandBuiltTree) {
  // root [0,100]: a [10,40] (child c [20,30]), b [35,60] overlapping a,
  // d [90,120] sticking out of the root.
  const std::vector<Span> s = {
      span("root", 0, 100, -1), span("a", 10, 40, 0), span("c", 20, 30, 1),
      span("b", 35, 60, 0), span("d", 90, 120, 0)};
  const std::vector<double> self = self_seconds(s);
  // root: 100 - union([10,40],[35,60],[90,100]) = 100 - 60 = 40
  EXPECT_NEAR(self[0], 40e-9, 1e-15);
  EXPECT_NEAR(self[1], 20e-9, 1e-15);  // 30 - 10
  EXPECT_NEAR(self[2], 10e-9, 1e-15);
  EXPECT_NEAR(self[3], 25e-9, 1e-15);
  EXPECT_NEAR(self[4], 30e-9, 1e-15);
  const auto named = by_name(s);
  EXPECT_NEAR(named.at("a").total_s, 30e-9, 1e-15);
  EXPECT_EQ(named.at("c").count, 1u);
}

TEST(SelfTime, SequentialChildrenAccountForTheRoot) {
  const std::vector<Span> s = {span("loop", 0, 1000, -1),
                               span("forecast", 0, 300, 0),
                               span("refit", 300, 900, 0),
                               span("inner", 400, 500, 2)};
  EXPECT_NEAR(tree_self_seconds(s, 0), 1000e-9, 1e-15);
  // Overlapping siblings count twice, so the sum exceeds the root.
  const std::vector<Span> o = {span("rung", 0, 100, -1), span("x", 0, 80, 0),
                               span("y", 20, 100, 0)};
  EXPECT_GT(tree_self_seconds(o, 0), 100e-9);
}

TEST(SelfTime, DisabledRecorderRecordsNothing) {
  SpanRecorder off(false);
  EXPECT_EQ(off.begin("x"), -1);
  off.end(-1);
  EXPECT_TRUE(off.spans().empty());
  SpanRecorder on(true);
  {
    ScopedSpan outer(on, "outer");
    ScopedSpan inner(on, "inner", outer.index(), 7);
  }
  const auto s = on.spans();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[1].id, 7u);
  EXPECT_LE(s[0].start_ns, s[1].start_ns);
  EXPECT_GE(s[0].end_ns, s[1].end_ns);
}

TEST(Schema, ResultLineHasExactlyTheContractKeys) {
  Report r;
  r.attempted = 10;
  r.failed = 1;
  r.add("p50_ms", 0.1234567890123456789, "ms");
  r.add("setup_s", 2.0, "s");
  const std::string json = to_json(r);
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": "
            "{\"p50_ms\": {\"value\": 0.12345678901234568, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 2, \"unit\": \"s\"}}}");
}

TEST(Schema, NonFiniteValueIsNotANumberAndNamesAreEscaped) {
  Report r;
  r.correct = false;
  r.add("bad\"name", std::numeric_limits<double>::quiet_NaN(), "s");
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"correct\": false"), std::string::npos);
  EXPECT_NE(json.find("\"bad\\\"name\": {\"value\": null"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
