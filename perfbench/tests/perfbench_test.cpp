// Unit tests of the benchmark's own pieces.
//
//   cmake --build .bench_build --target perfbench_tests
//   .bench_build/perfbench_tests
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "engine/report.hpp"
#include "loadgen.hpp"
#include "metrics.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, KeepsP99WhenTenSamplesLieBeyondIt) {
  const Percentile p = percentile_with_floor(iota_samples(1000), 99);
  EXPECT_EQ(p.percentile, 99);
  EXPECT_EQ(p.value, 990);
  EXPECT_EQ(p.samples, 1000u);
}

TEST(Percentile, FallsBackWhileFewerThanTenLieBeyond) {
  // 100 samples: p99 and p95 leave 1 and 5 beyond, p90 leaves 10.
  const Percentile p = percentile_with_floor(iota_samples(100), 99);
  EXPECT_EQ(p.percentile, 90);
  EXPECT_EQ(p.value, 90);
  // 180 samples: p95 leaves 9, so p90.
  EXPECT_EQ(percentile_with_floor(iota_samples(180), 99).percentile, 90);
  // 420 samples: p95 leaves 21.
  EXPECT_EQ(percentile_with_floor(iota_samples(420), 99).percentile, 95);
}

TEST(Percentile, MedianIsTheFloorAndOrderDoesNotMatter) {
  const Percentile p = percentile_with_floor({5, 1, 3}, 99);
  EXPECT_EQ(p.percentile, 50);
  EXPECT_EQ(p.value, 3);
  EXPECT_EQ(percentile_with_floor({}, 99).value, 0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(MetricNames, FollowTheGrammar) {
  EXPECT_TRUE(valid_metric_name("latency_p99_ms"));
  EXPECT_TRUE(valid_metric_name("profile.build_s.max"));
  EXPECT_TRUE(valid_metric_name("9-lives"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("with space"));
  EXPECT_FALSE(valid_metric_name("slash/ed"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit("per second"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(MetricNames, CatalogIsValidAndUnique) {
  std::set<std::string> seen;
  std::size_t end_to_end = 0;
  for (const MetricInfo& m : metric_catalog()) {
    EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
    EXPECT_TRUE(valid_unit(m.unit)) << m.unit;
    EXPECT_TRUE(seen.insert(m.name).second) << m.name;
    if (!m.per_layer) ++end_to_end;
  }
  EXPECT_EQ(end_to_end, 4u);
  EXPECT_TRUE(seen.count("setup_s"));
  EXPECT_LE(seen.size(), 4u + 128u);
}

TEST(MetricNames, MetricSetRejectsBadAndDuplicateNames) {
  MetricSet m;
  m.add("setup_s", 1.0, "s");
  EXPECT_THROW(m.add("setup_s", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(m.add("bad name", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(m.add("ok", 2.0, "bad unit"), std::invalid_argument);
}

TEST(MetricNames, CompletionFillsUnmeasuredLayersWithZero) {
  MetricSet measured;
  measured.add("profile.builds", 30, "count");
  const MetricSet out = complete_metrics(measured, true);
  ASSERT_NE(out.find("profile.builds"), nullptr);
  EXPECT_EQ(out.find("profile.builds")->value, 30);
  ASSERT_NE(out.find("serve.requests"), nullptr);
  EXPECT_EQ(out.find("serve.requests")->value, 0);
  EXPECT_THROW((void)complete_metrics(measured, false), std::logic_error);
}

TEST(ResultLine, HasExactlyTheFourResultKeys) {
  MetricSet m;
  m.add("latency_ms", 1.25, "ms");
  EXPECT_EQ(result_line(true, 10, 0, m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}}}");
}

TEST(Loadgen, SameSeedSameScheduleAndMix) {
  LoadSpec spec;
  spec.rate_per_s = 200;
  spec.window_s = 5;
  spec.workloads = {"a", "b", "c"};
  const std::vector<PlannedRequest> a = plan_requests(7, spec);
  const std::vector<PlannedRequest> b = plan_requests(7, spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].command("r" + std::to_string(i)),
              b[i].command("r" + std::to_string(i)));
  }
  const std::vector<PlannedRequest> c = plan_requests(8, spec);
  EXPECT_TRUE(c.size() != a.size() || c[0].due_s != a[0].due_s);
}

TEST(Loadgen, ScheduleIsOpenLoopPoissonWithTheRequestedMix) {
  LoadSpec spec;
  spec.rate_per_s = 400;
  spec.window_s = 10;
  spec.workloads = {"a", "b"};
  const std::vector<PlannedRequest> plan = plan_requests(1, spec);
  // ~4000 arrivals, increasing due times inside the window.
  EXPECT_GT(plan.size(), 3700u);
  EXPECT_LT(plan.size(), 4300u);
  std::size_t repeats = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_LT(plan[i].due_s, spec.window_s);
    if (i > 0) {
      EXPECT_GE(plan[i].due_s, plan[i - 1].due_s);
    }
    if (plan[i].is_repeat()) {
      ++repeats;
      const PlannedRequest& original =
          plan[static_cast<std::size_t>(plan[i].repeat_of)];
      EXPECT_FALSE(original.is_repeat());
      EXPECT_EQ(plan[i].command("x"), original.command("x"));
    }
  }
  const double share =
      static_cast<double>(repeats) / static_cast<double>(plan.size());
  EXPECT_NEAR(share, repeat_share, 0.03);
}

TEST(Spans, SelfTimeIsSpanMinusChildCoverage) {
  // parent [0,100] with overlapping children [10,30] and [20,40] and a
  // child overrunning its parent [90,120]: coverage 30 + 10 = 40.
  std::vector<Span> spans(4);
  spans[0] = {"a.root", 0, 100, -1, -1};
  spans[1] = {"b.x", 10, 30, 0, -1};
  spans[2] = {"b.y", 20, 40, 0, -1};
  spans[3] = {"c.z", 90, 120, 0, -1};
  const std::vector<std::uint64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 60u);
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[3], 30u);
  const SelfTimeTable table = tabulate(spans);
  EXPECT_EQ(table.by_layer.at("a"), 60u);
  EXPECT_EQ(table.by_layer.at("b"), 40u);
  EXPECT_EQ(layer_of("profile.build"), "profile");
}

TEST(Spans, TracerNestsByOpenSpan) {
  Tracer t;
  {
    const ScopedSpan cell(&t, "engine.cell", 7);
    const ScopedSpan inner(&t, "cache.direct_mapped");
    t.record("tracestore.decode", now_ns(), now_ns());
  }
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, 1);
  EXPECT_EQ(t.spans()[2].cell, 7);
  const ScopedSpan none(nullptr, "x.y");  // records nothing
  EXPECT_EQ(t.spans().size(), 3u);
}

TEST(CorrectnessGate, FiresOnACorruptedRow) {
  xoridx::engine::JobResult r;
  r.trace_name = "dijkstra";
  r.geometry = xoridx::cache::CacheGeometry(1024, 4, 1);
  r.label = "perm:2";
  r.kind = "optimize";
  r.accesses = 1000;
  r.baseline_misses = 300;
  r.misses = 200;
  r.estimated_misses = 150;
  const std::vector<std::string> expected = {xoridx::engine::csv_row(r),
                                             xoridx::engine::csv_row(r)};
  EXPECT_EQ(count_row_mismatches(expected, expected), 0u);
  xoridx::engine::JobResult corrupted = r;
  corrupted.misses += 1;
  std::vector<std::string> actual = expected;
  actual[1] = xoridx::engine::csv_row(corrupted);
  EXPECT_EQ(count_row_mismatches(expected, actual), 1u);
  corrupted = r;
  corrupted.estimated_misses -= 1;
  actual[0] = xoridx::engine::csv_row(corrupted);
  EXPECT_EQ(count_row_mismatches(expected, actual), 2u);
  // A missing row counts too.
  EXPECT_EQ(count_row_mismatches(expected, {expected[0]}), 1u);
}

}  // namespace
}  // namespace perfbench
