// Tests of the benchmark's own logic: the percentile rule, span self time,
// metric naming, the speed probe's scaling and seed -> input determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;
}

TEST(PercentileRule, PicksHighestWithTenBeyond) {
  EXPECT_FALSE(tail_percentile(ramp(10)).has_value());
  EXPECT_FALSE(tail_percentile(ramp(19)).has_value());

  const auto p50 = tail_percentile(ramp(99));
  ASSERT_TRUE(p50.has_value());
  EXPECT_DOUBLE_EQ(p50->q, 0.5);
  EXPECT_EQ(p50->n, 99u);
  EXPECT_EQ(p50->beyond, 49u);
  EXPECT_DOUBLE_EQ(p50->value, 50.0);

  const auto p90 = tail_percentile(ramp(100));
  ASSERT_TRUE(p90.has_value());
  EXPECT_DOUBLE_EQ(p90->q, 0.9);
  EXPECT_EQ(p90->beyond, 10u);
  EXPECT_EQ(p90->n, 100u);

  const auto p99 = tail_percentile(ramp(1000));
  ASSERT_TRUE(p99.has_value());
  EXPECT_DOUBLE_EQ(p99->q, 0.99);
  EXPECT_EQ(p99->beyond, 10u);

  EXPECT_DOUBLE_EQ(tail_percentile(ramp(999))->q, 0.9);
  EXPECT_DOUBLE_EQ(tail_percentile(ramp(10000))->q, 0.999);
  EXPECT_DOUBLE_EQ(tail_percentile(ramp(100), 1)->q, 0.99);
}

TEST(SpanSelfTime, SubtractsNestedAndOverlappingChildrenOnce) {
  const std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1},
      {"a", 1.0, 4.0, 0},
      {"b", 3.0, 6.0, 0},   // overlaps a by one second
      {"c", 8.0, 12.0, 0},  // runs past its parent's end
      {"a.inner", 2.0, 3.0, 1},
      {"b.inner", 3.5, 5.5, 2},
      {"b.inner.leaf", 3.5, 5.5, 5},
  };
  // root children cover [1, 6) and [8, 10): 7 of its 10 seconds.
  EXPECT_DOUBLE_EQ(self_time(spans, 0), 3.0);
  EXPECT_DOUBLE_EQ(self_time(spans, 1), 2.0);
  EXPECT_DOUBLE_EQ(self_time(spans, 2), 1.0);
  EXPECT_DOUBLE_EQ(self_time(spans, 3), 4.0);
  EXPECT_DOUBLE_EQ(self_time(spans, 4), 1.0);
  EXPECT_DOUBLE_EQ(self_time(spans, 5), 0.0);
  EXPECT_DOUBLE_EQ(self_time(spans, 6), 2.0);
}

TEST(SpanSelfTime, RecorderNestsByOpenOrder) {
  SpanRecorder rec;
  const auto outer = rec.open("outer");
  const auto inner = rec.open("inner");
  EXPECT_THROW(rec.close(outer), std::logic_error);
  rec.close(inner);
  rec.close(outer);
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_LE(rec.spans()[1].end, rec.spans()[0].end);
  EXPECT_GE(self_time(rec.spans(), 0), 0.0);
}

TEST(MetricNames, EveryPrintedMetricIsWellFormedAndHasAUnit) {
  EXPECT_TRUE(valid_metric_name("wall_s"));
  EXPECT_TRUE(valid_metric_name("net.replay.us_per_event"));
  EXPECT_TRUE(valid_metric_name("0-x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".x"));
  EXPECT_FALSE(valid_metric_name("wall s"));
  EXPECT_FALSE(valid_metric_name("a/b"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("m s"));

  Report r;
  r.add("wall_s", 1.25, "s");
  r.add("sim.events", 3.0, "count");
  EXPECT_THROW(r.add("bad name", 1.0, "s"), std::invalid_argument);
  EXPECT_THROW(r.add("no_unit", 1.0, ""), std::invalid_argument);
  EXPECT_THROW(r.add("wall_s", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(r.add("nan", std::nan(""), "s"), std::invalid_argument);
  EXPECT_EQ(r.json(true, 4, 0),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, "
            "\"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, "
            "\"sim.events\": {\"value\": 3, \"unit\": \"count\"}}}");
}

// run.py refuses a result whose metrics differ from BENCHMARK.json's, so
// the declared names and units are the printed ones.
TEST(MetricNames, DeclaredMetricsAreWellFormed) {
  std::ifstream in(PERFBENCH_SPEC);
  ASSERT_TRUE(in) << PERFBENCH_SPEC;
  std::ostringstream text;
  text << in.rdbuf();
  const std::string spec = text.str();
  const std::regex metric(R"re("name": "([^"]*)",\s*"unit": "([^"]*)")re");
  std::size_t n = 0;
  for (auto it = std::sregex_iterator(spec.begin(), spec.end(), metric);
       it != std::sregex_iterator(); ++it, ++n) {
    EXPECT_TRUE(valid_metric_name((*it)[1].str())) << (*it)[1];
    EXPECT_TRUE(valid_unit((*it)[2].str())) << (*it)[1];
  }
  EXPECT_EQ(n, 7u + 37u);
}

TEST(MetricNames, ValuesKeepEveryDigit) {
  Report r;
  r.add("x", 0.1 + 0.2, "s");
  const std::string j = r.json(true, 1, 0);
  EXPECT_NE(j.find("0.30000000000000004"), std::string::npos) << j;
}

// Host times are scaled by reference pass time ÷ the run's mean pass
// time, so a run whose probe passes took twice the reference reports half
// its host times.
TEST(SpeedProbe, FactorIsReferenceOverMeanPass) {
  SpeedProbe probe;
  const double pass = probe.sample();
  EXPECT_GT(pass, 0.0);
  const double f = SpeedProbe::factor({pass});
  EXPECT_GT(f, 0.0);
  const double reference = pass * f;
  EXPECT_DOUBLE_EQ(SpeedProbe::factor({reference, reference}), 1.0);
  EXPECT_DOUBLE_EQ(SpeedProbe::factor({reference, 3.0 * reference}), 0.5);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 6.0}), 3.0);
  EXPECT_THROW((void)mean({}), std::invalid_argument);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

class SeedDeterminism : public ::testing::Test {
 protected:
  void SetUp() override {
    // Under the working directory: the benchmark writes nowhere else.
    root_ = std::filesystem::current_path() / "perfbench_test_tmp";
    for (const char* d : {"a", "b", "c"}) {
      std::filesystem::create_directories(root_ / d);
    }
  }
  void TearDown() override { std::filesystem::remove_all(root_); }
  std::string dir(const char* d) const { return (root_ / d).string(); }

  std::filesystem::path root_;
};

TEST_F(SeedDeterminism, SameSeedSameTraceBytesOtherSeedDiffers) {
  const Workload* w = find_workload("trace12-chaos");
  ASSERT_NE(w, nullptr);
  const Inputs a = w->setup(7, dir("a"));
  const Inputs b = w->setup(7, dir("b"));
  const Inputs c = w->setup(8, dir("c"));
  const std::string ta = slurp(a.trace_path);
  EXPECT_GT(a.jobs, 100u);
  EXPECT_FALSE(ta.empty());
  EXPECT_EQ(ta, slurp(b.trace_path));
  EXPECT_NE(ta, slurp(c.trace_path));
}

TEST_F(SeedDeterminism, StreamAndBatchInputsFollowTheSeed) {
  const Workload* poisson = find_workload("fattree8-poisson");
  ASSERT_NE(poisson, nullptr);
  const Inputs a = poisson->setup(7, dir("a"));
  const Inputs b = poisson->setup(7, dir("b"));
  const Inputs c = poisson->setup(8, dir("c"));
  ASSERT_FALSE(a.arrivals.empty());
  EXPECT_EQ(a.arrivals, b.arrivals);
  // The stream is fixed; the seed reaches the program as the config seed.
  EXPECT_EQ(a.arrivals, c.arrivals);
  EXPECT_EQ(a.stream.base.seed, 7u);
  EXPECT_EQ(c.stream.base.seed, 8u);

  const Workload* grep = find_workload("paper60-grep");
  ASSERT_NE(grep, nullptr);
  EXPECT_EQ(grep->setup(7, dir("a")).stream.base.seed, 7u);
  EXPECT_EQ(grep->setup(7, dir("a")).jobs, 10u);
}

}  // namespace
