// Exposition layer: OpenMetrics name mangling and rendering, the flat
// JSON metrics document (MetricsRegistry::ToJson delegate) and reading it
// back through ParseJson as `atmx watch` does, and the windowed-rate
// derivation + sampler of obs/snapshot_ring.h.

#include "obs/exposition.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/snapshot_ring.h"

namespace atmx {
namespace {

using obs::DeriveRates;
using obs::MangleMetricName;
using obs::MetricSample;
using obs::MetricsRegistry;
using obs::RenderMetricsJson;
using obs::RenderOpenMetrics;
using obs::TimedSnapshot;

// --- Name mangling. -------------------------------------------------------

TEST(MangleMetricNameTest, CleanNamesPassThrough) {
  EXPECT_EQ(MangleMetricName("threadpool_steals"), "threadpool_steals");
  EXPECT_EQ(MangleMetricName("a:b_C9"), "a:b_C9");
}

TEST(MangleMetricNameTest, DotsBecomeUnderscores) {
  EXPECT_EQ(MangleMetricName("atmult.kernel.spspd_gemm.invocations"),
            "atmult_kernel_spspd_gemm_invocations");
}

TEST(MangleMetricNameTest, ForeignCharsAndLeadingDigit) {
  EXPECT_EQ(MangleMetricName("1st.pass-rate %"), "_1st_pass_rate__");
  EXPECT_EQ(MangleMetricName(""), "");
}

// --- OpenMetrics rendering. -----------------------------------------------

TEST(RenderOpenMetricsTest, CounterAndGaugeLines) {
  MetricsRegistry registry;
  registry.GetCounter("test.ops").Add(42);
  registry.GetGauge("test.level").Set(2.5);
  const std::string text = RenderOpenMetrics(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE test_level gauge\ntest_level 2.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_ops counter\ntest_ops_total 42\n"),
            std::string::npos);
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

TEST(RenderOpenMetricsTest, HistogramBucketsAreCumulativeEndingAtCount) {
  MetricsRegistry registry;
  obs::Histogram& hist =
      registry.GetHistogram("test.hist", {1.0, 10.0, 100.0});
  hist.Observe(0.5);    // bucket 0
  hist.Observe(5.0);    // bucket 1
  hist.Observe(50.0);   // bucket 2
  hist.Observe(500.0);  // overflow
  const std::string text = RenderOpenMetrics(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE test_hist histogram\n"), std::string::npos);
  EXPECT_NE(text.find("test_hist_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("test_hist_bucket{le=\"10\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("test_hist_bucket{le=\"100\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_hist_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_hist_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("test_hist_sum 555.5\n"), std::string::npos);
}

TEST(RenderOpenMetricsTest, EmptySnapshotIsJustEof) {
  EXPECT_EQ(RenderOpenMetrics({}), "# EOF\n");
}

// --- Flat JSON rendering (ToJson delegate). -------------------------------

TEST(RenderMetricsJsonTest, EmptyRegistryRendersEmptyObject) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.ToJson(), "{}");
}

TEST(RenderMetricsJsonTest, NamesAreJsonEscaped) {
  MetricsRegistry registry;
  registry.GetCounter("weird\"name\\with.quotes").Add(7);
  const std::string json = registry.ToJson();
  std::string error;
  EXPECT_TRUE(obs::JsonWellFormed(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"weird\\\"name\\\\with.quotes\":7"),
            std::string::npos);
}

TEST(RenderMetricsJsonTest, ZeroObservationHistogramIsWellFormed) {
  MetricsRegistry registry;
  registry.GetHistogram("test.empty_hist", {1.0, 2.0});
  const std::string json = registry.ToJson();
  std::string error;
  EXPECT_TRUE(obs::JsonWellFormed(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"test.empty_hist\":{\"count\":0,\"sum\":0,"
                      "\"bounds\":[1,2],\"buckets\":[0,0,0]}"),
            std::string::npos);
  // The OpenMetrics view of the same snapshot must also hold together:
  // an all-zero cumulative series ending at +Inf == 0.
  const std::string text = RenderOpenMetrics(registry.Snapshot());
  EXPECT_NE(text.find("test_empty_hist_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_empty_hist_count 0\n"), std::string::npos);
}

TEST(RenderMetricsJsonTest, MatchesRegistryToJson) {
  MetricsRegistry registry;
  registry.GetCounter("a.count").Add(3);
  registry.GetGauge("b.gauge").Set(-0.125);
  registry.GetHistogram("c.hist", {1.0}).Observe(0.5);
  EXPECT_EQ(registry.ToJson(), RenderMetricsJson(registry.Snapshot()));
}

// --- Reading /metrics.json back (the `atmx watch` client half). ----------

// The top-level numeric members of a parsed document, as `atmx watch`
// reads them: nested objects (histograms), strings and literals skipped.
std::map<std::string, double> TopLevelNumbers(const obs::JsonValue& doc) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : doc.members) {
    if (value.is_number()) out.emplace(name, value.number_value);
  }
  return out;
}

TEST(MetricsJsonReadBackTest, ReadsNumbersSkipsNested) {
  auto parsed = obs::ParseJson(
      "{\"a\":1,\n\"hist\":{\"count\":9,\"buckets\":[1,2]},"
      "\"b\":-2.5,\"s\":\"x{y}\",\"flag\":true,\"c\":3e2}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed.value().is_object());
  const std::map<std::string, double> want = {
      {"a", 1.0}, {"b", -2.5}, {"c", 300.0}};
  EXPECT_EQ(TopLevelNumbers(parsed.value()), want);
}

TEST(MetricsJsonReadBackTest, RejectsTruncatedAndGarbageInput) {
  // `atmx watch` ends on any of these instead of reading a partial table.
  EXPECT_FALSE(obs::ParseJson("").ok());
  EXPECT_FALSE(obs::ParseJson("not json").ok());
  EXPECT_FALSE(obs::ParseJson("{\"a\":1,\"b\":{\"x\":").ok());
  // Well-formed but not an object: parses, and carries no members.
  auto array = obs::ParseJson("[1,2,3]");
  ASSERT_TRUE(array.ok());
  EXPECT_FALSE(array.value().is_object());
  EXPECT_TRUE(TopLevelNumbers(array.value()).empty());
}

TEST(MetricsJsonReadBackTest, RoundTripsRenderedRegistry) {
  MetricsRegistry registry;
  registry.GetCounter("x.count").Add(11);
  registry.GetGauge("y.gauge").Set(0.75);
  registry.GetHistogram("z.hist").Observe(1.0);
  auto parsed = obs::ParseJson(RenderMetricsJson(registry.Snapshot()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::map<std::string, double> want = {
      {"x.count", 11.0}, {"y.gauge", 0.75}};
  EXPECT_EQ(TopLevelNumbers(parsed.value()), want);  // histogram skipped
}

// --- DeriveRates. ---------------------------------------------------------

MetricSample CounterSample(const std::string& name, std::uint64_t value) {
  MetricSample s;
  s.name = name;
  s.type = MetricSample::Type::kCounter;
  s.counter_value = value;
  return s;
}

TEST(DeriveRatesTest, CounterDeltaOverWindow) {
  TimedSnapshot older{1'000'000'000, {CounterSample("ops", 100)}};
  TimedSnapshot newer{3'000'000'000, {CounterSample("ops", 500)}};
  const auto rates = DeriveRates(older, newer);
  const std::map<std::string, double> got(rates.begin(), rates.end());
  ASSERT_TRUE(got.count("rate.ops"));
  EXPECT_DOUBLE_EQ(got.at("rate.ops"), 200.0);  // 400 over 2 s
}

TEST(DeriveRatesTest, NewCounterCountsFromZeroAndResetClampsToZero) {
  TimedSnapshot older{0, {CounterSample("shrunk", 900)}};
  TimedSnapshot newer{1'000'000'000,
                      {CounterSample("fresh", 50),
                       CounterSample("shrunk", 10)}};
  const auto rates = DeriveRates(older, newer);
  const std::map<std::string, double> got(rates.begin(), rates.end());
  EXPECT_DOUBLE_EQ(got.at("rate.fresh"), 50.0);
  EXPECT_DOUBLE_EQ(got.at("rate.shrunk"), 0.0);  // reset, not negative
}

TEST(DeriveRatesTest, EmptyOrNegativeWindowYieldsNothing) {
  TimedSnapshot snap{5'000'000'000, {CounterSample("ops", 1)}};
  EXPECT_TRUE(DeriveRates(snap, snap).empty());
  TimedSnapshot earlier{1'000'000'000, {CounterSample("ops", 0)}};
  EXPECT_TRUE(DeriveRates(snap, earlier).empty());
}

TEST(DeriveRatesTest, CompositeResultBytesSumsLocalAndRemoteWrites) {
  TimedSnapshot older{0,
                      {CounterSample("atmult.bytes.local_write", 100),
                       CounterSample("atmult.bytes.remote_write", 10)}};
  TimedSnapshot newer{2'000'000'000,
                      {CounterSample("atmult.bytes.local_write", 300),
                       CounterSample("atmult.bytes.remote_write", 110)}};
  const auto rates = DeriveRates(older, newer);
  const std::map<std::string, double> got(rates.begin(), rates.end());
  EXPECT_DOUBLE_EQ(got.at("rate.atmult.result_bytes"), 150.0);
}

// --- SnapshotSampler. -----------------------------------------------------

TEST(SnapshotSamplerTest, SampleOncePublishesRateGauges) {
  MetricsRegistry registry;
  obs::Counter& ops = registry.GetCounter("work.ops");
  obs::SnapshotSampler sampler;
  obs::SnapshotSampler::Options options;
  options.registry = &registry;
  options.period = std::chrono::minutes(1);  // ticks driven by hand below
  ASSERT_TRUE(sampler.Start(options).ok());
  // The seeding sample runs on the sampler thread; wait for it so the
  // Add lands strictly after the baseline snapshot (else delta == 0).
  while (sampler.ticks() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ops.Add(100);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.SampleOnce();
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(sampler.ticks(), 2u);
  EXPECT_GT(registry.GetGauge("rate.work.ops").Value(), 0.0);
  EXPECT_GE(registry.GetCounter("sampler.ticks").Value(), 2u);
  EXPECT_GT(registry.GetGauge("sampler.window_seconds").Value(), 0.0);
}

TEST(SnapshotSamplerTest, StartValidatesOptionsAndRejectsDoubleStart) {
  MetricsRegistry registry;
  obs::SnapshotSampler sampler;
  obs::SnapshotSampler::Options options;
  options.registry = &registry;
  options.period = std::chrono::milliseconds(0);
  EXPECT_FALSE(sampler.Start(options).ok());
  options.period = std::chrono::milliseconds(10);
  options.ring_capacity = 1;
  EXPECT_FALSE(sampler.Start(options).ok());
  options.ring_capacity = 4;
  ASSERT_TRUE(sampler.Start(options).ok());
  EXPECT_TRUE(sampler.running());
  EXPECT_FALSE(sampler.Start(options).ok());
  sampler.Stop();
  sampler.Stop();  // idempotent
  EXPECT_FALSE(sampler.running());
}

TEST(SnapshotSamplerTest, BackgroundThreadTicksAndRingIsBounded) {
  MetricsRegistry registry;
  registry.GetCounter("bg.ops").Add(1);
  obs::SnapshotSampler sampler;
  obs::SnapshotSampler::Options options;
  options.registry = &registry;
  options.period = std::chrono::milliseconds(2);
  options.ring_capacity = 3;
  ASSERT_TRUE(sampler.Start(options).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sampler.ticks() < 5 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  sampler.Stop();
  EXPECT_GE(sampler.ticks(), 5u);
  const auto history = sampler.History(100);
  EXPECT_LE(history.size(), 3u);
  ASSERT_GE(history.size(), 2u);
  // Oldest first, strictly ordered timeline.
  EXPECT_LT(history.front().ts_ns, history.back().ts_ns);
}

}  // namespace
}  // namespace atmx
