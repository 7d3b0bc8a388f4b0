// Unit tests of the benchmark's own measurement helpers.

#include "harness.h"
#include "metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <random>
#include <set>
#include <sstream>

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 0.5), 50);
  EXPECT_EQ(Percentile(v, 0.9), 90);
  EXPECT_EQ(Percentile(v, 1.0), 100);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_TRUE(std::isnan(Percentile({}, 0.5)));
}

TEST(Percentile, TailHasAtLeastTenSamplesBeyondIt) {
  EXPECT_EQ(TailQuantile(10), 0.5);    // fewer than ten beyond any percentile
  EXPECT_EQ(TailQuantile(99), 0.5);    // p90 leaves 9
  EXPECT_EQ(TailQuantile(100), 0.9);   // p90 leaves exactly 10
  EXPECT_EQ(TailQuantile(999), 0.9);   // p99 leaves 9
  EXPECT_EQ(TailQuantile(1000), 0.99);
  EXPECT_EQ(TailQuantile(10000), 0.999);
  EXPECT_EQ(TailQuantile(100000), 0.9999);
}

TEST(Schedule, PoissonIsSeededAndHasTheRate) {
  const auto a = PoissonSchedule(7, 5000, 20000);
  EXPECT_EQ(a, PoissonSchedule(7, 5000, 20000));
  EXPECT_NE(a, PoissonSchedule(8, 5000, 20000));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_NEAR(a.back(), 20000.0 / 5000.0, 0.1);
}

TEST(Schedule, ZipfIsSeededAndFavoursLowRanks) {
  const ZipfSampler zipf(100, 1.0);
  std::mt19937_64 r1(3), r2(3);
  std::vector<std::size_t> d1, d2;
  for (int i = 0; i < 10000; ++i) {
    d1.push_back(zipf(r1));
    d2.push_back(zipf(r2));
  }
  EXPECT_EQ(d1, d2);
  const auto count = [&](std::size_t rank) {
    return std::count(d1.begin(), d1.end(), rank);
  };
  // Rank 0 has twice the weight of rank 1 and ten times that of rank 9.
  EXPECT_GT(count(0), count(1));
  EXPECT_GT(count(1), count(9));
  EXPECT_LT(*std::max_element(d1.begin(), d1.end()), 100u);
}

RungResult Rung(double rate, double p90_us, int failed) {
  std::vector<double> latencies(100, p90_us);
  for (int i = 0; i < failed; ++i) {
    latencies[static_cast<std::size_t>(i)] = kInf;
  }
  return SummarizeRung(rate, rate, rate, latencies);
}

TEST(Ladder, HighestPassingRate) {
  EXPECT_EQ(MaxPassingRate({Rung(5000, 500, 0), Rung(10000, 1500, 0),
                            Rung(15000, 4000, 0), Rung(20000, 9000, 0)}),
            10000);
  EXPECT_EQ(MaxPassingRate({Rung(5000, 2500, 0)}), 0);
}

TEST(Ladder, FailedRequestsAreMisses) {
  // One failure fails the rung even though p90 is met...
  const RungResult one = Rung(10000, 500, 1);
  EXPECT_EQ(one.failed, 1u);
  EXPECT_LE(one.p90_us, kServeP90LimitUs);
  EXPECT_FALSE(RungPasses(one));
  // ...and failures count as infinite latency in the percentiles.
  EXPECT_EQ(Rung(10000, 500, 100).p90_us, kInf);
  EXPECT_EQ(MaxPassingRate({Rung(5000, 500, 0), Rung(10000, 500, 1)}), 5000);
}

TEST(Ladder, RungPercentilesAreWindowMedians) {
  std::vector<double> latencies(1000, 500.0);
  // Two of five windows stalled: the rung's p90 is still a healthy window's.
  for (std::size_t i = 0; i < 400; ++i) latencies[i] = 9000.0;
  EXPECT_EQ(SummarizeRung(5000, 5000, 5000, latencies).p90_us, 500.0);
  // Three stalled windows decide it.
  for (std::size_t i = 400; i < 600; ++i) latencies[i] = 9000.0;
  EXPECT_EQ(SummarizeRung(5000, 5000, 5000, latencies).p90_us, 9000.0);
}

TEST(Ladder, AchievedRateMustKeepUp) {
  RungResult r = SummarizeRung(10000, 10000, 9700,
                               std::vector<double>(100, 500.0));
  EXPECT_FALSE(RungPasses(r));
  r.achieved_per_s = 9900;
  EXPECT_TRUE(RungPasses(r));
}

TEST(Metrics, NamesMatchTheContract) {
  for (const char* ok : {"setup_s", "serve_p90_us", "nn.rank.forward_ms",
                         "coverage.autotuner.self", "0x", "a-b"}) {
    EXPECT_TRUE(ValidMetricName(ok)) << ok;
  }
  for (const char* bad : {"", "_x", ".x", "a b", "a/b", "ms%"}) {
    EXPECT_FALSE(ValidMetricName(bad)) << bad;
  }
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  Result result;
  result.Add("x", 1, "s");
  EXPECT_THROW(result.Add("x", 2, "s"), std::invalid_argument);
  EXPECT_THROW(result.Add("bad name", 2, "s"), std::invalid_argument);
}

// The "name" values of one metric array of BENCHMARK.json.
std::vector<std::string> ManifestNames(const std::string& manifest,
                                       const std::string& array) {
  std::vector<std::string> names;
  std::size_t at = manifest.find("\"" + array + "\"");
  if (at == std::string::npos) return names;
  const std::size_t end = manifest.find(']', at);
  const std::string key = "\"name\": \"";
  while ((at = manifest.find(key, at)) < end) {
    at += key.size();
    names.push_back(manifest.substr(at, manifest.find('"', at) - at));
  }
  return names;
}

// Every run must print exactly the metrics BENCHMARK.json declares for its
// mode: the end-to-end set untraced, the per-layer set traced.
TEST(Metrics, SetsMatchTheManifest) {
  std::ifstream in(PERFBENCH_MANIFEST);
  ASSERT_TRUE(in) << PERFBENCH_MANIFEST;
  std::stringstream text;
  text << in.rdbuf();
  const auto check = [&](const char* array, const auto& declared) {
    const std::vector<std::string> manifest =
        ManifestNames(text.str(), array);
    const std::vector<std::string> emitted(std::begin(declared),
                                           std::end(declared));
    EXPECT_EQ(manifest, emitted) << array;
    EXPECT_EQ(std::set<std::string>(emitted.begin(), emitted.end()).size(),
              emitted.size())
        << array;
    for (const std::string& name : emitted) {
      EXPECT_TRUE(ValidMetricName(name)) << name;
    }
  };
  check("end_to_end", kEndToEndMetrics);
  check("per_layer", kLayerMetrics);
}

TEST(Tracer, SelfTimeExcludesChildren) {
  Tracer tracer(true);
  const auto t0 = Clock::now();
  tracer.Add("parent", t0, t0 + std::chrono::milliseconds(10), 1);
  tracer.Add("child", t0, t0 + std::chrono::milliseconds(4), 1, /*parent=*/0);
  const auto totals = tracer.Aggregate();
  EXPECT_NEAR(totals.at("parent").seconds, 0.010, 1e-9);
  EXPECT_NEAR(totals.at("parent").self_seconds, 0.006, 1e-9);
  EXPECT_EQ(totals.at("child").count, 1);
  Tracer off(false);
  off.Add("x", t0, t0, 0);
  { Scope s(off, "y", 0); }
  EXPECT_TRUE(off.Aggregate().empty());
}

}  // namespace
}  // namespace perfbench
