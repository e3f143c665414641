// LatencyRecorder: exact stats, quantile error bound, lossless merge.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "core/latency.hpp"
#include "core/rng.hpp"

namespace {

using aabft::LatencyRecorder;
using aabft::Rng;

TEST(Latency, EmptyRecorderReportsZeros) {
  const LatencyRecorder rec;
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_EQ(rec.max(), 0u);
  EXPECT_DOUBLE_EQ(rec.mean(), 0.0);
  EXPECT_EQ(rec.p50(), 0u);
  EXPECT_EQ(rec.p99(), 0u);
}

TEST(Latency, CountSumMaxAreExact) {
  LatencyRecorder rec;
  std::uint64_t sum = 0;
  for (std::uint64_t v : {5u, 17u, 1000u, 3u, 123456u}) {
    rec.record(v);
    sum += v;
  }
  EXPECT_EQ(rec.count(), 5u);
  EXPECT_EQ(rec.max(), 123456u);
  EXPECT_DOUBLE_EQ(rec.mean(), static_cast<double>(sum) / 5.0);
}

TEST(Latency, SmallValuesHaveExactQuantiles) {
  LatencyRecorder rec;
  for (std::uint64_t v = 0; v < 16; ++v) rec.record(v);  // one per exact bucket
  EXPECT_EQ(rec.quantile(0.0), 0u);
  EXPECT_EQ(rec.p50(), 7u);  // 8th smallest of 0..15
  EXPECT_EQ(rec.quantile(1.0), 15u);
}

// The log-bucket representation guarantees quantile() returns the lower
// bound of the sample's bucket: within a relative 2^-7 below the value.
TEST(Latency, QuantileErrorWithinBucketWidth) {
  Rng rng(42);
  std::vector<std::uint64_t> samples;
  LatencyRecorder rec;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.below(10'000'000) + 1;
    samples.push_back(v);
    rec.record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const auto rank = static_cast<std::size_t>(q * 5000.0 + 0.999999) - 1;
    const double exact = static_cast<double>(samples[rank]);
    const double estimate = static_cast<double>(rec.quantile(q));
    EXPECT_LE(estimate, exact);
    EXPECT_GE(estimate, exact * (1.0 - 1.0 / 128.0) - 1.0)
        << "q=" << q << " exact=" << exact;
  }
}

TEST(Latency, QuantilesAreMonotone) {
  Rng rng(7);
  LatencyRecorder rec;
  for (int i = 0; i < 1000; ++i) rec.record(rng.below(1u << 20));
  std::uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const std::uint64_t v = rec.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

// merge() must be lossless: per-thread recorders merged together report the
// same stats as one recorder fed every sample.
TEST(Latency, MergeEqualsCombinedRecording) {
  Rng rng(11);
  LatencyRecorder combined;
  std::vector<std::vector<std::uint64_t>> per_thread(4);
  for (std::size_t t = 0; t < per_thread.size(); ++t)
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t v = rng.below(1u << 24);
      per_thread[t].push_back(v);
      combined.record(v);
    }

  std::vector<LatencyRecorder> recorders(per_thread.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < per_thread.size(); ++t)
    threads.emplace_back([&, t] {
      for (const std::uint64_t v : per_thread[t]) recorders[t].record(v);
    });
  for (auto& th : threads) th.join();

  LatencyRecorder merged;
  for (const auto& rec : recorders) merged.merge(rec);

  EXPECT_EQ(merged.count(), combined.count());
  EXPECT_EQ(merged.max(), combined.max());
  EXPECT_DOUBLE_EQ(merged.mean(), combined.mean());
  for (double q : {0.25, 0.5, 0.95, 0.99, 1.0})
    EXPECT_EQ(merged.quantile(q), combined.quantile(q));
}

}  // namespace
