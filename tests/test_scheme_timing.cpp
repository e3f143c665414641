// Launch-log pricing tests (Table I composition rules).
#include <gtest/gtest.h>

#include "baselines/scheme_timing.hpp"

namespace {

using namespace aabft;
using baselines::price_launch_log;
using baselines::SchemeTiming;
using gpusim::LaunchStats;

LaunchStats kernel(const char* name, std::uint64_t flops,
                   std::uint64_t bytes = 0) {
  LaunchStats stats;
  stats.kernel_name = name;
  stats.counters.muls = flops;
  stats.counters.bytes_loaded = bytes;
  return stats;
}

TEST(SchemeTiming, ClassifiesKernelsByName) {
  const auto device = gpusim::k20c();
  const std::vector<LaunchStats> log = {
      kernel("encode_a", 1000, 8000), kernel("gemm", 2'000'000'000),
      kernel("reduce_pmax_a", 500),   kernel("row_norms", 1000, 8000),
      kernel("check", 1000, 8000)};
  const SchemeTiming timing = price_launch_log(device, log);
  EXPECT_GT(timing.gemm_seconds, 0.0);
  EXPECT_GT(timing.overlapped_seconds, 0.0);
  EXPECT_GT(timing.overhead_seconds, 0.0);
}

TEST(SchemeTiming, OverlapHidesReductionBehindGemm) {
  const auto device = gpusim::k20c();
  // A big GEMM and a tiny overlapped reduction: total == overhead + gemm.
  const std::vector<LaunchStats> log = {kernel("gemm", 2'000'000'000),
                                        kernel("reduce_pmax_b", 10)};
  const SchemeTiming timing = price_launch_log(device, log);
  EXPECT_EQ(timing.total_seconds(),
            timing.overhead_seconds + timing.gemm_seconds);

  // A huge "overlapped" kernel dominating the GEMM: it becomes the limiter.
  const std::vector<LaunchStats> log2 = {kernel("gemm", 1000),
                                         kernel("reduce_pmax_b", 5'000'000'000)};
  const SchemeTiming t2 = price_launch_log(device, log2);
  EXPECT_EQ(t2.total_seconds(), t2.overhead_seconds + t2.overlapped_seconds);
}

TEST(SchemeTiming, FusedGemmPricesLikeGemm) {
  const auto device = gpusim::k20c();
  const SchemeTiming gemm =
      price_launch_log(device, {kernel("gemm", 2'000'000'000, 64'000'000)});
  const SchemeTiming fused = price_launch_log(
      device, {kernel("gemm_fused", 2'000'000'000, 64'000'000)});
  EXPECT_GT(fused.gemm_seconds, 0.0);
  EXPECT_EQ(fused.gemm_seconds, gemm.gemm_seconds);
  EXPECT_EQ(fused.overhead_seconds, 0.0);
  EXPECT_EQ(fused.total_seconds(), gemm.total_seconds());
}

TEST(SchemeTiming, MoreKernelsCostMore) {
  const auto device = gpusim::k20c();
  const std::vector<LaunchStats> one = {kernel("gemm", 1'000'000'000)};
  std::vector<LaunchStats> three = {kernel("gemm", 1'000'000'000),
                                    kernel("gemm", 1'000'000'000),
                                    kernel("gemm", 1'000'000'000)};
  EXPECT_NEAR(price_launch_log(device, three).gemm_seconds,
              3.0 * price_launch_log(device, one).gemm_seconds, 1e-9);
}

TEST(SchemeTiming, EmptyLogIsFree) {
  const SchemeTiming timing = price_launch_log(gpusim::k20c(), {});
  EXPECT_EQ(timing.total_seconds(), 0.0);
}

}  // namespace
