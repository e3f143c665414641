// Profiling-report tests.
#include <gtest/gtest.h>

#include <algorithm>

#include "abft/aabft.hpp"
#include "baselines/schemes.hpp"
#include "core/rng.hpp"
#include "gpusim/profile_report.hpp"
#include "linalg/workload.hpp"

namespace {

using aabft::Rng;
using namespace aabft::gpusim;

TEST(ProfileReport, AggregatesByKernelName) {
  std::vector<LaunchStats> log(3);
  log[0].kernel_name = "gemm";
  log[0].blocks = 4;
  log[0].counters.muls = 100;
  log[1].kernel_name = "check";
  log[1].blocks = 2;
  log[1].counters.adds = 50;
  log[2].kernel_name = "gemm";
  log[2].blocks = 4;
  log[2].counters.muls = 100;

  const auto profiles = profile_launch_log(k20c(), log);
  ASSERT_EQ(profiles.size(), 2u);
  EXPECT_EQ(profiles[0].name, "gemm");
  EXPECT_EQ(profiles[0].launches, 2u);
  EXPECT_EQ(profiles[0].blocks, 8u);
  EXPECT_EQ(profiles[0].counters.muls, 200u);
  EXPECT_EQ(profiles[1].name, "check");
  EXPECT_EQ(profiles[1].launches, 1u);
  EXPECT_GT(profiles[0].modelled_seconds, 0.0);
}

/// Kernel profiles of one protected 192^3 multiply (bs = 16): the library's
/// pipeline, or the paper's kernels (Table I's contender).
std::vector<KernelProfile> protected_multiply_profile(bool paper_kernels) {
  Rng rng(1);
  const auto a = aabft::linalg::uniform_matrix(192, 192, -1.0, 1.0, rng);
  const auto b = aabft::linalg::uniform_matrix(192, 192, -1.0, 1.0, rng);
  Launcher launcher;
  aabft::abft::AabftConfig config;
  config.bs = 16;
  if (paper_kernels) {
    aabft::baselines::PaperAabftScheme scheme(launcher, config);
    (void)scheme.multiply(a, b).value();
  } else {
    aabft::abft::AabftMultiplier mult(launcher, config);
    (void)mult.multiply(a, b).value();
  }
  return profile_launch_log(launcher.device(), launcher.launch_log());
}

/// The product is the single most expensive kernel at this size.
void expect_product_dominates(const std::vector<KernelProfile>& profiles,
                              const std::string& product) {
  double gemm_seconds = 0.0;
  double largest_other = 0.0;
  for (const auto& p : profiles) {
    if (p.name == product)
      gemm_seconds = p.modelled_seconds;
    else
      largest_other = std::max(largest_other, p.modelled_seconds);
  }
  EXPECT_GT(gemm_seconds, largest_other);
}

TEST(ProfileReport, EndToEndProtectedMultiplyProfile) {
  // The library default runs the fused pipeline: encode_a_light,
  // encode_b_light, gemm_fused, check.
  const auto profiles = protected_multiply_profile(false);
  ASSERT_EQ(profiles.size(), 4u);
  expect_product_dominates(profiles, "gemm_fused");

  const std::string text = format_profile(profiles);
  EXPECT_NE(text.find("gemm"), std::string::npos);
  EXPECT_NE(text.find("check"), std::string::npos);
  EXPECT_NE(text.find('%'), std::string::npos);
}

TEST(ProfileReport, EndToEndClassicMultiplyProfile) {
  // encode_a, reduce_pmax_a, encode_b, reduce_pmax_b, gemm, check.
  const auto profiles = protected_multiply_profile(true);
  ASSERT_EQ(profiles.size(), 6u);
  expect_product_dominates(profiles, "gemm");
}

TEST(ProfileReport, EmptyLogFormats) {
  const auto profiles = profile_launch_log(k20c(), {});
  EXPECT_TRUE(profiles.empty());
  const std::string text = format_profile(profiles);
  EXPECT_NE(text.find("kernel"), std::string::npos);  // header only
}

}  // namespace
