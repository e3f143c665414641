// Baseline scheme tests: fixed-bound ABFT, SEA-ABFT (bound formula and
// detection), TMR voting, plain encode kernels, and the kernels each scheme
// launches.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "baselines/fixed_abft.hpp"
#include "baselines/plain_encode.hpp"
#include "baselines/sea_abft.hpp"
#include "baselines/tmr.hpp"
#include "baselines/unprotected.hpp"
#include "core/rng.hpp"
#include "fp/bits.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/norms.hpp"
#include "linalg/workload.hpp"

namespace {

using aabft::Rng;
using namespace aabft::baselines;
using aabft::abft::PartitionedCodec;
using aabft::gpusim::FaultConfig;
using aabft::gpusim::FaultController;
using aabft::gpusim::FaultSite;
using aabft::gpusim::Launcher;
using aabft::linalg::Matrix;
using aabft::linalg::naive_matmul;
using aabft::linalg::uniform_matrix;

std::vector<std::string> kernel_names(const Launcher& launcher) {
  std::vector<std::string> names;
  for (const auto& entry : launcher.launch_log())
    names.push_back(entry.kernel_name);
  return names;
}

TEST(PlainEncode, MatchesHostCodec) {
  Rng rng(1);
  const PartitionedCodec codec(8);
  const Matrix a = uniform_matrix(16, 16, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(16, 16, -1.0, 1.0, rng);
  Launcher launcher;
  EXPECT_EQ(plain_encode_columns(launcher, a, codec),
            codec.encode_columns_host(a));
  EXPECT_EQ(plain_encode_rows(launcher, b, codec), codec.encode_rows_host(b));
}

TEST(FixedAbft, CleanRunWithReasonableEpsilon) {
  Rng rng(2);
  FixedAbftConfig config;
  config.bs = 8;
  config.epsilon = 1e-10;
  Launcher launcher;
  FixedAbftMultiplier mult(launcher, config);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const auto result = mult.multiply(a, b);
  EXPECT_FALSE(result.error_detected());
  EXPECT_EQ(result.c, naive_matmul(a, b, false));
}

TEST(FixedAbft, LaunchesEncodeProductAndCheckInOrder) {
  Rng rng(13);
  FixedAbftConfig config;
  config.bs = 8;
  config.epsilon = 1e-10;
  Launcher launcher;
  FixedAbftMultiplier mult(launcher, config);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  (void)mult.multiply(a, b);
  const std::vector<std::string> expected = {
      "encode_a_plain", "encode_b_plain", "gemm", "check_fixed"};
  EXPECT_EQ(kernel_names(launcher), expected);
}

TEST(FixedAbft, TooTightEpsilonFalsePositives) {
  // The calibration problem A-ABFT solves: a fixed bound below the actual
  // rounding level mis-detects on perfectly clean products.
  Rng rng(3);
  FixedAbftConfig config;
  config.bs = 8;
  config.epsilon = 1e-18;
  Launcher launcher;
  FixedAbftMultiplier mult(launcher, config);
  const Matrix a = uniform_matrix(64, 64, -100.0, 100.0, rng);
  const Matrix b = uniform_matrix(64, 64, -100.0, 100.0, rng);
  EXPECT_TRUE(mult.multiply(a, b).error_detected());
}

TEST(FixedAbft, TooLooseEpsilonMissesInjectedError) {
  Rng rng(4);
  FixedAbftConfig config;
  config.bs = 8;
  config.epsilon = 1e3;  // absurdly loose
  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  FaultConfig fault;
  fault.site = FaultSite::kInnerMul;
  fault.error_vec = 1ULL << 40;  // mid-mantissa flip: small absolute error
  fault.k_injection = 5;
  controller.arm(fault);
  FixedAbftMultiplier mult(launcher, config);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const auto result = mult.multiply(a, b);
  EXPECT_TRUE(controller.fired());
  EXPECT_FALSE(result.error_detected());  // false negative, by construction
}

TEST(FixedAbft, DetectsLargeInjectedError) {
  Rng rng(5);
  FixedAbftConfig config;
  config.bs = 8;
  config.epsilon = 1e-10;
  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  FaultConfig fault;
  fault.site = FaultSite::kInnerAdd;
  fault.error_vec = 1ULL << 61;
  fault.k_injection = 2;
  controller.arm(fault);
  FixedAbftMultiplier mult(launcher, config);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const auto result = mult.multiply(a, b);
  EXPECT_TRUE(controller.fired());
  EXPECT_TRUE(result.error_detected());
}

TEST(SeaAbft, ColumnEpsilonMatchesFormula) {
  // Hand evaluation of the Roy-Chowdhury/Banerjee bound.
  const PartitionedCodec codec(2);
  SeaBounds bounds;
  bounds.t = 52;
  // Layout for bs = 2: rows [d0 d1 cs][d2 d3 cs2]; 6 encoded rows, 1 block
  // column -> a_row_norms has 6 entries.
  bounds.a_row_norms = {3.0, 4.0, 5.0, 1.0, 1.0, 1.0};
  bounds.b_col_norms = {2.0, 2.0, 6.0};
  bounds.a_block_norm_sum = {7.0, 2.0};
  bounds.b_block_norm_sum = {4.0};
  const std::size_t n = 10;
  const double eps_m = std::ldexp(1.0, -52);
  // Column check, block row 0, encoded column 1:
  // ((n + 2m - 2) * ||b_1|| * sum_a + n * ||a_cs|| * ||b_1||) * eps_m
  const double expected = ((10.0 + 4.0 - 2.0) * 2.0 * 7.0 + 10.0 * 5.0 * 2.0) *
                          eps_m;
  EXPECT_DOUBLE_EQ(sea_column_epsilon(bounds, codec, 0, 1, n), expected);
  // Row check, encoded row 1, block col 0:
  // ((n + 2m - 2) * ||a_1|| * sum_b + n * ||b_cs|| * ||a_1||) * eps_m
  const double expected_row =
      ((10.0 + 4.0 - 2.0) * 4.0 * 4.0 + 10.0 * 6.0 * 4.0) * eps_m;
  EXPECT_DOUBLE_EQ(sea_row_epsilon(bounds, codec, 1, 0, n), expected_row);
}

TEST(SeaAbft, CleanRunPasses) {
  Rng rng(6);
  SeaAbftConfig config;
  config.bs = 8;
  Launcher launcher;
  SeaAbftMultiplier mult(launcher, config);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const auto result = mult.multiply(a, b);
  EXPECT_FALSE(result.error_detected());
  EXPECT_EQ(result.c, naive_matmul(a, b, false));
}

TEST(SeaAbft, DetectsLargeInjectedError) {
  Rng rng(7);
  SeaAbftConfig config;
  config.bs = 8;
  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  FaultConfig fault;
  fault.site = FaultSite::kInnerMul;
  fault.error_vec = 1ULL << 62;
  fault.k_injection = 9;
  controller.arm(fault);
  SeaAbftMultiplier mult(launcher, config);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const auto result = mult.multiply(a, b);
  EXPECT_TRUE(controller.fired());
  EXPECT_TRUE(result.error_detected());
}

TEST(SeaAbft, NormKernelsAreLaunched) {
  Rng rng(8);
  const PartitionedCodec codec(8);
  const Matrix a_cc = codec.encode_columns_host(uniform_matrix(16, 16, -1, 1, rng));
  const Matrix b_rc = codec.encode_rows_host(uniform_matrix(16, 16, -1, 1, rng));
  Launcher launcher;
  (void)compute_sea_bounds(launcher, a_cc, b_rc, codec);
  ASSERT_EQ(launcher.launch_log().size(), 2u);
  EXPECT_EQ(launcher.launch_log()[0].kernel_name, "row_norms");
  EXPECT_EQ(launcher.launch_log()[1].kernel_name, "col_norms");
}

TEST(SeaAbft, LaunchesEncodeNormsProductAndCheckInOrder) {
  Rng rng(14);
  SeaAbftConfig config;
  config.bs = 8;
  Launcher launcher;
  SeaAbftMultiplier mult(launcher, config);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  (void)mult.multiply(a, b);
  // The norms of the encoded operands feed the bounds; they are taken
  // before the product.
  const std::vector<std::string> expected = {
      "encode_a_plain", "encode_b_plain", "row_norms", "col_norms", "gemm",
      "check_sea"};
  EXPECT_EQ(kernel_names(launcher), expected);
}

TEST(Tmr, CleanVoteIsUnanimous) {
  Rng rng(9);
  Launcher launcher;
  TmrMultiplier mult(launcher, TmrConfig{});
  const Matrix a = uniform_matrix(40, 40, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(40, 40, -1.0, 1.0, rng);
  const auto result = mult.multiply(a, b);
  EXPECT_FALSE(result.error_detected());
  EXPECT_EQ(result.mismatched_elements, 0u);
  EXPECT_EQ(result.c, naive_matmul(a, b, false));
}

TEST(Tmr, OutvotesSingleFaultyReplica) {
  Rng rng(10);
  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  FaultConfig fault;
  fault.site = FaultSite::kInnerAdd;
  fault.error_vec = 1ULL << 60;
  fault.k_injection = 1;
  controller.arm(fault);  // one-shot: hits exactly one of the three runs
  TmrMultiplier mult(launcher, TmrConfig{});
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const auto result = mult.multiply(a, b);
  EXPECT_TRUE(controller.fired());
  EXPECT_TRUE(result.error_detected());
  EXPECT_EQ(result.mismatched_elements, 1u);
  EXPECT_EQ(result.unresolved_elements, 0u);
  // The majority restored the fault-free value.
  EXPECT_EQ(result.c, naive_matmul(a, b, false));
}

TEST(Tmr, CountsThreeGemmLaunches) {
  Rng rng(11);
  Launcher launcher;
  TmrMultiplier mult(launcher, TmrConfig{});
  const Matrix a = uniform_matrix(16, 16, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(16, 16, -1.0, 1.0, rng);
  (void)mult.multiply(a, b);
  std::size_t gemms = 0;
  std::size_t votes = 0;
  for (const auto& entry : launcher.launch_log()) {
    if (entry.kernel_name == "gemm") ++gemms;
    if (entry.kernel_name == "tmr_vote") ++votes;
  }
  EXPECT_EQ(gemms, 3u);
  EXPECT_EQ(votes, 1u);
}

TEST(Unprotected, JustMultiplies) {
  Rng rng(12);
  Launcher launcher;
  UnprotectedMultiplier mult(launcher, aabft::linalg::GemmConfig{});
  const Matrix a = uniform_matrix(24, 24, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(24, 24, -1.0, 1.0, rng);
  EXPECT_EQ(mult.multiply(a, b), naive_matmul(a, b, false));
}

}  // namespace
