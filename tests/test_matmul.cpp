// Blocked GEMM kernel (Algorithm 3) tests: correctness, bitwise agreement
// with the reference accumulation order, fault-injection semantics.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.hpp"
#include "fp/bits.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace {

using aabft::Rng;
using aabft::gpusim::FaultConfig;
using aabft::gpusim::FaultController;
using aabft::gpusim::FaultSite;
using aabft::gpusim::Launcher;
using aabft::linalg::blocked_matmul;
using aabft::linalg::GemmConfig;
using aabft::linalg::Matrix;
using aabft::linalg::naive_matmul;
using aabft::linalg::uniform_matrix;

TEST(BlockedMatmul, TinyKnownProduct) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 3; a(1, 1) = 4;
  Matrix b(2, 2);
  b(0, 0) = 5; b(0, 1) = 6;
  b(1, 0) = 7; b(1, 1) = 8;
  Launcher launcher;
  const Matrix c = blocked_matmul(launcher, a, b);
  EXPECT_EQ(c(0, 0), 19);
  EXPECT_EQ(c(0, 1), 22);
  EXPECT_EQ(c(1, 0), 43);
  EXPECT_EQ(c(1, 1), 50);
}

TEST(BlockedMatmul, IdentityIsNeutral) {
  Rng rng(1);
  const Matrix a = uniform_matrix(33, 33, -5.0, 5.0, rng);
  Matrix eye(33, 33, 0.0);
  for (std::size_t i = 0; i < 33; ++i) eye(i, i) = 1.0;
  Launcher launcher;
  const Matrix c = blocked_matmul(launcher, a, eye);
  EXPECT_EQ(c, a);
}

// The blocked kernel accumulates each element in ascending-k order, exactly
// like the naive reference: results must be bitwise identical, for every
// blocking configuration and both accumulation modes.
struct BlockingCase {
  GemmConfig config;
  std::size_t m, k, n;
};

class BlockedMatmulBitwise : public ::testing::TestWithParam<BlockingCase> {};

TEST_P(BlockedMatmulBitwise, MatchesNaiveBitwise) {
  const auto& param = GetParam();
  Rng rng(99);
  const Matrix a = uniform_matrix(param.m, param.k, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(param.k, param.n, -1.0, 1.0, rng);
  Launcher launcher;
  const Matrix c = blocked_matmul(launcher, a, b, param.config);
  const Matrix ref = naive_matmul(a, b, param.config.use_fma);
  EXPECT_EQ(c, ref);  // bitwise
}

INSTANTIATE_TEST_SUITE_P(
    Blockings, BlockedMatmulBitwise,
    ::testing::Values(
        BlockingCase{{32, 32, 8, 4, 4, false}, 64, 64, 64},
        BlockingCase{{32, 32, 8, 4, 4, true}, 64, 64, 64},
        BlockingCase{{16, 16, 16, 2, 2, false}, 48, 80, 32},
        BlockingCase{{8, 8, 4, 8, 8, false}, 40, 24, 56},
        BlockingCase{{32, 32, 8, 4, 4, false}, 33, 65, 17},   // ragged edges
        BlockingCase{{32, 32, 8, 4, 4, true}, 7, 130, 61},    // ragged + fma
        BlockingCase{{64, 16, 8, 4, 2, false}, 100, 50, 30},  // asymmetric tiles
        BlockingCase{{4, 4, 2, 2, 2, false}, 5, 5, 5},
        // Tiles that are not multiples of the panel helper's register tile.
        BlockingCase{{6, 10, 3, 2, 5, false}, 14, 11, 23},
        BlockingCase{{9, 15, 5, 3, 5, true}, 25, 13, 41},
        BlockingCase{{33, 33, 7, 3, 3, false}, 70, 29, 68}));

TEST(BlockedMatmul, CountsGemmFlops) {
  Rng rng(3);
  const std::size_t n = 32;
  const Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(n, n, -1.0, 1.0, rng);
  Launcher launcher;
  (void)blocked_matmul(launcher, a, b);
  ASSERT_EQ(launcher.launch_log().size(), 1u);
  const auto stats = launcher.launch_log().front();
  // n^3 multiplies + n^3 inner adds + n^2 final merges (no padding at 32).
  EXPECT_EQ(stats.counters.muls, n * n * n);
  EXPECT_EQ(stats.counters.adds, n * n * n + n * n);
}

TEST(BlockedMatmul, FmaModeCountsFmas) {
  Rng rng(3);
  const std::size_t n = 32;
  const Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(n, n, -1.0, 1.0, rng);
  Launcher launcher;
  GemmConfig config;
  config.use_fma = true;
  (void)blocked_matmul(launcher, a, b, config);
  const auto stats = launcher.launch_log().front();
  EXPECT_EQ(stats.counters.fmas, n * n * n);
  EXPECT_EQ(stats.counters.muls, 0u);
}

TEST(BlockedMatmul, InjectedFaultCorruptsExactlyOneElement) {
  Rng rng(5);
  const std::size_t n = 64;
  const Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(n, n, -1.0, 1.0, rng);
  Launcher launcher;
  const Matrix clean = blocked_matmul(launcher, a, b);

  FaultController controller;
  launcher.set_fault_controller(&controller);
  FaultConfig fault;
  fault.site = FaultSite::kInnerMul;
  fault.sm_id = 0;
  fault.module_id = 0;
  fault.k_injection = 10;
  fault.error_vec = 1ULL << 62;  // flip the top exponent bit: huge error
  controller.arm(fault);
  const Matrix faulty = blocked_matmul(launcher, a, b);
  launcher.set_fault_controller(nullptr);

  ASSERT_TRUE(controller.fired());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (clean(i, j) != faulty(i, j)) ++diffs;
  EXPECT_EQ(diffs, 1u);
}

TEST(BlockedMatmul, DisarmedControllerInjectsNothing) {
  Rng rng(6);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  Launcher launcher;
  FaultController controller;  // never armed
  launcher.set_fault_controller(&controller);
  const Matrix c1 = blocked_matmul(launcher, a, b);
  launcher.set_fault_controller(nullptr);
  const Matrix c2 = blocked_matmul(launcher, a, b);
  EXPECT_EQ(c1, c2);
  EXPECT_FALSE(controller.fired());
}

TEST(BlockedMatmul, FaultFiresAtMostOnce) {
  Rng rng(7);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  FaultConfig fault;
  fault.site = FaultSite::kInnerAdd;
  fault.sm_id = 0;
  fault.module_id = 2;
  fault.k_injection = 0;
  fault.error_vec = 1ULL << 51;
  controller.arm(fault);
  const Matrix clean = [&] {
    Launcher clean_launcher;
    return blocked_matmul(clean_launcher, a, b);
  }();
  const Matrix faulty = blocked_matmul(launcher, a, b);
  launcher.set_fault_controller(nullptr);
  ASSERT_TRUE(controller.fired());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < 64; ++i)
    for (std::size_t j = 0; j < 64; ++j)
      if (clean(i, j) != faulty(i, j)) ++diffs;
  EXPECT_EQ(diffs, 1u);  // one-shot semantics despite many matching sites
}

TEST(BlockedMatmul, RejectsMismatchedDimensions) {
  Matrix a(4, 5);
  Matrix b(4, 4);
  Launcher launcher;
  EXPECT_THROW((void)blocked_matmul(launcher, a, b), std::invalid_argument);
}

TEST(BlockedMatmul, RejectsInvalidConfig) {
  Matrix a(4, 4);
  Matrix b(4, 4);
  Launcher launcher;
  GemmConfig bad;
  bad.rx = 3;  // does not divide bm = 32
  EXPECT_THROW((void)blocked_matmul(launcher, a, b, bad), std::invalid_argument);
}

}  // namespace
