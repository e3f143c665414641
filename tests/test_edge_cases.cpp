// Cross-module edge cases: degenerate shapes, extreme blockings, special
// values, and configuration corners that individual module tests don't hit.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "aabft.hpp"

namespace {

using aabft::Rng;
using namespace aabft;

TEST(EdgeCases, GemmPanelDeeperThanInnerDim) {
  // bk = 8 but k = 3: a single ragged panel.
  Rng rng(1);
  const auto a = linalg::uniform_matrix(4, 3, -1.0, 1.0, rng);
  const auto b = linalg::uniform_matrix(3, 4, -1.0, 1.0, rng);
  gpusim::Launcher launcher;
  EXPECT_EQ(linalg::blocked_matmul(launcher, a, b),
            linalg::naive_matmul(a, b, false));
}

TEST(EdgeCases, GemmOneByOne) {
  linalg::Matrix a(1, 1, 3.0);
  linalg::Matrix b(1, 1, 4.0);
  gpusim::Launcher launcher;
  const auto c = linalg::blocked_matmul(launcher, a, b);
  EXPECT_EQ(c(0, 0), 12.0);
}

TEST(EdgeCases, GemmOversizedBlockingRefusesToLaunch) {
  // 64x64x64 tiles of A and B exceed the K20C's 48 KB shared memory.
  linalg::GemmConfig config;
  config.bm = 64;
  config.bn = 64;
  config.bk = 64;
  config.rx = 8;
  config.ry = 8;
  linalg::Matrix a(4, 4, 1.0);
  linalg::Matrix b(4, 4, 1.0);
  gpusim::Launcher launcher;
  EXPECT_THROW((void)linalg::blocked_matmul(launcher, a, b, config),
               std::invalid_argument);
}

TEST(EdgeCases, EncoderWithPLargerThanBlockWidth) {
  // p exceeds the number of elements per chunk: lists saturate with what
  // exists (including zero entries after the vector runs dry).
  Rng rng(2);
  const abft::PartitionedCodec codec(4);
  const auto a = linalg::uniform_matrix(4, 4, -1.0, 1.0, rng);
  gpusim::Launcher launcher;
  const auto enc = abft::encode_columns(launcher, a, codec, 6);
  for (const auto& list : enc.pmax) {
    EXPECT_EQ(list.size(), 6u);
    EXPECT_GE(list.max_value(), list.min_value());
  }
}

TEST(EdgeCases, ProtectedMultiplySmallestBlockSize) {
  Rng rng(3);
  const auto a = linalg::uniform_matrix(4, 4, -1.0, 1.0, rng);
  const auto b = linalg::uniform_matrix(4, 4, -1.0, 1.0, rng);
  gpusim::Launcher launcher;
  abft::AabftConfig config;
  config.bs = 2;  // the minimum the codec accepts
  abft::AabftMultiplier mult(launcher, config);
  const auto result = mult.multiply(a, b).value();
  EXPECT_FALSE(result.error_detected());
  EXPECT_EQ(result.c, linalg::naive_matmul(a, b, false));
}

TEST(EdgeCases, ZeroMatrixProductIsCleanAndZero) {
  const linalg::Matrix a(32, 32, 0.0);
  const linalg::Matrix b(32, 32, 0.0);
  gpusim::Launcher launcher;
  abft::AabftConfig config;
  config.bs = 16;
  abft::AabftMultiplier mult(launcher, config);
  const auto result = mult.multiply(a, b).value();
  EXPECT_FALSE(result.error_detected());
  EXPECT_EQ(result.c.max_abs(), 0.0);
}

TEST(EdgeCases, IdentityTimesIdentityExact) {
  linalg::Matrix eye(32, 32, 0.0);
  for (std::size_t i = 0; i < 32; ++i) eye(i, i) = 1.0;
  gpusim::Launcher launcher;
  abft::AabftConfig config;
  config.bs = 16;
  abft::AabftMultiplier mult(launcher, config);
  const auto result = mult.multiply(eye, eye).value();
  EXPECT_FALSE(result.error_detected());
  EXPECT_EQ(result.c, eye);
}

TEST(EdgeCases, TinyValuesStayCleanInNormalRange) {
  Rng rng(4);
  linalg::Matrix a(32, 32);
  linalg::Matrix b(32, 32);
  for (std::size_t i = 0; i < 32; ++i)
    for (std::size_t j = 0; j < 32; ++j) {
      a(i, j) = rng.uniform(-1.0, 1.0) * 1e-120;
      b(i, j) = rng.uniform(-1.0, 1.0) * 1e-120;
    }
  gpusim::Launcher launcher;
  abft::AabftConfig config;
  config.bs = 16;
  abft::AabftMultiplier mult(launcher, config);
  const auto result = mult.multiply(a, b).value();  // products ~1e-240: still normal
  EXPECT_FALSE(result.error_detected());
}

TEST(EdgeCases, SubnormalProductsExceedTheModelKnownLimitation) {
  // Characterised limitation, shared with the paper: the Barlow/Bareiss
  // model assumes *normalised* floating-point numbers (Section IV-B uses
  // E_k <= s_k*). When the products themselves are subnormal (~1e-320
  // here), their rounding is absolute (2^-1074-grained), the relative-error
  // model's sigma underflows to zero, and the check mis-fires.
  // This test documents the behaviour; DESIGN.md lists the limitation.
  Rng rng(99);
  linalg::Matrix a(32, 32);
  linalg::Matrix b(32, 32);
  for (std::size_t i = 0; i < 32; ++i)
    for (std::size_t j = 0; j < 32; ++j) {
      a(i, j) = rng.uniform(-1.0, 1.0) * 1e-160;
      b(i, j) = rng.uniform(-1.0, 1.0) * 1e-160;
    }
  gpusim::Launcher launcher;
  abft::AabftConfig config;
  config.bs = 16;
  config.correct_errors = false;
  config.max_recompute_attempts = 0;
  abft::AabftMultiplier mult(launcher, config);
  const auto result = mult.multiply(a, b).value();  // products ~1e-320: subnormal
  EXPECT_TRUE(result.error_detected());  // known false positives
}

TEST(EdgeCases, HugeValuesStayClean) {
  Rng rng(5);
  linalg::Matrix a(32, 32);
  linalg::Matrix b(32, 32);
  for (std::size_t i = 0; i < 32; ++i)
    for (std::size_t j = 0; j < 32; ++j) {
      a(i, j) = rng.uniform(-1.0, 1.0) * 1e150;
      b(i, j) = rng.uniform(-1.0, 1.0) * 1e100;
    }
  gpusim::Launcher launcher;
  abft::AabftConfig config;
  config.bs = 16;
  abft::AabftMultiplier mult(launcher, config);
  const auto result = mult.multiply(a, b).value();
  EXPECT_FALSE(result.error_detected());
}

TEST(EdgeCases, MixedMagnitudeColumnsStayClean) {
  // Columns spanning 30 orders of magnitude: the per-vector p-max bounds
  // adapt per column, which a single global epsilon could not.
  Rng rng(6);
  linalg::Matrix a(32, 32);
  linalg::Matrix b(32, 32);
  for (std::size_t i = 0; i < 32; ++i)
    for (std::size_t j = 0; j < 32; ++j) {
      a(i, j) = rng.uniform(-1.0, 1.0) * std::pow(10.0, (j % 4) * 10.0);
      b(i, j) = rng.uniform(-1.0, 1.0) * std::pow(10.0, (i % 4) * -10.0);
    }
  gpusim::Launcher launcher;
  abft::AabftConfig config;
  config.bs = 16;
  abft::AabftMultiplier mult(launcher, config);
  const auto result = mult.multiply(a, b).value();
  EXPECT_FALSE(result.error_detected());
}

TEST(EdgeCases, SignFlipOnExactZeroIsMasked) {
  // Injecting a sign flip into a zero-valued operation result yields -0.0,
  // which compares equal: truly masked, and the campaign accounts for it.
  gpusim::FaultController controller;
  gpusim::FaultConfig fault;
  fault.error_vec = fp::kSignMask;
  controller.arm(fault);
  const double v =
      controller.maybe_inject(gpusim::FaultSite::kInnerMul, 0, 0, 0, 0.0);
  EXPECT_TRUE(controller.fired());
  EXPECT_EQ(v, 0.0);  // -0.0 == 0.0
  EXPECT_TRUE(std::signbit(v));
}

TEST(EdgeCases, ChecksumEpsilonAtZeroBoundIsZero) {
  // All-zero vectors give y = 0 and epsilon = 0; exact-zero checksums still
  // pass the (<=) comparison.
  abft::BoundParams params;
  EXPECT_EQ(abft::checksum_epsilon(128, 16, 0.0, 0.0, params), 0.0);
}

TEST(EdgeCases, RoundToSingleIsIdempotent) {
  Rng rng(8);
  auto m = linalg::uniform_matrix(8, 8, -1e10, 1e10, rng);
  m.round_to_single();
  auto again = m;
  again.round_to_single();
  EXPECT_EQ(m, again);
}

TEST(EdgeCases, LauncherZGridCoordinates) {
  gpusim::Launcher launcher;
  std::vector<int> seen(8, 0);
  launcher.launch("z", gpusim::Dim3{2, 2, 2}, [&](gpusim::BlockCtx& blk) {
    seen[blk.block.z * 4 + blk.block.y * 2 + blk.block.x] += 1;
  });
  for (const int v : seen) EXPECT_EQ(v, 1);
}

}  // namespace
