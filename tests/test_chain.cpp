// Protected product chain tests.
#include <gtest/gtest.h>

#include "abft/chain.hpp"
#include "core/rng.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace {

using aabft::Rng;
using namespace aabft::abft;
using aabft::gpusim::FaultConfig;
using aabft::gpusim::FaultController;
using aabft::gpusim::FaultSite;
using aabft::gpusim::Launcher;
using aabft::linalg::Matrix;
using aabft::linalg::naive_matmul;
using aabft::linalg::uniform_matrix;

AabftConfig chain_config() {
  AabftConfig config;
  config.bs = 16;
  return config;
}

TEST(Chain, SingleMatrixIsIdentityOperation) {
  Rng rng(1);
  const Matrix a = uniform_matrix(8, 8, -1.0, 1.0, rng);
  Launcher launcher;
  const ChainResult result = multiply_chain(launcher, {&a}, chain_config());
  EXPECT_EQ(result.c, a);
  EXPECT_EQ(result.multiplies, 0u);
  EXPECT_TRUE(result.ok);
}

TEST(Chain, ThreeLinkChainMatchesHostEvaluation) {
  Rng rng(2);
  const Matrix a = uniform_matrix(24, 40, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(40, 18, -1.0, 1.0, rng);
  const Matrix c = uniform_matrix(18, 30, -1.0, 1.0, rng);
  Launcher launcher;
  const ChainResult result =
      multiply_chain(launcher, {&a, &b, &c}, chain_config());
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.multiplies, 2u);
  EXPECT_EQ(result.faults_detected, 0u);
  const Matrix ref = naive_matmul(naive_matmul(a, b, false), c, false);
  // Padding in intermediate links keeps values identical: padded rows/cols
  // are zero and stripped before the next link.
  EXPECT_EQ(result.c, ref);
  EXPECT_EQ(result.c.rows(), 24u);
  EXPECT_EQ(result.c.cols(), 30u);
}

TEST(Chain, FaultInOneLinkIsAbsorbed) {
  Rng rng(3);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix c = uniform_matrix(32, 32, -1.0, 1.0, rng);
  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  FaultConfig fault;
  fault.site = FaultSite::kInnerMul;
  fault.k_injection = 6;
  fault.error_vec = 1ULL << 61;
  controller.arm(fault);

  const ChainResult result =
      multiply_chain(launcher, {&a, &b, &c}, chain_config());
  launcher.set_fault_controller(nullptr);

  ASSERT_TRUE(controller.fired());
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.faults_detected, 1u);
  EXPECT_GE(result.panel_recomputes + result.corrections +
                result.recomputations,
            1u);
  const Matrix ref = naive_matmul(naive_matmul(a, b, false), c, false);
  EXPECT_LT(result.c.max_abs_diff(ref), 1e-9);
}

TEST(Chain, ValidatesShapesAndInputs) {
  Rng rng(4);
  const Matrix a = uniform_matrix(8, 8, -1.0, 1.0, rng);
  const Matrix bad = uniform_matrix(9, 9, -1.0, 1.0, rng);
  Launcher launcher;
  EXPECT_THROW((void)multiply_chain(launcher, {}, chain_config()),
               std::invalid_argument);
  EXPECT_THROW((void)multiply_chain(launcher, {&a, &bad}, chain_config()),
               std::invalid_argument);
  EXPECT_THROW((void)multiply_chain(launcher, {&a, nullptr}, chain_config()),
               std::invalid_argument);
}

}  // namespace
