// ABFT-protected LU factorisation tests: correctness of the factorisation
// and solver, and fault tolerance of the protected trailing updates.
#include <gtest/gtest.h>

#include <cmath>

#include "abft/protected_lu.hpp"
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
using aabft::linalg::uniform_matrix;

ProtectedLuConfig small_config() {
  ProtectedLuConfig config;
  config.panel = 16;
  config.aabft.bs = 16;
  return config;
}

Matrix well_conditioned(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  for (std::size_t i = 0; i < n; ++i)
    a(i, i) += static_cast<double>(n);  // diagonally dominant
  return a;
}

TEST(ProtectedLu, FactorsAndReconstructs) {
  const std::size_t n = 64;
  const Matrix a = well_conditioned(n, 1);
  Launcher launcher;
  ProtectedLu lu(launcher, small_config());
  const LuResult result = lu.factor(a);
  ASSERT_TRUE(result.ok);
  EXPECT_GT(result.protected_updates, 0u);
  EXPECT_EQ(result.faults_detected, 0u);
  EXPECT_LT(ProtectedLu::residual(a, result), 1e-10);
}

TEST(ProtectedLu, NonMultiplePanelSizes) {
  // n not a multiple of the panel: ragged final panel.
  const std::size_t n = 50;
  const Matrix a = well_conditioned(n, 2);
  Launcher launcher;
  ProtectedLu lu(launcher, small_config());
  const LuResult result = lu.factor(a);
  ASSERT_TRUE(result.ok);
  EXPECT_LT(ProtectedLu::residual(a, result), 1e-10);
}

TEST(ProtectedLu, PivotingHandlesZeroLeadingElement) {
  Matrix a(3, 3, 0.0);
  a(0, 0) = 0.0; a(0, 1) = 2.0; a(0, 2) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 1.0; a(1, 2) = 1.0;
  a(2, 0) = 4.0; a(2, 1) = 3.0; a(2, 2) = 9.0;
  Launcher launcher;
  ProtectedLuConfig config;
  config.panel = 2;
  config.aabft.bs = 2;
  ProtectedLu lu(launcher, config);
  const LuResult result = lu.factor(a);
  ASSERT_TRUE(result.ok);
  EXPECT_LT(ProtectedLu::residual(a, result), 1e-12);
}

TEST(ProtectedLu, SingularMatrixReported) {
  Matrix a(4, 4, 0.0);  // all zero: singular at the first pivot
  Launcher launcher;
  ProtectedLuConfig config;
  config.panel = 2;
  config.aabft.bs = 2;
  ProtectedLu lu(launcher, config);
  const LuResult result = lu.factor(a);
  EXPECT_FALSE(result.ok);
}

TEST(ProtectedLu, SolveMatchesDirectSubstitution) {
  const std::size_t n = 48;
  const Matrix a = well_conditioned(n, 3);
  Rng rng(4);
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  // b = A x_true.
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b[i] += a(i, j) * x_true[j];

  Launcher launcher;
  ProtectedLu lu(launcher, small_config());
  const LuResult result = lu.factor(a);
  ASSERT_TRUE(result.ok);
  const auto x = ProtectedLu::solve(result, b);
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    worst = std::max(worst, std::fabs(x[i] - x_true[i]));
  EXPECT_LT(worst, 1e-10);
}

TEST(ProtectedLu, SurvivesInjectedFaultInTrailingUpdate) {
  const std::size_t n = 64;
  const Matrix a = well_conditioned(n, 5);
  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  FaultConfig fault;
  fault.site = FaultSite::kInnerMul;
  fault.sm_id = 0;
  fault.module_id = 1;
  fault.k_injection = 2;
  fault.error_vec = 1ULL << 61;
  controller.arm(fault);

  ProtectedLu lu(launcher, small_config());
  const LuResult result = lu.factor(a);
  launcher.set_fault_controller(nullptr);

  ASSERT_TRUE(controller.fired());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.faults_detected, 1u);
  EXPECT_GE(result.panel_recomputes + result.corrections +
                result.recomputations,
            1u);
  // The repaired factorisation is as accurate as a fault-free one.
  EXPECT_LT(ProtectedLu::residual(a, result), 1e-10);
}

TEST(ProtectedLu, FaultFreeAndFaultedFactorsAgree) {
  const std::size_t n = 48;
  const Matrix a = well_conditioned(n, 6);
  Launcher clean_launcher;
  ProtectedLu clean_lu(clean_launcher, small_config());
  const LuResult clean = clean_lu.factor(a);

  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  FaultConfig fault;
  fault.site = FaultSite::kFinalAdd;
  fault.sm_id = 1;
  fault.module_id = 0;
  fault.k_injection = 0;
  fault.error_vec = 1ULL << 59;
  controller.arm(fault);
  ProtectedLu lu(launcher, small_config());
  const LuResult faulted = lu.factor(a);
  launcher.set_fault_controller(nullptr);

  ASSERT_TRUE(faulted.ok);
  if (controller.fired()) {
    // Correction restores the update to rounding accuracy, so the factors
    // match the fault-free run almost exactly.
    EXPECT_LT(clean.lu.max_abs_diff(faulted.lu), 1e-8);
  }
}

TEST(ProtectedLu, RejectsBadInputs) {
  Launcher launcher;
  ProtectedLu lu(launcher, small_config());
  Matrix rect(4, 6);
  EXPECT_THROW((void)lu.factor(rect), std::invalid_argument);
  ProtectedLuConfig bad;
  bad.panel = 1;
  EXPECT_THROW(ProtectedLu(launcher, bad), std::invalid_argument);
}

}  // namespace
