// Protected GEMV tests: correctness, detection, recompute recovery, reuse of
// the encoding across many products, and the kernels each stage launches.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "abft/gemv.hpp"
#include "core/rng.hpp"
#include "gpusim/kernel.hpp"
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

AabftConfig cfg() {
  AabftConfig config;
  config.bs = 16;
  return config;
}

std::vector<double> host_gemv(const Matrix& a, const std::vector<double>& x) {
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * x[k];
    y[i] = 0.0 + s;
  }
  return y;
}

TEST(Gemv, CleanProductMatchesHostBitwise) {
  Rng rng(1);
  const Matrix a = uniform_matrix(48, 40, -1.0, 1.0, rng);
  std::vector<double> x(40);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  Launcher launcher;
  ProtectedGemv gemv(launcher, a, cfg());
  const GemvResult result = gemv.multiply(x);
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.error_detected());
  EXPECT_EQ(result.y, host_gemv(a, x));  // same accumulation order: bitwise
}

TEST(Gemv, NoFalsePositivesAcrossInputClasses) {
  Rng rng(2);
  Launcher launcher;
  for (const auto input : {aabft::linalg::InputClass::kUnit,
                           aabft::linalg::InputClass::kHundred,
                           aabft::linalg::InputClass::kDynamic}) {
    const Matrix a = aabft::linalg::make_input(input, 64, 16.0, rng);
    ProtectedGemv gemv(launcher, a, cfg());
    std::vector<double> x(64);
    for (auto& v : x) v = rng.uniform(-100.0, 100.0);
    const GemvResult result = gemv.multiply(x);
    EXPECT_FALSE(result.error_detected())
        << aabft::linalg::to_string(input);
  }
}

TEST(Gemv, EncodingIsReusedAcrossProducts) {
  Rng rng(3);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  Launcher launcher;
  ProtectedGemv gemv(launcher, a, cfg());
  const std::size_t launches_after_setup = launcher.launch_log().size();
  std::vector<double> x(32, 1.0);
  (void)gemv.multiply(x);
  (void)gemv.multiply(x);
  // Each multiply adds gemv + pmax_x + check = 3 launches, no re-encode.
  EXPECT_EQ(launcher.launch_log().size(), launches_after_setup + 6);
}

TEST(Gemv, LaunchesEncodeOnceThenProductPmaxAndCheck) {
  Rng rng(4);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  Launcher launcher;
  const auto kernel_names = [&launcher] {
    std::vector<std::string> names;
    for (const auto& entry : launcher.launch_log())
      names.push_back(entry.kernel_name);
    return names;
  };
  // Construction encodes A with Algorithm 1 and its p-max reduction.
  ProtectedGemv gemv(launcher, a, cfg());
  const std::vector<std::string> setup = {"encode_a", "reduce_pmax_a"};
  EXPECT_EQ(kernel_names(), setup);

  launcher.clear_launch_log();
  std::vector<double> x(32, 1.0);
  (void)gemv.multiply(x);
  const std::vector<std::string> product = {"gemv", "gemv_pmax_x",
                                            "gemv_check"};
  EXPECT_EQ(kernel_names(), product);
}

TEST(Gemv, DetectsInjectedFaultAndRecovers) {
  Rng rng(4);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  std::vector<double> x(64);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  ProtectedGemv gemv(launcher, a, cfg());

  FaultConfig fault;
  fault.site = FaultSite::kInnerAdd;
  fault.sm_id = 2;  // encoded row 2 runs on SM 2
  fault.module_id = 0;
  fault.k_injection = 10;
  fault.error_vec = 1ULL << 61;
  controller.arm(fault);
  const GemvResult result = gemv.multiply(x);
  launcher.set_fault_controller(nullptr);

  ASSERT_TRUE(controller.fired());
  EXPECT_TRUE(result.error_detected());
  ASSERT_EQ(result.mismatches.size(), 1u);
  EXPECT_EQ(result.mismatches.front().block, 0u);  // row 2 is in block 0
  // One-shot fault + recompute fallback: the returned y is clean.
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.recomputations, 1u);
  EXPECT_EQ(result.y, host_gemv(a, x));
}

TEST(Gemv, DetectionOnlyWithoutRecompute) {
  Rng rng(5);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  std::vector<double> x(32, 0.5);
  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  AabftConfig config = cfg();
  config.max_recompute_attempts = 0;
  ProtectedGemv gemv(launcher, a, config);
  FaultConfig fault;
  fault.site = FaultSite::kFinalAdd;
  fault.sm_id = 5;
  fault.error_vec = 1ULL << 60;
  controller.arm(fault);
  const GemvResult result = gemv.multiply(x);
  launcher.set_fault_controller(nullptr);
  ASSERT_TRUE(controller.fired());
  EXPECT_TRUE(result.error_detected());
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.recomputations, 0u);
}

TEST(Gemv, ValidatesShapes) {
  Rng rng(6);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  Launcher launcher;
  ProtectedGemv gemv(launcher, a, cfg());
  std::vector<double> wrong(31);
  EXPECT_THROW((void)gemv.multiply(wrong), std::invalid_argument);
  Matrix indivisible(33, 32);
  EXPECT_THROW(ProtectedGemv(launcher, indivisible, cfg()),
               std::invalid_argument);
}

}  // namespace
