// Transient-fault recomputation fallback tests.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "abft/aabft.hpp"
#include "core/rng.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace {

using aabft::Rng;
using namespace aabft::gpusim;
using aabft::abft::AabftConfig;
using aabft::abft::AabftMultiplier;
using aabft::linalg::Matrix;
using aabft::linalg::naive_matmul;
using aabft::linalg::uniform_matrix;

std::vector<std::string> kernel_names(const Launcher& launcher) {
  std::vector<std::string> names;
  for (const auto& entry : launcher.launch_log())
    names.push_back(entry.kernel_name);
  return names;
}

/// Two one-shot final-add faults in block (0, 0)'s columns 0 and 1: the
/// block's mismatches cannot be localised to one element.
void arm_two_faults_in_one_block(FaultController& controller) {
  std::vector<FaultConfig> faults(2);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    faults[i].site = FaultSite::kFinalAdd;
    faults[i].sm_id = 0;
    faults[i].module_id = i;
    faults[i].error_vec = 1ULL << 60;
  }
  controller.arm_many(faults);
}

/// Two faults in the SAME result block cannot be localised; the recompute
/// fallback must recover (the faults are one-shot, so the re-execution is
/// clean — exactly the transient-fault scenario).
TEST(Recompute, RecoversFromUnlocalisableFaults) {
  Rng rng(1);
  const std::size_t n = 64;
  const Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(n, n, -1.0, 1.0, rng);

  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  std::vector<FaultConfig> faults(2);
  // Same SM, same k, modules 0 and 1: both land in block 0's tile, columns
  // 0 and 1 — same checksum block.
  faults[0].site = FaultSite::kFinalAdd;
  faults[0].sm_id = 0;
  faults[0].module_id = 0;
  faults[0].error_vec = 1ULL << 60;
  faults[1].site = FaultSite::kFinalAdd;
  faults[1].sm_id = 0;
  faults[1].module_id = 1;
  faults[1].error_vec = 1ULL << 60;
  controller.arm_many(faults);

  AabftConfig config;
  config.bs = 32;  // one checksum block spans the whole 64x64? no: 2x2 blocks
  AabftMultiplier mult(launcher, config);
  const auto result = mult.multiply(a, b).value();
  launcher.set_fault_controller(nullptr);

  ASSERT_EQ(controller.fired_count(), 2u);
  EXPECT_TRUE(result.error_detected());
  EXPECT_TRUE(result.recheck_clean);
  EXPECT_FALSE(result.uncorrectable);
  EXPECT_GE(result.recomputations, 1u);
  EXPECT_EQ(result.c, naive_matmul(a, b, false));
}

TEST(Recompute, DisabledFallbackReportsUncorrectable) {
  Rng rng(2);
  const std::size_t n = 64;
  const Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(n, n, -1.0, 1.0, rng);

  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  std::vector<FaultConfig> faults(2);
  faults[0].site = FaultSite::kFinalAdd;
  faults[0].module_id = 0;
  faults[0].error_vec = 1ULL << 60;
  faults[1].site = FaultSite::kFinalAdd;
  faults[1].module_id = 1;
  faults[1].error_vec = 1ULL << 60;
  controller.arm_many(faults);

  AabftConfig config;
  config.bs = 32;
  config.max_recompute_attempts = 0;
  AabftMultiplier mult(launcher, config);
  const auto result = mult.multiply(a, b).value();
  launcher.set_fault_controller(nullptr);

  ASSERT_EQ(controller.fired_count(), 2u);
  EXPECT_TRUE(result.error_detected());
  EXPECT_EQ(result.recomputations, 0u);
  // Both faults in one block: localisation must have failed.
  EXPECT_TRUE(result.uncorrectable);
  EXPECT_FALSE(result.recheck_clean);
}

TEST(Recompute, NotTriggeredWhenCorrectionSucceeds) {
  Rng rng(3);
  const std::size_t n = 64;
  const Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(n, n, -1.0, 1.0, rng);
  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  FaultConfig fault;
  fault.site = FaultSite::kInnerMul;
  fault.k_injection = 4;
  fault.error_vec = 1ULL << 61;
  controller.arm(fault);
  AabftConfig config;
  config.bs = 16;
  // No panel replay: the fault must reach the correction rung.
  config.fused.max_panel_recomputes = 0;
  AabftMultiplier mult(launcher, config);
  const auto result = mult.multiply(a, b).value();
  launcher.set_fault_controller(nullptr);
  ASSERT_TRUE(controller.fired());
  EXPECT_TRUE(result.recheck_clean);
  EXPECT_EQ(result.recomputations, 0u);
  EXPECT_EQ(result.corrections.size(), 1u);
}

TEST(Recompute, CleanRunNeverRecomputes) {
  Rng rng(4);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  Launcher launcher;
  AabftConfig config;
  config.bs = 16;
  AabftMultiplier mult(launcher, config);
  const auto result = mult.multiply(a, b).value();
  EXPECT_EQ(result.recomputations, 0u);
}

// The full re-run rung launches one product over the materialised encoded
// operands and one check, and nothing else.
TEST(Recompute, FullRerunLaunchesOneProductAndOneCheck) {
  Rng rng(5);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  arm_two_faults_in_one_block(controller);
  AabftConfig config;
  config.bs = 32;
  AabftMultiplier mult(launcher, config);
  const auto result = mult.multiply(a, b).value();
  launcher.set_fault_controller(nullptr);

  ASSERT_EQ(controller.fired_count(), 2u);
  EXPECT_TRUE(result.corrections.empty());
  EXPECT_EQ(result.recomputations, 1u);
  const std::vector<std::string> expected = {
      "encode_a_light", "encode_b_light", "gemm_fused", "check", "gemm",
      "check"};
  EXPECT_EQ(kernel_names(launcher), expected);
  EXPECT_EQ(result.c, naive_matmul(a, b, false));
}

// The block rung re-derives only the flagged block, bit-exactly, and makes
// the full re-run unnecessary.
TEST(Recompute, BlockRungLaunchesRecomputeBlocksInsteadOfAProduct) {
  Rng rng(6);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  arm_two_faults_in_one_block(controller);
  AabftConfig config;
  config.bs = 32;
  config.max_block_recomputes = 1;
  AabftMultiplier mult(launcher, config);
  const auto result = mult.multiply(a, b).value();
  launcher.set_fault_controller(nullptr);

  ASSERT_EQ(controller.fired_count(), 2u);
  EXPECT_EQ(result.block_recomputes, 1u);
  EXPECT_EQ(result.recomputations, 0u);
  EXPECT_TRUE(result.recheck_clean);
  const std::vector<std::string> expected = {
      "encode_a_light", "encode_b_light", "gemm_fused", "check",
      "recompute_blocks", "check"};
  EXPECT_EQ(kernel_names(launcher), expected);
  EXPECT_EQ(result.c, naive_matmul(a, b, false));
}

}  // namespace
