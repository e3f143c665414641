// Integration tests for the A-ABFT protected multiplication: clean runs stay
// clean (no false positives), injected critical faults are detected,
// localised and corrected, and each repair rung launches exactly the kernels
// it needs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "abft/aabft.hpp"
#include "core/rng.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/workload.hpp"

namespace {

using aabft::Rng;
using aabft::ErrorCode;
using aabft::abft::AabftConfig;
using aabft::abft::AabftMultiplier;
using aabft::abft::AabftResult;
using aabft::abft::BoundPolicy;
using aabft::gpusim::FaultConfig;
using aabft::gpusim::FaultController;
using aabft::gpusim::FaultSite;
using aabft::gpusim::Launcher;
using aabft::linalg::InputClass;
using aabft::linalg::make_input;
using aabft::linalg::Matrix;
using aabft::linalg::naive_matmul;
using aabft::linalg::uniform_matrix;

AabftConfig small_config(std::size_t bs = 16) {
  AabftConfig config;
  config.bs = bs;
  config.p = 2;
  return config;
}

std::vector<std::string> kernel_names(const Launcher& launcher) {
  std::vector<std::string> names;
  for (const auto& entry : launcher.launch_log())
    names.push_back(entry.kernel_name);
  return names;
}

/// The library pipeline of a clean multiply: two light encodes, the fused
/// product (which replays a faulty tile internally) and the check.
const std::vector<std::string> kCleanKernels = {
    "encode_a_light", "encode_b_light", "gemm_fused", "check"};

TEST(Aabft, CleanRunProducesCorrectResultAndNoMismatch) {
  Rng rng(21);
  const std::size_t n = 64;
  const Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(n, n, -1.0, 1.0, rng);
  Launcher launcher;
  AabftMultiplier mult(launcher, small_config());
  const auto result = mult.multiply(a, b).value();

  EXPECT_FALSE(result.error_detected());
  EXPECT_TRUE(result.corrections.empty());
  EXPECT_FALSE(result.uncorrectable);

  // The stripped result equals the unprotected product of the same kernel
  // except that it was computed from encoded operands — identical values for
  // the data elements because the extra checksum rows/columns do not feed
  // data elements.
  const Matrix ref = naive_matmul(a, b, false);
  EXPECT_EQ(result.c, ref);
}

// Property sweep: no false positives across sizes, block sizes, input
// classes, p, and accumulation modes (omega = 3, the paper's conservative
// setting).
struct CleanCase {
  std::size_t n;
  std::size_t bs;
  std::size_t p;
  InputClass input;
  bool fma;
  BoundPolicy policy;
};

// Printed into each case's ctest name; gtest's default byte dump of the
// struct would include its padding, which differs from build to build.
void PrintTo(const CleanCase& c, std::ostream* os) {
  *os << "(n=" << c.n << ", bs=" << c.bs << ", p=" << c.p << ", "
      << aabft::linalg::to_string(c.input) << ", "
      << (c.fma ? "fma" : "mul+add") << ", "
      << (c.policy == BoundPolicy::kPaperDirect ? "paper-direct"
                                                : "compositional")
      << ")";
}

class AabftCleanSweep : public ::testing::TestWithParam<CleanCase> {};

TEST_P(AabftCleanSweep, NoFalsePositives) {
  const auto& param = GetParam();
  Rng rng(1234 + param.n + param.bs);
  const Matrix a = make_input(param.input, param.n, 2.0, rng);
  const Matrix b = make_input(param.input, param.n, 2.0, rng);
  Launcher launcher;
  AabftConfig config;
  config.bs = param.bs;
  config.p = param.p;
  config.bounds.policy = param.policy;
  config.set_fma(param.fma);
  AabftMultiplier mult(launcher, config);
  const auto result = mult.multiply(a, b).value();
  EXPECT_FALSE(result.error_detected())
      << "false positive: " << result.report.mismatches.size()
      << " mismatches, first eps=" << result.report.mismatches.front().epsilon
      << " diff=" << result.report.mismatches.front().difference();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AabftCleanSweep,
    ::testing::Values(
        CleanCase{32, 16, 2, InputClass::kUnit, false, BoundPolicy::kPaperDirect},
        CleanCase{64, 16, 2, InputClass::kUnit, false, BoundPolicy::kPaperDirect},
        CleanCase{128, 32, 2, InputClass::kUnit, false, BoundPolicy::kPaperDirect},
        CleanCase{128, 32, 2, InputClass::kHundred, false, BoundPolicy::kPaperDirect},
        CleanCase{128, 32, 2, InputClass::kDynamic, false, BoundPolicy::kPaperDirect},
        CleanCase{64, 16, 1, InputClass::kUnit, false, BoundPolicy::kPaperDirect},
        CleanCase{64, 16, 4, InputClass::kHundred, false, BoundPolicy::kPaperDirect},
        CleanCase{64, 16, 2, InputClass::kUnit, true, BoundPolicy::kPaperDirect},
        CleanCase{128, 32, 2, InputClass::kHundred, true, BoundPolicy::kPaperDirect},
        CleanCase{64, 16, 2, InputClass::kUnit, false, BoundPolicy::kCompositional},
        CleanCase{128, 32, 2, InputClass::kDynamic, true, BoundPolicy::kCompositional},
        CleanCase{96, 32, 2, InputClass::kUnit, false, BoundPolicy::kPaperDirect},
        CleanCase{160, 32, 3, InputClass::kDynamic, false, BoundPolicy::kPaperDirect},
        CleanCase{64, 32, 2, InputClass::kHundred, false, BoundPolicy::kPaperDirect},
        CleanCase{96, 32, 1, InputClass::kUnit, false, BoundPolicy::kPaperDirect},
        CleanCase{64, 16, 4, InputClass::kDynamic, false, BoundPolicy::kPaperDirect},
        CleanCase{128, 32, 2, InputClass::kDynamic, true, BoundPolicy::kPaperDirect}));

// A wider dynamic range than the sweep's (kappa = 16 instead of 2): the
// bounds still absorb the rounding noise, and the data are exact.
TEST(Aabft, CleanRunWideRangeAndDynamic) {
  Rng rng(5);
  Launcher launcher;
  AabftMultiplier mult(launcher, small_config());
  for (const auto input : {InputClass::kHundred, InputClass::kDynamic}) {
    const Matrix a = make_input(input, 64, 16.0, rng);
    const Matrix b = make_input(input, 64, 16.0, rng);
    const auto result = mult.multiply(a, b).value();
    EXPECT_FALSE(result.error_detected()) << aabft::linalg::to_string(input);
    EXPECT_EQ(result.c, naive_matmul(a, b, false))
        << aabft::linalg::to_string(input);
  }
}

struct FaultedRun {
  AabftResult result;
  bool fired = false;
};

/// One large exponent corruption of an inner-loop multiply. `kernels`, if
/// given, receives the run's launch log in order.
FaultedRun multiply_with_large_fault(
    const Matrix& a, const Matrix& b, const AabftConfig& config,
    std::vector<std::string>* kernels = nullptr) {
  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  FaultConfig fault;
  fault.site = FaultSite::kInnerMul;
  fault.sm_id = 1;
  fault.module_id = 3;
  fault.k_injection = 17;
  fault.error_vec = 1ULL << 61;  // large exponent corruption
  controller.arm(fault);

  AabftMultiplier mult(launcher, config);
  FaultedRun run{mult.multiply(a, b).value()};
  launcher.set_fault_controller(nullptr);
  run.fired = controller.fired();
  if (kernels != nullptr) *kernels = kernel_names(launcher);
  return run;
}

TEST(Aabft, DetectsAndCorrectsLargeInjectedFault) {
  Rng rng(31);
  const std::size_t n = 64;
  const Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(n, n, -1.0, 1.0, rng);

  // No panel replay: the fault reaches the end-of-product check and the
  // correction rung.
  AabftConfig config = small_config();
  config.fused.max_panel_recomputes = 0;
  const auto [result, fired] = multiply_with_large_fault(a, b, config);

  ASSERT_TRUE(fired);
  EXPECT_TRUE(result.error_detected());
  ASSERT_EQ(result.corrections.size(), 1u);
  EXPECT_FALSE(result.uncorrectable);
  EXPECT_TRUE(result.recheck_clean);

  // The corrected data must match the fault-free product to within the
  // correction's own rounding (the rebuilt element is a sum of BS terms).
  const Matrix ref = naive_matmul(a, b, false);
  EXPECT_LT(result.c.max_abs_diff(ref), 1e-10);
}

TEST(Aabft, DefaultConfigReplaysLargeInjectedFault) {
  Rng rng(31);
  const std::size_t n = 64;
  const Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(n, n, -1.0, 1.0, rng);

  Launcher clean_launcher;
  AabftMultiplier clean_mult(clean_launcher, small_config());
  const AabftResult clean = clean_mult.multiply(a, b).value();

  // The same fault under the library default: the fused product's panel
  // screen catches it and the tile replay repairs it bit-exactly.
  const auto [result, fired] = multiply_with_large_fault(a, b, small_config());

  ASSERT_TRUE(fired);
  EXPECT_TRUE(result.error_detected());
  EXPECT_GE(result.panel_recomputes, 1u);
  EXPECT_TRUE(result.corrections.empty());
  EXPECT_FALSE(result.uncorrectable);
  EXPECT_TRUE(result.recheck_clean);
  EXPECT_EQ(std::memcmp(result.c.data(), clean.c.data(),
                        sizeof(double) * clean.c.size()),
            0);
}

TEST(Aabft, CorrectionRestoresExactValueFromChecksum) {
  // A fault in the *final add* corrupts a stored element after accumulation;
  // the corrected value is reconstructed from the column checksum.
  Rng rng(37);
  const std::size_t n = 32;
  const Matrix a = uniform_matrix(n, n, -2.0, 2.0, rng);
  const Matrix b = uniform_matrix(n, n, -2.0, 2.0, rng);

  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  FaultConfig fault;
  fault.site = FaultSite::kFinalAdd;
  fault.sm_id = 2;
  fault.module_id = 0;
  fault.k_injection = 0;
  fault.error_vec = 0x7ff0ULL << 48;  // exponent havoc
  controller.arm(fault);

  AabftMultiplier mult(launcher, small_config());
  const auto result = mult.multiply(a, b).value();
  launcher.set_fault_controller(nullptr);

  ASSERT_TRUE(controller.fired());
  ASSERT_TRUE(result.error_detected());
  ASSERT_FALSE(result.corrections.empty());
  EXPECT_TRUE(result.recheck_clean);
}

TEST(Aabft, DetectionOnlyModeReportsUncorrectable) {
  Rng rng(41);
  const std::size_t n = 32;
  const Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(n, n, -1.0, 1.0, rng);

  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  FaultConfig fault;
  fault.site = FaultSite::kInnerAdd;
  fault.sm_id = 0;
  fault.module_id = 1;
  fault.k_injection = 3;
  fault.error_vec = 1ULL << 62;
  controller.arm(fault);

  AabftConfig config = small_config();
  config.correct_errors = false;
  AabftMultiplier mult(launcher, config);
  const auto result = mult.multiply(a, b).value();
  launcher.set_fault_controller(nullptr);

  ASSERT_TRUE(controller.fired());
  EXPECT_TRUE(result.error_detected());
  EXPECT_TRUE(result.uncorrectable);
  EXPECT_TRUE(result.corrections.empty());
}

// The repair rungs' launch logs: what each rung costs on top of the clean
// pipeline.

TEST(Aabft, CorrectionRungLaunchesOneRecheck) {
  Rng rng(31);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  AabftConfig config = small_config();
  config.fused.max_panel_recomputes = 0;
  std::vector<std::string> kernels;
  const auto [result, fired] =
      multiply_with_large_fault(a, b, config, &kernels);

  ASSERT_TRUE(fired);
  ASSERT_EQ(result.corrections.size(), 1u);
  // The patch is verified by one more check; nothing is recomputed.
  std::vector<std::string> expected = kCleanKernels;
  expected.push_back("check");
  EXPECT_EQ(kernels, expected);
}

TEST(Aabft, PanelReplayLaunchesNoKernelBeyondTheCleanRun) {
  Rng rng(31);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  std::vector<std::string> kernels;
  const auto [result, fired] =
      multiply_with_large_fault(a, b, small_config(), &kernels);

  ASSERT_TRUE(fired);
  EXPECT_GE(result.panel_recomputes, 1u);
  // The tile replay runs inside gemm_fused, so the end-of-product check is
  // clean and needs no re-check.
  EXPECT_TRUE(result.report.clean());
  EXPECT_EQ(kernels, kCleanKernels);
}

TEST(Aabft, DetectionOnlyLaunchesNoRepairKernel) {
  Rng rng(31);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  AabftConfig config = small_config();
  config.correct_errors = false;
  std::vector<std::string> kernels;
  const auto [result, fired] =
      multiply_with_large_fault(a, b, config, &kernels);

  ASSERT_TRUE(fired);
  EXPECT_TRUE(result.uncorrectable);
  EXPECT_EQ(result.recomputations, 0u);
  EXPECT_EQ(kernels, kCleanKernels);
}

TEST(Aabft, SuppliedEncodeOfASkipsItsEncodeKernel) {
  Rng rng(61);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  Launcher launcher;
  AabftMultiplier mult(launcher, small_config());
  const AabftResult fresh = mult.multiply(a, b).value();
  const auto a_light = aabft::abft::encode_columns_light(
      launcher, a, aabft::abft::PartitionedCodec(16), 2);
  launcher.clear_launch_log();

  const AabftResult cached = mult.multiply(a, b, &a_light).value();
  const std::vector<std::string> expected = {"encode_b_light", "gemm_fused",
                                             "check"};
  EXPECT_EQ(kernel_names(launcher), expected);
  EXPECT_EQ(cached.c, fresh.c);
}

TEST(Aabft, CacheVerifyReencodesEveryNthSuppliedA) {
  Rng rng(62);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  Launcher launcher;
  const auto a_light = aabft::abft::encode_columns_light(
      launcher, a, aabft::abft::PartitionedCodec(16), 2);
  AabftConfig config = small_config();
  config.cache_verify_every = 2;
  AabftMultiplier mult(launcher, config);

  // The first supplied encode is checked against a fresh one, the second
  // is trusted.
  launcher.clear_launch_log();
  (void)mult.multiply(a, b, &a_light).value();
  EXPECT_EQ(kernel_names(launcher), kCleanKernels);
  launcher.clear_launch_log();
  (void)mult.multiply(a, b, &a_light).value();
  const std::vector<std::string> trusted = {"encode_b_light", "gemm_fused",
                                            "check"};
  EXPECT_EQ(kernel_names(launcher), trusted);
}

TEST(Aabft, RejectsIndivisibleDimensions) {
  Launcher launcher;
  AabftMultiplier mult(launcher, small_config(16));
  Matrix a(20, 16);  // 20 % 16 != 0
  Matrix b(16, 32);
  // Recoverable misuse is an error value (DESIGN.md §4.7), not an exception;
  // unchecked access still throws with the diagnostic.
  const auto result = mult.multiply(a, b);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kShapeMismatch);
  EXPECT_THROW((void)mult.multiply(a, b).value(), std::invalid_argument);
}

TEST(Aabft, RejectsMismatchedInnerDimensions) {
  Launcher launcher;
  AabftMultiplier mult(launcher, small_config(16));
  Matrix a(16, 24);
  Matrix b(16, 32);  // a.cols() != b.rows()
  const auto result = mult.multiply(a, b);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kShapeMismatch);
}

TEST(Aabft, RejectsInconsistentFmaFlags) {
  Launcher launcher;
  AabftConfig config = small_config();
  config.bounds.fma = true;  // gemm still mul+add
  EXPECT_THROW(AabftMultiplier(launcher, config), std::invalid_argument);
}

TEST(Aabft, NonSquareShapesWork) {
  Rng rng(55);
  const Matrix a = uniform_matrix(32, 48, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(48, 64, -1.0, 1.0, rng);
  Launcher launcher;
  AabftMultiplier mult(launcher, small_config());
  const auto result = mult.multiply(a, b).value();
  EXPECT_FALSE(result.error_detected());
  EXPECT_EQ(result.c.rows(), 32u);
  EXPECT_EQ(result.c.cols(), 64u);
  EXPECT_EQ(result.c, naive_matmul(a, b, false));
}

}  // namespace
