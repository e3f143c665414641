// The paper's own A-ABFT kernels, as Table I's and Figure 4's "a-abft"
// contender runs them (baselines::PaperAabftScheme): Algorithm 1 encode into
// the materialised A_cc / B_rc, the block-based product over them
// (Algorithm 3), then the check and recovery ladder the library shares
// (abft::settle). The library multiplier runs the fused pipeline; these
// tests pin the paper's path on its own: clean runs are exact and launch the
// paper's six kernels in order, injected faults are detected and repaired
// rung by rung, misuse is an error value, the contender is GEMM-only, and its
// checker flags a corrupted product.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "abft/aabft.hpp"
#include "abft/encoder.hpp"
#include "baselines/schemes.hpp"
#include "core/rng.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace {

using aabft::ErrorCode;
using aabft::Rng;
using aabft::abft::AabftConfig;
using aabft::abft::AabftResult;
using aabft::abft::PartitionedCodec;
using aabft::baselines::OpDescriptor;
using aabft::baselines::OpKind;
using aabft::baselines::PaperAabftScheme;
using aabft::baselines::ProductCheckContext;
using aabft::gpusim::FaultConfig;
using aabft::gpusim::FaultController;
using aabft::gpusim::FaultSite;
using aabft::gpusim::Launcher;
using aabft::linalg::Matrix;
using aabft::linalg::naive_matmul;
using aabft::linalg::uniform_matrix;

AabftConfig small_config(std::size_t bs = 16) {
  AabftConfig config;
  config.bs = bs;
  config.p = 2;
  return config;
}

struct FaultedRun {
  AabftResult result;
  std::size_t fired = 0;
};

/// One contender GEMM with `faults` armed on its launcher.
FaultedRun multiply_with_faults(const Matrix& a, const Matrix& b,
                                const AabftConfig& config,
                                const std::vector<FaultConfig>& faults) {
  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  controller.arm_many(faults);
  PaperAabftScheme scheme(launcher, config);
  FaultedRun run{scheme.multiply(a, b).value()};
  launcher.set_fault_controller(nullptr);
  run.fired = controller.fired_count();
  return run;
}

/// Two final-add exponent flips in block 0's tile, columns 0 and 1: both sit
/// in one checksum block, so the mismatches do not localise to one element.
std::vector<FaultConfig> unlocalisable_pair() {
  std::vector<FaultConfig> faults(2);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    faults[i].site = FaultSite::kFinalAdd;
    faults[i].sm_id = 0;
    faults[i].module_id = i;
    faults[i].error_vec = 1ULL << 60;
  }
  return faults;
}

TEST(PaperAabft, CleanRunIsExactAndUnflagged) {
  Rng rng(201);
  const Matrix a = uniform_matrix(64, 48, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(48, 32, -1.0, 1.0, rng);
  Launcher launcher;
  PaperAabftScheme scheme(launcher, small_config());
  const AabftResult result = scheme.multiply(a, b).value();

  EXPECT_FALSE(result.error_detected());
  EXPECT_TRUE(result.corrections.empty());
  EXPECT_FALSE(result.uncorrectable);
  EXPECT_TRUE(result.recheck_clean);
  EXPECT_EQ(result.recomputations, 0u);
  // Checksum rows/columns never feed data elements: the stripped product is
  // the unprotected one, bit for bit, and C_fc carries one checksum row per
  // row block and one checksum column per column block.
  EXPECT_EQ(result.c, naive_matmul(a, b, false));
  EXPECT_EQ(result.c_fc.rows(), 64u + 64u / 16u);
  EXPECT_EQ(result.c_fc.cols(), 32u + 32u / 16u);
  // The paper's kernels in order: Algorithm 1 on A and on B, each followed
  // by its global p-max reduction, the blocked product and the check.
  std::vector<std::string> names;
  for (const auto& entry : launcher.launch_log())
    names.push_back(entry.kernel_name);
  const std::vector<std::string> expected = {
      "encode_a", "reduce_pmax_a", "encode_b", "reduce_pmax_b", "gemm", "check"};
  EXPECT_EQ(names, expected);
}

TEST(PaperAabft, CorrectsLargeInnerProductFault) {
  Rng rng(203);
  const std::size_t n = 64;
  const Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(n, n, -1.0, 1.0, rng);
  FaultConfig fault;
  fault.site = FaultSite::kInnerMul;
  fault.sm_id = 1;
  fault.module_id = 3;
  fault.k_injection = 17;
  fault.error_vec = 1ULL << 61;  // large exponent corruption

  // The paper's product has no panel screen: the fault reaches the
  // end-of-product check and the correction rung.
  const auto [result, fired] = multiply_with_faults(a, b, small_config(), {fault});
  ASSERT_EQ(fired, 1u);
  EXPECT_TRUE(result.error_detected());
  EXPECT_EQ(result.panel_detections, 0u);
  ASSERT_EQ(result.corrections.size(), 1u);
  EXPECT_FALSE(result.uncorrectable);
  EXPECT_TRUE(result.recheck_clean);
  EXPECT_EQ(result.recomputations, 0u);
  // The rebuilt element is a checksum difference of BS terms: close, not
  // bit-exact.
  EXPECT_LT(result.c.max_abs_diff(naive_matmul(a, b, false)), 1e-10);
}

TEST(PaperAabft, CorrectionRestoresFinalAddFaultFromChecksum) {
  Rng rng(205);
  const std::size_t n = 32;
  const Matrix a = uniform_matrix(n, n, -2.0, 2.0, rng);
  const Matrix b = uniform_matrix(n, n, -2.0, 2.0, rng);
  FaultConfig fault;
  fault.site = FaultSite::kFinalAdd;
  fault.sm_id = 2;
  fault.module_id = 0;
  fault.error_vec = 0x7ff0ULL << 48;  // exponent havoc

  const auto [result, fired] = multiply_with_faults(a, b, small_config(), {fault});
  ASSERT_EQ(fired, 1u);
  EXPECT_TRUE(result.error_detected());
  ASSERT_EQ(result.corrections.size(), 1u);
  EXPECT_TRUE(result.recheck_clean);
  EXPECT_LT(result.c.max_abs_diff(naive_matmul(a, b, false)), 1e-9);
}

TEST(PaperAabft, FullRecomputeRepairsUnlocalisableFaults) {
  Rng rng(207);
  const std::size_t n = 64;
  const Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(n, n, -1.0, 1.0, rng);

  const auto [result, fired] =
      multiply_with_faults(a, b, small_config(32), unlocalisable_pair());
  ASSERT_EQ(fired, 2u);
  EXPECT_TRUE(result.error_detected());
  EXPECT_FALSE(result.uncorrectable);
  EXPECT_TRUE(result.recheck_clean);
  EXPECT_EQ(result.block_recomputes, 0u);
  EXPECT_GE(result.recomputations, 1u);
  // The faults are one-shot: the re-executed product is the clean one.
  EXPECT_EQ(result.c, naive_matmul(a, b, false));
}

TEST(PaperAabft, BlockRecomputeRepairsWithoutFullRerun) {
  Rng rng(207);
  const std::size_t n = 64;
  const Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(n, n, -1.0, 1.0, rng);
  AabftConfig config = small_config(32);
  config.max_block_recomputes = 1;

  const auto [result, fired] =
      multiply_with_faults(a, b, config, unlocalisable_pair());
  ASSERT_EQ(fired, 2u);
  EXPECT_TRUE(result.error_detected());
  EXPECT_FALSE(result.uncorrectable);
  EXPECT_TRUE(result.recheck_clean);
  EXPECT_GE(result.block_recomputes, 1u);
  EXPECT_EQ(result.recomputations, 0u)
      << "the flagged block alone is re-derived from A_cc / B_rc";
  EXPECT_EQ(result.c, naive_matmul(a, b, false));
}

TEST(PaperAabft, DetectionOnlyModeReportsUncorrectable) {
  Rng rng(209);
  const std::size_t n = 32;
  const Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(n, n, -1.0, 1.0, rng);
  FaultConfig fault;
  fault.site = FaultSite::kInnerAdd;
  fault.sm_id = 0;
  fault.module_id = 1;
  fault.k_injection = 3;
  fault.error_vec = 1ULL << 62;
  AabftConfig config = small_config();
  config.correct_errors = false;

  const auto [result, fired] = multiply_with_faults(a, b, config, {fault});
  ASSERT_EQ(fired, 1u);
  EXPECT_TRUE(result.error_detected());
  EXPECT_TRUE(result.uncorrectable);
  EXPECT_FALSE(result.recheck_clean);
  EXPECT_TRUE(result.corrections.empty());
  EXPECT_EQ(result.recomputations, 0u);
}

TEST(PaperAabft, ShapeMisuseIsAnErrorValue) {
  Launcher launcher;
  PaperAabftScheme scheme(launcher, small_config(16));
  const Matrix indivisible_a(20, 16);  // 20 % 16 != 0
  const Matrix b(16, 32);
  const auto indivisible = scheme.multiply(indivisible_a, b);
  ASSERT_FALSE(indivisible.ok());
  EXPECT_EQ(indivisible.error().code, ErrorCode::kShapeMismatch);

  const Matrix a(16, 24);  // a.cols() != b.rows()
  const auto mismatched = scheme.multiply(a, b);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.error().code, ErrorCode::kShapeMismatch);
  EXPECT_TRUE(launcher.launch_log().empty()) << "misuse launches nothing";
}

TEST(PaperAabft, ContenderIsGemmOnly) {
  Rng rng(211);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  Launcher launcher;
  PaperAabftScheme scheme(launcher, small_config());
  EXPECT_TRUE(scheme.supports(OpKind::kGemm));
  for (const OpKind kind : {OpKind::kSyrk, OpKind::kCholesky, OpKind::kLu}) {
    EXPECT_FALSE(scheme.supports(kind));
    const auto refused = scheme.execute(OpDescriptor::of(kind, a, a), a, a);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code, ErrorCode::kUnsupportedOp);
  }
  const auto gemm = scheme.execute(OpDescriptor::of(OpKind::kGemm, a, a), a, a);
  ASSERT_TRUE(gemm.ok());
  EXPECT_TRUE(gemm->clean);
  EXPECT_EQ(gemm->c, naive_matmul(a, a, false));
}

TEST(PaperAabft, CheckerFlagsCorruptedProductOnly) {
  // Figure 4's path: the campaign encodes once and asks each contender's
  // checker about a (possibly corrupted) full-checksum product.
  Rng rng(213);
  const std::size_t n = 64;
  const Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(n, n, -1.0, 1.0, rng);
  const AabftConfig config = small_config();
  Launcher launcher;
  const PartitionedCodec codec(config.bs);
  const auto a_cc = aabft::abft::encode_columns(launcher, a, codec, config.p);
  const auto b_rc = aabft::abft::encode_rows(launcher, b, codec, config.p);
  Matrix c_fc = aabft::linalg::blocked_matmul(launcher, a_cc.data, b_rc.data,
                                              config.gemm);

  PaperAabftScheme scheme(launcher, config);
  const ProductCheckContext ctx{launcher, codec, a_cc, b_rc, n};
  const auto checker = scheme.make_checker(ctx);
  ASSERT_NE(checker, nullptr);
  EXPECT_FALSE(checker->flags_error(c_fc)) << "no false positive";
  c_fc(5, 9) += 1.0;  // far above the rounding bound of a unit-range product
  EXPECT_TRUE(checker->flags_error(c_fc));
}

}  // namespace
