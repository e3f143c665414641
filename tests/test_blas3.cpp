// ProtectedBlas3 operation API tests: op descriptors, the protected SYRK and
// Cholesky engines (with checksum carry), the raw references, the scheme
// adapters' per-kind execute coverage (including kUnsupportedOp as a value),
// and fault campaigns through the non-GEMM paths.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "abft/blas3.hpp"
#include "baselines/op.hpp"
#include "baselines/schemes.hpp"
#include "core/rng.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace {

using aabft::ErrorCode;
using aabft::Rng;
using namespace aabft::abft;
using aabft::baselines::OpDescriptor;
using aabft::baselines::OpKind;
using aabft::gpusim::FaultConfig;
using aabft::gpusim::FaultController;
using aabft::gpusim::FaultSite;
using aabft::gpusim::Launcher;
using aabft::linalg::Matrix;
using aabft::linalg::naive_matmul;
using aabft::linalg::uniform_matrix;

AabftConfig small_aabft() {
  AabftConfig config;
  config.bs = 16;
  return config;
}

Matrix spd_matrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const Matrix m = uniform_matrix(n, n, -1.0, 1.0, rng);
  Matrix a = naive_matmul(m, m.transposed(), false);
  for (std::size_t i = 0; i < n; ++i)
    a(i, i) += static_cast<double>(n);
  return a;
}

Matrix well_conditioned(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  for (std::size_t i = 0; i < n; ++i)
    a(i, i) += static_cast<double>(n);
  return a;
}

// ---- op descriptors --------------------------------------------------------

TEST(OpDescriptor, FactoriesAndFlops) {
  const auto gemm = OpDescriptor::gemm(8, 12, 16);
  EXPECT_EQ(gemm.kind, OpKind::kGemm);
  EXPECT_DOUBLE_EQ(gemm.flops(), 2.0 * 8 * 12 * 16);

  const auto syrk = OpDescriptor::syrk(8, 12);
  EXPECT_EQ(syrk.kind, OpKind::kSyrk);
  EXPECT_EQ(syrk.q, 8u);  // the product A A^T is m x m
  EXPECT_DOUBLE_EQ(syrk.flops(), 8.0 * 8 * 12);

  const auto chol = OpDescriptor::cholesky(12);
  EXPECT_DOUBLE_EQ(chol.flops(), 12.0 * 12 * 12 / 3.0);
  const auto lu = OpDescriptor::lu(12);
  EXPECT_DOUBLE_EQ(lu.flops(), 2.0 * 12 * 12 * 12 / 3.0);
  EXPECT_LT(chol.flops(), lu.flops());
  EXPECT_LT(lu.flops(), OpDescriptor::gemm(12, 12, 12).flops());

  EXPECT_TRUE(gemm.uses_b());
  EXPECT_FALSE(syrk.uses_b());
  EXPECT_FALSE(chol.is_factorization() == lu.is_factorization() &&
               !chol.is_factorization());
  EXPECT_FALSE(gemm.is_factorization());

  EXPECT_STREQ(std::string(to_string(OpKind::kGemm)).c_str(), "gemm");
  EXPECT_STREQ(std::string(to_string(OpKind::kSyrk)).c_str(), "syrk");
  EXPECT_STREQ(std::string(to_string(OpKind::kCholesky)).c_str(), "cholesky");
  EXPECT_STREQ(std::string(to_string(OpKind::kLu)).c_str(), "lu");
}

// ---- checksum carry --------------------------------------------------------

TEST(ChecksumCarry, DetectsCorruptionBetweenUpdates) {
  const std::size_t n = 24;
  const Matrix a = well_conditioned(n, 7);
  ChecksumCarry carry(n, /*bs=*/8, /*panel=*/8);
  ASSERT_TRUE(carry.enabled());
  carry.init(a);
  EXPECT_EQ(carry.verify_panel(a, 0, 8), 0u);

  Matrix corrupted = a;
  corrupted(10, 3) += 1.0;  // block row 1, a column of the first panel
  EXPECT_GE(carry.verify_panel(corrupted, 0, 8), 1u);
  // Columns outside the verified panel range are not consulted.
  corrupted = a;
  corrupted(10, 20) += 1.0;
  EXPECT_EQ(carry.verify_panel(corrupted, 0, 8), 0u);
}

TEST(ChecksumCarry, RowSwapsKeepSumsCurrent) {
  const std::size_t n = 24;
  Matrix a = well_conditioned(n, 8);
  ChecksumCarry carry(n, /*bs=*/8, /*panel=*/8);
  carry.init(a);

  // A cross-block pivot swap, adjusted before the exchange like the LU loop.
  carry.note_row_swap(a, 2, 17, 0);
  for (std::size_t c = 0; c < n; ++c) std::swap(a(2, c), a(17, c));
  EXPECT_EQ(carry.verify_panel(a, 0, 8), 0u);

  // A same-block swap needs no adjustment at all.
  for (std::size_t c = 0; c < n; ++c) std::swap(a(8, c), a(9, c));
  EXPECT_EQ(carry.verify_panel(a, 8, 16), 0u);
}

TEST(ChecksumCarry, DisablesOnMisalignedPanels) {
  ChecksumCarry carry(24, /*bs=*/8, /*panel=*/12);  // panel % bs != 0
  EXPECT_FALSE(carry.enabled());
  EXPECT_EQ(carry.verify_panel(Matrix(24, 24, 1.0), 0, 12), 0u);
}

// ---- protected SYRK --------------------------------------------------------

TEST(ProtectedSyrk, MatchesNaiveReference) {
  Launcher launcher;
  Rng rng(9);
  const Matrix a = uniform_matrix(40, 24, -1.0, 1.0, rng);  // pads internally
  ProtectedSyrk syrk(launcher, small_aabft());
  const AabftResult result = syrk.multiply(a);
  EXPECT_FALSE(result.error_detected());
  EXPECT_EQ(result.c, naive_matmul(a, a.transposed(), false));
}

TEST(ProtectedSyrk, RepairsInjectedFault) {
  Launcher launcher;
  Rng rng(10);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, a.transposed(), false);

  FaultController controller;
  launcher.set_fault_controller(&controller);
  FaultConfig fault;
  fault.site = FaultSite::kInnerMul;
  fault.sm_id = 0;
  fault.module_id = 0;
  fault.k_injection = 3;
  fault.error_vec = 1ULL << 61;  // exponent-region flip: always detectable
  controller.arm(fault);

  ProtectedSyrk syrk(launcher, small_aabft());
  const AabftResult result = syrk.multiply(a);
  launcher.set_fault_controller(nullptr);

  ASSERT_TRUE(controller.fired());
  EXPECT_TRUE(result.error_detected());
  EXPECT_TRUE(result.recheck_clean);
  EXPECT_FALSE(result.uncorrectable);
  for (std::size_t i = 0; i < ref.rows(); ++i)
    for (std::size_t j = 0; j < ref.cols(); ++j)
      EXPECT_NEAR(result.c(i, j), ref(i, j),
                  1e-9 * std::max(1.0, std::abs(ref(i, j))));
}

// ---- protected Cholesky ----------------------------------------------------

ProtectedCholConfig small_chol() {
  ProtectedCholConfig config;
  config.panel = 16;
  config.aabft.bs = 16;
  return config;
}

TEST(ProtectedCholesky, FactorsAndReconstructs) {
  const std::size_t n = 64;
  const Matrix a = spd_matrix(n, 11);
  Launcher launcher;
  ProtectedCholesky chol(launcher, small_chol());
  const CholResult result = chol.factor(a);
  ASSERT_TRUE(result.ok);
  EXPECT_FALSE(result.not_positive_definite);
  EXPECT_EQ(result.protected_updates, n / 16 - 1);
  EXPECT_EQ(result.faults_detected, 0u);
  EXPECT_EQ(result.carry_mismatches, 0u);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      EXPECT_EQ(result.l(i, j), 0.0) << "strictly-upper part zeroed";
  EXPECT_LT(ProtectedCholesky::residual(a, result), 1e-9);
}

TEST(ProtectedCholesky, RaggedFinalPanel) {
  const std::size_t n = 56;  // not a multiple of the 16-wide panel
  const Matrix a = spd_matrix(n, 12);
  Launcher launcher;
  ProtectedCholesky chol(launcher, small_chol());
  const CholResult result = chol.factor(a);
  ASSERT_TRUE(result.ok);
  EXPECT_LT(ProtectedCholesky::residual(a, result), 1e-9);
}

TEST(ProtectedCholesky, ReportsIndefiniteInput) {
  Matrix a(8, 8, 0.0);
  for (std::size_t i = 0; i < 8; ++i) a(i, i) = -1.0;
  Launcher launcher;
  ProtectedCholConfig config;
  config.panel = 4;
  config.aabft.bs = 4;
  ProtectedCholesky chol(launcher, config);
  const CholResult result = chol.factor(a);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.not_positive_definite);
}

TEST(ProtectedCholesky, SurvivesExponentFlipInTrailingUpdate) {
  const std::size_t n = 64;
  const Matrix a = spd_matrix(n, 13);
  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  FaultConfig fault;
  fault.site = FaultSite::kFinalAdd;
  fault.sm_id = 0;
  fault.module_id = 0;
  fault.k_injection = 0;
  fault.error_vec = 1ULL << 60;
  controller.arm(fault);

  ProtectedCholesky chol(launcher, small_chol());
  const CholResult result = chol.factor(a);
  launcher.set_fault_controller(nullptr);

  ASSERT_TRUE(controller.fired());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.faults_detected, 1u);
  EXPECT_GE(result.corrections + result.block_recomputes +
                result.recomputations,
            1u);
  EXPECT_EQ(result.factor_restarts, 0u)
      << "an in-update fault is repaired by the update's own ladder";
  EXPECT_LT(ProtectedCholesky::residual(a, result), 1e-9);
}

TEST(ProtectedCholesky, FaultCampaignServesNoWrongFactors) {
  const std::size_t n = 48;
  const Matrix a = spd_matrix(n, 14);
  Rng rng(15);

  // Clean protected runs are deterministic: this factor is the bit-exact
  // answer an undetected-but-benign fault must still produce.
  Matrix clean_l;
  {
    Launcher launcher;
    ProtectedCholesky chol(launcher, small_chol());
    const CholResult clean = chol.factor(a);
    ASSERT_TRUE(clean.ok);
    clean_l = clean.l;
  }

  std::size_t fired = 0;
  std::size_t detected = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Launcher launcher;
    FaultController controller;
    launcher.set_fault_controller(&controller);
    FaultConfig fault;
    fault.site = static_cast<FaultSite>(rng.below(3));
    fault.sm_id = static_cast<int>(rng.below(2));
    fault.module_id = static_cast<int>(rng.below(4));
    fault.k_injection = fault.site == FaultSite::kFinalAdd
                            ? 0
                            : static_cast<std::int64_t>(rng.below(16));
    // Exponent-field flip, avoiding the top exponent bit (which can turn a
    // normal value into NaN and defeat magnitude-based detection).
    fault.error_vec = 1ULL << (52 + rng.below(10));
    controller.arm(fault);

    ProtectedCholesky chol(launcher, small_chol());
    const CholResult result = chol.factor(a);
    launcher.set_fault_controller(nullptr);

    fired += controller.fired() ? 1 : 0;
    // A fired flip is caught either by the update's own partitioned check or
    // by the carried-checksum verification of a later panel.
    const bool trial_detected =
        result.faults_detected + result.carry_mismatches > 0;
    detected += trial_detected ? 1 : 0;
    ASSERT_TRUE(result.ok) << "trial " << trial;
    EXPECT_LT(ProtectedCholesky::residual(a, result), 1e-9)
        << "trial " << trial;
    if (controller.fired() && !trial_detected) {
      // The only acceptable undetected outcome is a benign fault (e.g. a
      // flip into discarded kernel padding): the factor must be bit-exact.
      EXPECT_EQ(result.l, clean_l)
          << "trial " << trial << ": undetected fault silently corrupted L";
    }
  }
  EXPECT_GT(fired, 0u) << "the campaign must actually inject";
  EXPECT_GT(detected, 0u) << "the campaign must exercise detection";
  // Zero-SDC is the real acceptance bar (checked per-trial above); most
  // fired flips should additionally be flagged rather than benign.
  EXPECT_GE(2 * detected, fired) << "suspiciously low detection rate";
}

// ---- raw references --------------------------------------------------------

TEST(RawReferences, AgreeWithProtectedResults) {
  Launcher launcher;
  Rng rng(16);
  const Matrix g = uniform_matrix(32, 24, -1.0, 1.0, rng);
  EXPECT_EQ(raw_syrk(launcher, g), naive_matmul(g, g.transposed(), false));

  const std::size_t n = 48;
  const Matrix a = spd_matrix(n, 17);
  const RawFactorResult chol = raw_cholesky(launcher, a, {}, 16);
  ASSERT_TRUE(chol.ok);
  CholResult as_chol;
  as_chol.l = chol.f;
  EXPECT_LT(ProtectedCholesky::residual(a, as_chol), 1e-9);

  const Matrix w = well_conditioned(n, 18);
  const RawFactorResult lu = raw_lu(launcher, w, {}, 16);
  ASSERT_TRUE(lu.ok);
  ASSERT_EQ(lu.perm.size(), n);
}

// ---- scheme adapters -------------------------------------------------------

TEST(Schemes, AabftExecuteCoversEveryKind) {
  Launcher launcher;
  Rng rng(19);
  aabft::baselines::AabftScheme scheme(launcher, small_aabft());
  EXPECT_TRUE(scheme.supports(OpKind::kGemm));
  EXPECT_TRUE(scheme.supports(OpKind::kSyrk));
  EXPECT_TRUE(scheme.supports(OpKind::kCholesky));
  EXPECT_TRUE(scheme.supports(OpKind::kLu));

  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  auto gemm = scheme.execute(OpDescriptor::gemm(32, 32, 32), a, b);
  ASSERT_TRUE(gemm.ok()) << gemm.error().message;
  EXPECT_EQ(gemm->c, naive_matmul(a, b, false));
  EXPECT_TRUE(gemm->clean);

  auto syrk = scheme.execute(OpDescriptor::syrk(32, 32), a, Matrix());
  ASSERT_TRUE(syrk.ok());
  EXPECT_EQ(syrk->c, naive_matmul(a, a.transposed(), false));

  const std::size_t n = 48;
  const Matrix spd = spd_matrix(n, 20);
  auto chol = scheme.execute(OpDescriptor::cholesky(n), spd, Matrix());
  ASSERT_TRUE(chol.ok()) << chol.error().message;
  EXPECT_TRUE(chol->clean);
  EXPECT_GT(chol->protected_updates, 0u);
  CholResult as_chol;
  as_chol.l = chol->c;
  EXPECT_LT(ProtectedCholesky::residual(spd, as_chol), 1e-9);

  const Matrix w = well_conditioned(n, 21);
  auto lu = scheme.execute(OpDescriptor::lu(n), w, Matrix());
  ASSERT_TRUE(lu.ok()) << lu.error().message;
  EXPECT_TRUE(lu->clean);
  EXPECT_EQ(lu->perm.size(), n);

  // Input-domain failures come back as values, not wrong results.
  Matrix indefinite(8, 8, 0.0);
  for (std::size_t i = 0; i < 8; ++i) indefinite(i, i) = -1.0;
  auto bad = scheme.execute(OpDescriptor::cholesky(8), indefinite, Matrix());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kInvalidArgument);
}

TEST(Schemes, GemmOnlySchemesRefuseOtherKindsAsValues) {
  Launcher launcher;
  Rng rng(22);
  const Matrix a = uniform_matrix(16, 16, -1.0, 1.0, rng);

  aabft::baselines::FixedAbftConfig fixed;
  fixed.bs = 16;
  aabft::baselines::FixedAbftScheme fixed_scheme(launcher, fixed);
  EXPECT_FALSE(fixed_scheme.supports(OpKind::kSyrk));
  auto refused = fixed_scheme.execute(OpDescriptor::syrk(16, 16), a, Matrix());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, ErrorCode::kUnsupportedOp);

  aabft::baselines::SeaAbftConfig sea;
  sea.bs = 16;
  aabft::baselines::SeaAbftScheme sea_scheme(launcher, sea);
  auto sea_refused =
      sea_scheme.execute(OpDescriptor::cholesky(16), a, Matrix());
  ASSERT_FALSE(sea_refused.ok());
  EXPECT_EQ(sea_refused.error().code, ErrorCode::kUnsupportedOp);
}

TEST(Schemes, UnprotectedExecutesEveryKind) {
  Launcher launcher;
  Rng rng(23);
  aabft::baselines::UnprotectedScheme scheme(launcher);
  const Matrix a = uniform_matrix(24, 24, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(24, 24, -1.0, 1.0, rng);

  auto gemm = scheme.execute(OpDescriptor::gemm(24, 24, 24), a, b);
  ASSERT_TRUE(gemm.ok());
  EXPECT_EQ(gemm->c, naive_matmul(a, b, false));

  auto syrk = scheme.execute(OpDescriptor::syrk(24, 24), a, Matrix());
  ASSERT_TRUE(syrk.ok());
  EXPECT_EQ(syrk->c, naive_matmul(a, a.transposed(), false));

  const Matrix spd = spd_matrix(32, 24);
  auto chol = scheme.execute(OpDescriptor::cholesky(32), spd, Matrix());
  ASSERT_TRUE(chol.ok());
  CholResult as_chol;
  as_chol.l = chol->c;
  EXPECT_LT(ProtectedCholesky::residual(spd, as_chol), 1e-9);

  const Matrix w = well_conditioned(32, 25);
  auto lu = scheme.execute(OpDescriptor::lu(32), w, Matrix());
  ASSERT_TRUE(lu.ok());
  EXPECT_EQ(lu->perm.size(), 32u);
}

TEST(Schemes, TmrVotesFactorizationsAsWholeResults) {
  // Clean device: the three replicas agree bitwise, nothing detected.
  const std::size_t n = 32;
  const Matrix spd = spd_matrix(n, 26);
  {
    Launcher launcher;
    aabft::baselines::TmrScheme scheme(launcher);
    auto clean = scheme.execute(OpDescriptor::cholesky(n), spd, Matrix());
    ASSERT_TRUE(clean.ok()) << clean.error().message;
    EXPECT_TRUE(clean->clean);
    EXPECT_FALSE(clean->detected);
    CholResult as_chol;
    as_chol.l = clean->c;
    EXPECT_LT(ProtectedCholesky::residual(spd, as_chol), 1e-9);
  }

  // One fault hits exactly one replica (one-shot controller): the other two
  // agree and outvote it.
  {
    Launcher launcher;
    FaultController controller;
    launcher.set_fault_controller(&controller);
    FaultConfig fault;
    fault.site = FaultSite::kFinalAdd;
    fault.sm_id = 0;
    fault.module_id = 0;
    fault.error_vec = 1ULL << 60;
    controller.arm(fault);
    aabft::baselines::TmrScheme scheme(launcher);
    auto voted = scheme.execute(OpDescriptor::cholesky(n), spd, Matrix());
    launcher.set_fault_controller(nullptr);
    ASSERT_TRUE(voted.ok()) << voted.error().message;
    if (controller.fired()) {
      EXPECT_TRUE(voted->detected);
      EXPECT_TRUE(voted->corrected);
    }
    EXPECT_TRUE(voted->clean);
    CholResult as_chol;
    as_chol.l = voted->c;
    EXPECT_LT(ProtectedCholesky::residual(spd, as_chol), 1e-9);
  }

  // LU goes through the same whole-result vote (pivot divergence makes
  // element voting unsound, so replicas vote as units).
  {
    Launcher launcher;
    aabft::baselines::TmrScheme scheme(launcher);
    const Matrix w = well_conditioned(n, 27);
    auto lu = scheme.execute(OpDescriptor::lu(n), w, Matrix());
    ASSERT_TRUE(lu.ok());
    EXPECT_TRUE(lu->clean);
    EXPECT_EQ(lu->perm.size(), n);
  }
}

}  // namespace
