#include "baselines/schemes.hpp"

#include <array>
#include <optional>
#include <string>
#include <utility>

#include "abft/blas3.hpp"
#include "abft/checker.hpp"
#include "abft/protected_lu.hpp"
#include "core/require.hpp"

namespace aabft::baselines {

using linalg::Matrix;

namespace {

/// Shared recoverable-misuse validation for product ops. `bs` == 0 for
/// schemes without a checksum blocking requirement.
std::optional<Error> validate_shapes(const Matrix& a, const Matrix& b,
                                     std::size_t bs) {
  if (a.cols() != b.rows())
    return shape_error("inner dimensions must agree: A is " +
                       std::to_string(a.rows()) + "x" +
                       std::to_string(a.cols()) + ", B is " +
                       std::to_string(b.rows()) + "x" +
                       std::to_string(b.cols()));
  if (bs != 0 && (a.rows() % bs != 0 || b.cols() % bs != 0))
    return shape_error("A's rows and B's columns must be multiples of the "
                       "checksum block size " +
                       std::to_string(bs));
  return std::nullopt;
}

/// Recoverable-misuse validation for the single-operand ops (B is ignored):
/// SYRK takes any nonempty A, the factorizations need a nonempty square A.
std::optional<Error> validate_single_operand(const OpDescriptor& desc,
                                             const Matrix& a) {
  if (a.rows() == 0 || a.cols() == 0)
    return Error{ErrorCode::kInvalidArgument, "empty operand"};
  if (desc.is_factorization() && a.rows() != a.cols())
    return shape_error(std::string(to_string(desc.kind)) +
                       " needs a square matrix, got " +
                       std::to_string(a.rows()) + "x" +
                       std::to_string(a.cols()));
  return std::nullopt;
}

Error unsupported(std::string_view scheme, OpKind kind) {
  return unsupported_op_error("scheme '" + std::string(scheme) +
                              "' does not implement op kind '" +
                              std::string(to_string(kind)) + "'");
}

class FixedAbftChecker final : public ProductChecker {
 public:
  FixedAbftChecker(gpusim::Launcher& launcher,
                   const abft::PartitionedCodec& codec, double epsilon)
      : launcher_(launcher), codec_(codec), epsilon_(epsilon) {}

  bool flags_error(const Matrix& c_fc) override {
    return !fixed_check_product(launcher_, c_fc, codec_, epsilon_).clean();
  }

 private:
  gpusim::Launcher& launcher_;
  const abft::PartitionedCodec& codec_;
  double epsilon_;
};

class AabftChecker final : public ProductChecker {
 public:
  AabftChecker(const ProductCheckContext& ctx, abft::BoundParams bounds)
      : ctx_(ctx), bounds_(bounds) {}

  bool flags_error(const Matrix& c_fc) override {
    return !abft::check_product(ctx_.launcher, c_fc, ctx_.codec,
                                ctx_.a_cc.pmax, ctx_.b_rc.pmax, ctx_.inner_dim,
                                bounds_, nullptr)
                .clean();
  }

 private:
  ProductCheckContext ctx_;
  abft::BoundParams bounds_;
};

class SeaAbftChecker final : public ProductChecker {
 public:
  /// Runs the SEA norm kernels once at construction; every check reuses the
  /// precomputed bounds (matching how a real deployment amortises them).
  explicit SeaAbftChecker(const ProductCheckContext& ctx)
      : ctx_(ctx),
        bounds_(compute_sea_bounds(ctx.launcher, ctx.a_cc.data, ctx.b_rc.data,
                                   ctx.codec)) {}

  bool flags_error(const Matrix& c_fc) override {
    return !sea_check_product(ctx_.launcher, c_fc, ctx_.codec, bounds_,
                              ctx_.inner_dim, nullptr)
                .clean();
  }

 private:
  ProductCheckContext ctx_;
  SeaBounds bounds_;
};

OpOutcome gemm_outcome(abft::AabftResult raw) {
  OpOutcome result;
  result.c = std::move(raw.c);
  result.detected = raw.error_detected();
  result.corrected = !raw.corrections.empty() && raw.recheck_clean;
  result.corrections = raw.corrections.size();
  result.panel_detections = raw.panel_detections;
  result.panel_recomputes = raw.panel_recomputes;
  result.block_recomputes = raw.block_recomputes;
  result.recomputed = raw.recomputations;
  result.clean = !raw.uncorrectable && raw.recheck_clean;
  return result;
}

Result<OpOutcome> chol_outcome(abft::CholResult raw) {
  if (raw.not_positive_definite)
    return Error{ErrorCode::kInvalidArgument,
                 "matrix is not positive definite"};
  OpOutcome out;
  out.c = std::move(raw.l);
  out.detected = raw.faults_detected > 0 || raw.carry_mismatches > 0;
  out.corrections = raw.corrections;
  out.panel_detections = raw.panel_detections;
  out.panel_recomputes = raw.panel_recomputes;
  out.block_recomputes = raw.block_recomputes;
  // Panel-level full repairs: per-update re-executions plus whole-factor
  // restarts after a carry mismatch.
  out.recomputed = raw.recomputations + raw.factor_restarts;
  out.protected_updates = raw.protected_updates;
  out.corrected = out.detected && raw.ok && raw.corrections > 0;
  out.clean = raw.ok;
  return out;
}

Result<OpOutcome> lu_outcome(abft::LuResult raw) {
  if (raw.singular)
    return Error{ErrorCode::kInvalidArgument,
                 "matrix is singular (to working precision)"};
  OpOutcome out;
  out.c = std::move(raw.lu);
  out.perm = std::move(raw.perm);
  out.detected = raw.faults_detected > 0 || raw.carry_mismatches > 0;
  out.corrections = raw.corrections;
  out.panel_detections = raw.panel_detections;
  out.panel_recomputes = raw.panel_recomputes;
  out.block_recomputes = raw.block_recomputes;
  out.recomputed = raw.recomputations + raw.factor_restarts;
  out.protected_updates = raw.protected_updates;
  out.corrected = out.detected && raw.ok && raw.corrections > 0;
  out.clean = raw.ok;
  return out;
}

/// Whole-result majority vote over three raw factorizations. Element voting
/// (the GEMM TMR) is unsound here: a fault that flips a pivot decision
/// changes the permutation, making per-element comparison meaningless — so
/// replicas vote as units, compared bitwise including the permutation.
Result<OpOutcome> tmr_factor_vote(gpusim::Launcher& launcher, OpKind kind,
                                  const Matrix& a,
                                  const linalg::GemmConfig& gemm) {
  std::array<abft::RawFactorResult, 3> runs;
  for (auto& run : runs)
    run = kind == OpKind::kCholesky ? abft::raw_cholesky(launcher, a, gemm)
                                    : abft::raw_lu(launcher, a, gemm);

  auto agree = [](const abft::RawFactorResult& x,
                  const abft::RawFactorResult& y) {
    return x.ok == y.ok && x.perm == y.perm && x.f == y.f;  // bitwise
  };
  const bool ab = agree(runs[0], runs[1]);
  const bool ac = agree(runs[0], runs[2]);
  const bool bc = agree(runs[1], runs[2]);

  std::size_t winner = 0;
  bool majority = true;
  if (ab || ac) {
    winner = 0;
  } else if (bc) {
    winner = 1;
  } else {
    majority = false;  // all three disagree: nothing to vouch for
  }

  abft::RawFactorResult& voted = runs[winner];
  if (majority && !voted.ok)
    return Error{ErrorCode::kInvalidArgument,
                 kind == OpKind::kCholesky
                     ? "matrix is not positive definite"
                     : "matrix is singular (to working precision)"};

  OpOutcome out;
  out.c = std::move(voted.f);
  out.perm = std::move(voted.perm);
  out.detected = !(ab && ac && bc);
  out.corrected = out.detected && majority;
  out.clean = majority;
  return out;
}

}  // namespace

UnprotectedScheme::UnprotectedScheme(gpusim::Launcher& launcher,
                                     linalg::GemmConfig gemm)
    : launcher_(launcher), gemm_(gemm), mult_(launcher, gemm) {}

Result<OpOutcome> UnprotectedScheme::execute(const OpDescriptor& desc,
                                             const Matrix& a,
                                             const Matrix& b) {
  OpOutcome result;
  switch (desc.kind) {
    case OpKind::kGemm: {
      if (auto err = validate_shapes(a, b, 0)) return *err;
      result.c = mult_.multiply(a, b);
      return result;
    }
    case OpKind::kSyrk: {
      if (auto err = validate_single_operand(desc, a)) return *err;
      result.c = abft::raw_syrk(launcher_, a, gemm_);
      return result;
    }
    case OpKind::kCholesky:
    case OpKind::kLu: {
      if (auto err = validate_single_operand(desc, a)) return *err;
      abft::RawFactorResult raw =
          desc.kind == OpKind::kCholesky ? abft::raw_cholesky(launcher_, a, gemm_)
                                         : abft::raw_lu(launcher_, a, gemm_);
      if (!raw.ok)
        return Error{ErrorCode::kInvalidArgument,
                     desc.kind == OpKind::kCholesky
                         ? "matrix is not positive definite"
                         : "matrix is singular (to working precision)"};
      result.c = std::move(raw.f);
      result.perm = std::move(raw.perm);
      return result;
    }
  }
  return unsupported(name(), desc.kind);
}

FixedAbftScheme::FixedAbftScheme(gpusim::Launcher& launcher,
                                 FixedAbftConfig config)
    : mult_(launcher, config), bs_(config.bs), epsilon_(config.epsilon) {}

Result<OpOutcome> FixedAbftScheme::execute(const OpDescriptor& desc,
                                           const Matrix& a, const Matrix& b) {
  if (desc.kind != OpKind::kGemm) return unsupported(name(), desc.kind);
  if (auto err = validate_shapes(a, b, bs_)) return *err;
  FixedAbftResult raw = mult_.multiply(a, b);
  OpOutcome result;
  result.c = std::move(raw.c);
  result.detected = raw.error_detected();
  result.clean = !result.detected;  // detection-only scheme
  return result;
}

std::unique_ptr<ProductChecker> FixedAbftScheme::make_checker(
    const ProductCheckContext& ctx) {
  return std::make_unique<FixedAbftChecker>(ctx.launcher, ctx.codec, epsilon_);
}

AabftScheme::AabftScheme(gpusim::Launcher& launcher, abft::AabftConfig config)
    : launcher_(launcher), mult_(launcher, config) {}

Result<OpOutcome> AabftScheme::execute(const OpDescriptor& desc,
                                       const Matrix& a, const Matrix& b) {
  return execute(desc, abft::Operands{&a, &b});
}

Result<OpOutcome> AabftScheme::execute(const OpDescriptor& desc,
                                       const abft::Operands& ops) {
  const Matrix& a = *ops.a;
  switch (desc.kind) {
    case OpKind::kGemm: {
      Result<abft::AabftResult> raw = mult_.multiply(a, *ops.b, ops.a_light);
      if (!raw.ok()) return raw.error();
      return gemm_outcome(std::move(raw).value());
    }
    case OpKind::kSyrk: {
      if (auto err = validate_single_operand(desc, a)) return *err;
      abft::ProtectedSyrk syrk(launcher_, mult_.config());
      return gemm_outcome(syrk.multiply(a));
    }
    case OpKind::kCholesky: {
      if (auto err = validate_single_operand(desc, a)) return *err;
      // Panel width = the checksum block size, so the carry stays aligned.
      abft::ProtectedCholConfig config;
      config.panel = mult_.config().bs;
      config.aabft = mult_.config();
      abft::ProtectedCholesky chol(launcher_, config);
      return chol_outcome(chol.factor(a));
    }
    case OpKind::kLu: {
      if (auto err = validate_single_operand(desc, a)) return *err;
      abft::ProtectedLuConfig config;
      config.panel = mult_.config().bs;
      config.aabft = mult_.config();
      abft::ProtectedLu lu(launcher_, config);
      return lu_outcome(lu.factor(a));
    }
  }
  return unsupported(name(), desc.kind);
}

PaperAabftScheme::PaperAabftScheme(gpusim::Launcher& launcher,
                                   abft::AabftConfig config)
    : launcher_(launcher), config_(config), codec_(config.bs) {
  AABFT_REQUIRE(config_.valid(), "invalid A-ABFT configuration");
}

Result<OpOutcome> PaperAabftScheme::execute(const OpDescriptor& desc,
                                            const Matrix& a, const Matrix& b) {
  if (desc.kind != OpKind::kGemm) return unsupported(name(), desc.kind);
  Result<abft::AabftResult> raw = multiply(a, b);
  if (!raw.ok()) return raw.error();
  return gemm_outcome(std::move(raw).value());
}

Result<abft::AabftResult> PaperAabftScheme::multiply(const Matrix& a,
                                                     const Matrix& b) {
  if (auto err = validate_shapes(a, b, config_.bs)) return *err;
  // Steps 1 and 3: encode + blockwise maxima (Algorithm 1), with the global
  // p-max reduction launched inside encode_* right after.
  const abft::EncodedMatrix a_cc =
      abft::encode_columns(launcher_, a, codec_, config_.p);
  const abft::EncodedMatrix b_rc =
      abft::encode_rows(launcher_, b, codec_, config_.p);
  // Step 2: the block-based product over the encoded operands (Algorithm 3).
  Matrix c_fc = linalg::blocked_matmul(launcher_, a_cc.data, b_rc.data,
                                       config_.gemm);
  return abft::settle(
      launcher_, config_, codec_, std::move(c_fc), a_cc.pmax, b_rc.pmax,
      a.cols(), [&]() -> const Matrix& { return a_cc.data; },
      [&]() -> const Matrix& { return b_rc.data; });
}

std::unique_ptr<ProductChecker> PaperAabftScheme::make_checker(
    const ProductCheckContext& ctx) {
  return std::make_unique<AabftChecker>(ctx, config_.bounds);
}

SeaAbftScheme::SeaAbftScheme(gpusim::Launcher& launcher, SeaAbftConfig config)
    : mult_(launcher, config), bs_(config.bs) {}

Result<OpOutcome> SeaAbftScheme::execute(const OpDescriptor& desc,
                                         const Matrix& a, const Matrix& b) {
  if (desc.kind != OpKind::kGemm) return unsupported(name(), desc.kind);
  if (auto err = validate_shapes(a, b, bs_)) return *err;
  SeaAbftResult raw = mult_.multiply(a, b);
  OpOutcome result;
  result.c = std::move(raw.c);
  result.detected = raw.error_detected();
  result.clean = !result.detected;  // detection-only scheme
  return result;
}

std::unique_ptr<ProductChecker> SeaAbftScheme::make_checker(
    const ProductCheckContext& ctx) {
  return std::make_unique<SeaAbftChecker>(ctx);
}

TmrScheme::TmrScheme(gpusim::Launcher& launcher, TmrConfig config)
    : launcher_(launcher), gemm_(config.gemm), mult_(launcher, config) {}

Result<OpOutcome> TmrScheme::execute(const OpDescriptor& desc, const Matrix& a,
                                     const Matrix& b) {
  switch (desc.kind) {
    case OpKind::kGemm:
    case OpKind::kSyrk: {
      // SYRK is the element-voting TMR GEMM of (A, A^T).
      const Matrix* rhs = &b;
      Matrix a_t;
      if (desc.kind == OpKind::kSyrk) {
        if (auto err = validate_single_operand(desc, a)) return *err;
        a_t = a.transposed();
        rhs = &a_t;
      } else if (auto err = validate_shapes(a, b, 0)) {
        return *err;
      }
      TmrResult raw = mult_.multiply(a, *rhs);
      OpOutcome result;
      result.c = std::move(raw.c);
      result.detected = raw.error_detected();
      // Majority voting repairs any element where two replicas still agree.
      result.corrected =
          raw.mismatched_elements > 0 && raw.unresolved_elements == 0;
      result.clean = raw.unresolved_elements == 0;
      return result;
    }
    case OpKind::kCholesky:
    case OpKind::kLu: {
      if (auto err = validate_single_operand(desc, a)) return *err;
      return tmr_factor_vote(launcher_, desc.kind, a, gemm_);
    }
  }
  return unsupported(name(), desc.kind);
}

DiverseTmrScheme::DiverseTmrScheme(gpusim::Launcher& launcher,
                                   DiverseTmrConfig config)
    : mult_(launcher, config) {}

Result<OpOutcome> DiverseTmrScheme::execute(const OpDescriptor& desc,
                                            const Matrix& a, const Matrix& b) {
  if (desc.kind != OpKind::kGemm) return unsupported(name(), desc.kind);
  if (auto err = validate_shapes(a, b, 0)) return *err;
  DiverseTmrResult raw = mult_.multiply(a, b);
  OpOutcome result;
  result.c = std::move(raw.c);
  result.detected = raw.error_detected();
  result.corrected =
      raw.disagreeing_elements > 0 && raw.unresolved_elements == 0;
  result.clean = raw.unresolved_elements == 0;
  return result;
}

std::vector<std::unique_ptr<ProtectedBlas3>> make_schemes(
    gpusim::Launcher& launcher, const SchemeSuiteConfig& config) {
  std::vector<std::unique_ptr<ProtectedBlas3>> schemes;

  schemes.push_back(
      std::make_unique<UnprotectedScheme>(launcher, config.gemm));

  FixedAbftConfig fixed;
  fixed.bs = config.bs;
  fixed.epsilon = config.fixed_epsilon;
  fixed.gemm = config.gemm;
  schemes.push_back(std::make_unique<FixedAbftScheme>(launcher, fixed));

  abft::AabftConfig aabft;
  aabft.bs = config.bs;
  aabft.p = config.p;
  aabft.bounds = config.bounds;
  aabft.gemm = config.gemm;
  // Table I compares the paper's kernels. The library's fused product's
  // (bs+1)-wide tiles skip the padding to 32-wide tiles that fixed ABFT pays
  // at small n, so it would read as a gap to ABFT that widens with n
  // (EXPERIMENTS.md, Table I).
  schemes.push_back(std::make_unique<PaperAabftScheme>(launcher, aabft));

  SeaAbftConfig sea;
  sea.bs = config.bs;
  sea.gemm = config.gemm;
  schemes.push_back(std::make_unique<SeaAbftScheme>(launcher, sea));

  TmrConfig tmr;
  tmr.gemm = config.gemm;
  schemes.push_back(std::make_unique<TmrScheme>(launcher, tmr));

  if (config.include_diverse_tmr) {
    DiverseTmrConfig diverse;
    diverse.p = config.p;
    diverse.gemm = config.gemm;
    schemes.push_back(std::make_unique<DiverseTmrScheme>(launcher, diverse));
  }

  return schemes;
}

}  // namespace aabft::baselines
