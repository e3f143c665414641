// Adapters binding every concrete scheme to the ProtectedBlas3 operation
// interface, plus the factory that assembles the standard contender list.
//
// The adapters own their engines and translate scheme-specific result types
// into the shared OpOutcome core; the rich APIs (AabftResult with check
// reports and corrections, LuResult/CholResult with carry counters, TMR vote
// counts, ...) remain available on the concrete classes for code that needs
// the detail.
//
// Operation coverage:
//   - a-abft:      two schemes share the name. The library's (AabftScheme)
//                  covers GEMM, SYRK, Cholesky, LU — the full protected
//                  family (factorizations via the checksum-carry panel
//                  engines). The paper's kernels (PaperAabftScheme, the
//                  Table I / Figure 4 contender make_schemes returns) are
//                  GEMM only.
//   - unprotected: GEMM, SYRK, Cholesky, LU — raw references, no checking.
//   - tmr:         GEMM/SYRK by element-voting replicas, Cholesky/LU by
//                  whole-result majority vote over three raw factorizations
//                  (element voting is unsound under pivot divergence).
//   - fixed-abft, sea-abft, diverse-tmr: GEMM only; other kinds come back
//                  as ErrorCode::kUnsupportedOp.
#pragma once

#include <memory>
#include <vector>

#include "abft/aabft.hpp"
#include "abft/bounds.hpp"
#include "baselines/diverse_tmr.hpp"
#include "baselines/fixed_abft.hpp"
#include "baselines/scheme.hpp"
#include "baselines/sea_abft.hpp"
#include "baselines/tmr.hpp"
#include "baselines/unprotected.hpp"

namespace aabft::baselines {

/// One configuration for the whole contender list (Table I / Figure 4 use
/// the same blocking and bound parameters across schemes).
struct SchemeSuiteConfig {
  std::size_t bs = 32;           ///< checksum block size (partitioned schemes)
  std::size_t p = 2;             ///< p-max parameter (A-ABFT, diverse TMR)
  double fixed_epsilon = 1e-8;   ///< the manual bound of fixed ABFT
  abft::BoundParams bounds;      ///< omega / policy / fma for A-ABFT
  linalg::GemmConfig gemm;
  /// Diverse-kernel TMR costs ~3 diverse GEMMs; off by default so the quick
  /// suites stay quick.
  bool include_diverse_tmr = false;
};

class UnprotectedScheme final : public ProtectedBlas3 {
 public:
  UnprotectedScheme(gpusim::Launcher& launcher, linalg::GemmConfig gemm = {});
  [[nodiscard]] std::string_view name() const noexcept override {
    return "unprotected";
  }
  [[nodiscard]] bool supports(OpKind /*kind*/) const noexcept override {
    return true;  // raw references for every op kind
  }
  [[nodiscard]] Result<OpOutcome> execute(const OpDescriptor& desc,
                                          const linalg::Matrix& a,
                                          const linalg::Matrix& b) override;

 private:
  gpusim::Launcher& launcher_;
  linalg::GemmConfig gemm_;
  UnprotectedMultiplier mult_;
};

class FixedAbftScheme final : public ProtectedBlas3 {
 public:
  FixedAbftScheme(gpusim::Launcher& launcher, FixedAbftConfig config = {});
  [[nodiscard]] std::string_view name() const noexcept override {
    return "fixed-abft";
  }
  [[nodiscard]] Result<OpOutcome> execute(const OpDescriptor& desc,
                                          const linalg::Matrix& a,
                                          const linalg::Matrix& b) override;
  [[nodiscard]] std::unique_ptr<ProductChecker> make_checker(
      const ProductCheckContext& ctx) override;

 private:
  FixedAbftMultiplier mult_;
  std::size_t bs_;
  double epsilon_;
};

class AabftScheme final : public ProtectedBlas3 {
 public:
  AabftScheme(gpusim::Launcher& launcher, abft::AabftConfig config = {});
  [[nodiscard]] std::string_view name() const noexcept override {
    return "a-abft";
  }
  [[nodiscard]] bool supports(OpKind /*kind*/) const noexcept override {
    return true;  // the full protected BLAS-3 / factorization family
  }
  [[nodiscard]] Result<OpOutcome> execute(const OpDescriptor& desc,
                                          const linalg::Matrix& a,
                                          const linalg::Matrix& b) override;
  /// execute() over borrowed operands: a GEMM's supplied ops.a_light (the
  /// operand cache's hit path) replaces A's encode pass, bit-identically.
  /// Other op kinds ignore it.
  [[nodiscard]] Result<OpOutcome> execute(const OpDescriptor& desc,
                                          const abft::Operands& ops);

 private:
  gpusim::Launcher& launcher_;
  abft::AabftMultiplier mult_;
};

/// The paper's A-ABFT kernels as a GEMM-only contender: Algorithm 1 encode
/// of A and B (with the p-max reduction), the blocked product over the
/// materialised A_cc / B_rc (Algorithm 3), then the check and recovery
/// ladder the library shares (abft::settle). Table I prices these launches
/// and Figure 4 uses its checker; `config.fused` is not used.
class PaperAabftScheme final : public ProtectedBlas3 {
 public:
  PaperAabftScheme(gpusim::Launcher& launcher, abft::AabftConfig config = {});
  [[nodiscard]] std::string_view name() const noexcept override {
    return "a-abft";
  }
  [[nodiscard]] Result<OpOutcome> execute(const OpDescriptor& desc,
                                          const linalg::Matrix& a,
                                          const linalg::Matrix& b) override;
  /// The GEMM with its full AabftResult (check report, corrections, c_fc);
  /// shape misuse is returned as an error.
  [[nodiscard]] Result<abft::AabftResult> multiply(const linalg::Matrix& a,
                                                   const linalg::Matrix& b);
  [[nodiscard]] std::unique_ptr<ProductChecker> make_checker(
      const ProductCheckContext& ctx) override;

 private:
  gpusim::Launcher& launcher_;
  abft::AabftConfig config_;
  abft::PartitionedCodec codec_;
};

class SeaAbftScheme final : public ProtectedBlas3 {
 public:
  SeaAbftScheme(gpusim::Launcher& launcher, SeaAbftConfig config = {});
  [[nodiscard]] std::string_view name() const noexcept override {
    return "sea-abft";
  }
  [[nodiscard]] Result<OpOutcome> execute(const OpDescriptor& desc,
                                          const linalg::Matrix& a,
                                          const linalg::Matrix& b) override;
  [[nodiscard]] std::unique_ptr<ProductChecker> make_checker(
      const ProductCheckContext& ctx) override;

 private:
  SeaAbftMultiplier mult_;
  std::size_t bs_;
};

class TmrScheme final : public ProtectedBlas3 {
 public:
  TmrScheme(gpusim::Launcher& launcher, TmrConfig config = {});
  [[nodiscard]] std::string_view name() const noexcept override { return "tmr"; }
  [[nodiscard]] bool supports(OpKind /*kind*/) const noexcept override {
    return true;  // replica voting covers every op kind
  }
  [[nodiscard]] Result<OpOutcome> execute(const OpDescriptor& desc,
                                          const linalg::Matrix& a,
                                          const linalg::Matrix& b) override;

 private:
  gpusim::Launcher& launcher_;
  linalg::GemmConfig gemm_;
  TmrMultiplier mult_;
};

class DiverseTmrScheme final : public ProtectedBlas3 {
 public:
  DiverseTmrScheme(gpusim::Launcher& launcher, DiverseTmrConfig config = {});
  [[nodiscard]] std::string_view name() const noexcept override {
    return "diverse-tmr";
  }
  [[nodiscard]] Result<OpOutcome> execute(const OpDescriptor& desc,
                                          const linalg::Matrix& a,
                                          const linalg::Matrix& b) override;

 private:
  DiverseTmrMultiplier mult_;
};

/// The standard contender list in Table-I order: unprotected, fixed-abft,
/// a-abft, sea-abft, tmr (and diverse-tmr when enabled).
[[nodiscard]] std::vector<std::unique_ptr<ProtectedBlas3>> make_schemes(
    gpusim::Launcher& launcher, const SchemeSuiteConfig& config = {});

}  // namespace aabft::baselines
