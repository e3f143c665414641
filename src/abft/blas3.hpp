// Protected BLAS-3 / one-sided factorizations beyond GEMM.
//
// The paper presents A-ABFT for matrix multiplication but notes the approach
// "is much more general"; the FT-LAPACK line of work (Wu & Chen's
// FT-Cholesky/LU, MAGMA's abft_dgemm checker) extends checksum protection to
// the factorizations by (a) protecting every O(n^3) trailing update with the
// checked GEMM and (b) *carrying* the trailing matrix's checksums across
// panel updates, verifying them before each panel is consumed (the
// CHECK_BEFORE pattern) so silent corruption between updates cannot leak
// into the factors. This module implements that construction on top of the
// A-ABFT multiplier:
//
//   - ProtectedSyrk:      C = A * A^T through the full A-ABFT pipeline
//                         (encode, product, autonomous check, correction,
//                         block recompute, full recompute).
//   - ProtectedCholesky:  right-looking blocked Cholesky; host panel +
//                         triangular solve, protected SYRK trailing updates,
//                         checksum carry across panels.
//   - ChecksumCarry:      the carried block-column sums both factorizations
//                         (this module's Cholesky and protected_lu.hpp's LU)
//                         maintain and verify.
//   - raw_syrk / raw_cholesky / raw_lu: unprotected references with
//                         launcher-backed trailing updates — the overhead
//                         baselines of bench_blas3, and the replicas the TMR
//                         scheme votes over (fault-injectable through the
//                         launcher, unlike a pure host loop).
#pragma once

#include <cstddef>
#include <vector>

#include "abft/aabft.hpp"
#include "abft/checksum.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/matrix.hpp"

namespace aabft::abft {

/// Carried per-block column sums of the active (trailing) matrix region
/// during a right-looking factorization.
///
/// State: S[br][j] = sum of m(i, j) over global row block br (rows
/// [br*BS, (br+1)*BS) clipped to n). The factorization initialises S from
/// the input (O(n^2)), then keeps it current *without* re-reading the
/// trailing matrix: each protected trailing update already computed verified
/// column-checksum rows (the c_fc of its A-ABFT GEMM), and subtracting those
/// from S is exactly the carry step of the MAGMA abft_dgemm checker. Row
/// pivoting is an O(n) sum adjustment per swap. Before a panel is factored,
/// the carried sums of the panel's columns are recomputed from the matrix
/// and compared (CHECK_BEFORE, O(n^2) total across the factorization):
/// a mismatch means the trailing matrix was corrupted *between* protected
/// updates — host arithmetic or storage damage the per-update GEMM check
/// cannot see — and the factorization restarts from the pristine input.
///
/// Carrying needs panel boundaries aligned to checksum blocks; when
/// panel % BS != 0 the carry disables itself and the factorization runs on
/// per-update protection alone.
class ChecksumCarry {
 public:
  ChecksumCarry(std::size_t n, std::size_t bs, std::size_t panel);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// O(n^2) initial block-column sums of the full matrix.
  void init(const linalg::Matrix& m);

  /// Account a pivoting row swap (call *before* the rows are exchanged).
  /// Only columns >= col_begin are adjusted: columns left of the active
  /// panel are final and the panel's own columns are mid-elimination —
  /// neither is ever verified again.
  void note_row_swap(const linalg::Matrix& m, std::size_t r1, std::size_t r2,
                     std::size_t col_begin);

  /// Carry a protected trailing update `m(k_end+i, k_end+j) -= update(i,j)`
  /// forward by subtracting the update's verified column-checksum rows
  /// (c_fc, padded encoded extents) from the carried sums. `n2` is the
  /// unpadded column count of the update; requires k_end % BS == 0.
  void apply_update(const linalg::Matrix& c_fc, const PartitionedCodec& codec,
                    std::size_t k_end, std::size_t n2);

  /// CHECK_BEFORE: recompute the block sums of columns [k0, k_end) over the
  /// active blocks (rows >= k0) and compare against the carried values.
  /// Returns the number of mismatched blocks (0 = consistent).
  [[nodiscard]] std::size_t verify_panel(const linalg::Matrix& m,
                                         std::size_t k0,
                                         std::size_t k_end) const;

 private:
  std::size_t n_ = 0;
  std::size_t bs_ = 0;
  std::size_t nblocks_ = 0;
  bool enabled_ = false;
  std::vector<double> sums_;  ///< nblocks_ x n_ carried block-column sums
  std::vector<double> mags_;  ///< accumulated magnitudes scaling the tolerance
};

/// Protected symmetric rank-k update C = A * A^T. SYRK is served by the full
/// A-ABFT GEMM pipeline on (A, A^T) — encode both operands, checked product,
/// correction/recompute ladder — with arbitrary extents padded internally.
class ProtectedSyrk {
 public:
  ProtectedSyrk(gpusim::Launcher& launcher, AabftConfig config)
      : mult_(launcher, config) {}

  /// C (m x m) = A * A^T with autonomous detection/correction. The result's
  /// c_fc keeps the padded encoded extents (like multiply_padded).
  [[nodiscard]] AabftResult multiply(const linalg::Matrix& a) {
    return mult_.multiply_padded(a, a.transposed());
  }

  [[nodiscard]] const AabftConfig& config() const noexcept {
    return mult_.config();
  }

 private:
  AabftMultiplier mult_;
};

struct CholResult {
  /// The lower-triangular factor (strictly-upper part zeroed): A = L * L^T.
  linalg::Matrix l;
  std::size_t protected_updates = 0;  ///< A-ABFT-protected trailing SYRKs run
  std::size_t faults_detected = 0;    ///< updates that flagged an error
  std::size_t panel_detections = 0;   ///< online k-panel screen mismatches
  std::size_t panel_recomputes = 0;   ///< fused-update tile panel replays
  std::size_t corrections = 0;        ///< localised repairs applied
  std::size_t block_recomputes = 0;   ///< checksum blocks recomputed in place
  std::size_t recomputations = 0;     ///< transient-fault re-executions
  std::size_t carry_mismatches = 0;   ///< carried-checksum verifications failed
  std::size_t factor_restarts = 0;    ///< full refactor after a carry mismatch
  bool not_positive_definite = false; ///< a diagonal pivot was <= 0
  bool ok = true;                     ///< factorisation completed cleanly
};

struct ProtectedCholConfig {
  std::size_t panel = 32;  ///< blocking width of the factorisation
  AabftConfig aabft;       ///< protection of the trailing updates
};

/// Right-looking blocked Cholesky with protected trailing updates and
/// checksum carry: per panel, a host O(panel^3) diagonal-block factorisation
/// and O(n * panel^2) triangular solve, then the O(n^3) trailing update
/// A22 -= L21 * L21^T through the A-ABFT pipeline.
class ProtectedCholesky {
 public:
  ProtectedCholesky(gpusim::Launcher& launcher, ProtectedCholConfig config);

  /// Factor a symmetric positive-definite matrix: A = L * L^T. One carry
  /// mismatch restarts the factorisation from the pristine input; a second
  /// gives up (ok = false).
  [[nodiscard]] CholResult factor(const linalg::Matrix& a);

  /// max_ij |(A - L L^T)_ij| — reconstruction residual (test/diagnostic).
  [[nodiscard]] static double residual(const linalg::Matrix& a,
                                       const CholResult& chol);

 private:
  [[nodiscard]] CholResult factor_once(const linalg::Matrix& a);

  gpusim::Launcher& launcher_;
  ProtectedCholConfig config_;
};

// ---- unprotected references ------------------------------------------------

/// Raw SYRK: one launcher-backed blocked GEMM of (A, A^T), no protection.
[[nodiscard]] linalg::Matrix raw_syrk(gpusim::Launcher& launcher,
                                      const linalg::Matrix& a,
                                      const linalg::GemmConfig& gemm = {});

struct RawFactorResult {
  linalg::Matrix f;  ///< L (Cholesky) or combined LU factors
  std::vector<std::size_t> perm;  ///< pivoting permutation (LU only)
  bool ok = true;    ///< false: not positive definite / singular
};

/// Raw right-looking blocked Cholesky; trailing updates run through the
/// launcher's blocked GEMM (fault-injectable) but are never checked.
[[nodiscard]] RawFactorResult raw_cholesky(gpusim::Launcher& launcher,
                                           const linalg::Matrix& a,
                                           const linalg::GemmConfig& gemm = {},
                                           std::size_t panel = 32);

/// Raw right-looking blocked LU with partial pivoting; trailing updates run
/// through the launcher's blocked GEMM but are never checked.
[[nodiscard]] RawFactorResult raw_lu(gpusim::Launcher& launcher,
                                     const linalg::Matrix& a,
                                     const linalg::GemmConfig& gemm = {},
                                     std::size_t panel = 32);

}  // namespace aabft::abft
