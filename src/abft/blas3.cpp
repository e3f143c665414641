#include "abft/blas3.hpp"

#include <algorithm>
#include <cmath>

#include "core/require.hpp"

namespace aabft::abft {

using linalg::Matrix;

// ---- ChecksumCarry ---------------------------------------------------------

namespace {

/// Relative tolerance of the carry comparison. The carried value accumulates
/// one verified checksum-row entry per trailing update, each within the
/// ABFT epsilon bound of the true block sum (~k * u relative), so the honest
/// drift across a whole factorisation is orders of magnitude below this;
/// corruption of the trailing matrix between updates (the event the carry
/// exists to catch) changes sums by far more.
constexpr double kCarryRelTol = 1e-8;

}  // namespace

ChecksumCarry::ChecksumCarry(std::size_t n, std::size_t bs, std::size_t panel)
    : n_(n), bs_(bs) {
  enabled_ = n > 0 && bs >= 2 && panel >= 2 && panel % bs == 0;
  if (!enabled_) return;
  nblocks_ = (n + bs - 1) / bs;
  sums_.assign(nblocks_ * n, 0.0);
  mags_.assign(nblocks_ * n, 0.0);
}

void ChecksumCarry::init(const Matrix& m) {
  if (!enabled_) return;
  for (std::size_t gb = 0; gb < nblocks_; ++gb) {
    const std::size_t row_lo = gb * bs_;
    const std::size_t row_hi = std::min(n_, row_lo + bs_);
    for (std::size_t j = 0; j < n_; ++j) {
      double sum = 0.0;
      double mag = 0.0;
      for (std::size_t i = row_lo; i < row_hi; ++i) {
        sum += m(i, j);
        mag += std::fabs(m(i, j));
      }
      sums_[gb * n_ + j] = sum;
      mags_[gb * n_ + j] = mag;
    }
  }
}

void ChecksumCarry::note_row_swap(const Matrix& m, std::size_t r1,
                                  std::size_t r2, std::size_t col_begin) {
  if (!enabled_) return;
  const std::size_t b1 = r1 / bs_;
  const std::size_t b2 = r2 / bs_;
  if (b1 == b2) return;  // a swap inside one block leaves its sums unchanged
  for (std::size_t j = col_begin; j < n_; ++j) {
    const double v1 = m(r1, j);
    const double v2 = m(r2, j);
    sums_[b1 * n_ + j] += v2 - v1;
    sums_[b2 * n_ + j] += v1 - v2;
    const double mag = std::fabs(v1) + std::fabs(v2);
    mags_[b1 * n_ + j] += mag;
    mags_[b2 * n_ + j] += mag;
  }
}

void ChecksumCarry::apply_update(const Matrix& c_fc,
                                 const PartitionedCodec& codec,
                                 std::size_t k_end, std::size_t n2) {
  if (!enabled_) return;
  AABFT_REQUIRE(k_end % bs_ == 0,
                "carry requires panel boundaries aligned to checksum blocks");
  const std::size_t local_blocks = c_fc.rows() / (bs_ + 1);
  const std::size_t base = k_end / bs_;
  for (std::size_t lb = 0; lb < local_blocks; ++lb) {
    const std::size_t gb = base + lb;
    if (gb >= nblocks_) break;  // pure padding rows beyond the matrix
    const std::size_t chk_row = codec.checksum_index(lb);
    for (std::size_t j = 0; j < n2; ++j) {
      const double v = c_fc(chk_row, codec.enc_index(j));
      const std::size_t idx = gb * n_ + (k_end + j);
      sums_[idx] -= v;
      mags_[idx] += std::fabs(v);
    }
  }
}

std::size_t ChecksumCarry::verify_panel(const Matrix& m, std::size_t k0,
                                        std::size_t k_end) const {
  if (!enabled_) return 0;
  std::size_t mismatches = 0;
  for (std::size_t gb = k0 / bs_; gb < nblocks_; ++gb) {
    const std::size_t row_lo = gb * bs_;
    const std::size_t row_hi = std::min(n_, row_lo + bs_);
    for (std::size_t j = k0; j < k_end; ++j) {
      double fresh = 0.0;
      for (std::size_t i = row_lo; i < row_hi; ++i) fresh += m(i, j);
      const std::size_t idx = gb * n_ + j;
      const double tol = kCarryRelTol * (1.0 + mags_[idx]);
      if (std::fabs(fresh - sums_[idx]) > tol) ++mismatches;
    }
  }
  return mismatches;
}

// ---- ProtectedCholesky -----------------------------------------------------

ProtectedCholesky::ProtectedCholesky(gpusim::Launcher& launcher,
                                     ProtectedCholConfig config)
    : launcher_(launcher), config_(config) {
  AABFT_REQUIRE(config_.panel >= 2, "panel width must be at least 2");
  AABFT_REQUIRE(config_.aabft.valid(), "invalid A-ABFT configuration");
}

CholResult ProtectedCholesky::factor(const Matrix& a) {
  AABFT_REQUIRE(a.rows() == a.cols(),
                "Cholesky factorisation needs a square matrix");
  CholResult first = factor_once(a);
  if (first.carry_mismatches == 0) return first;
  // The trailing matrix was corrupted between protected updates; the factors
  // derived from it are not trustworthy. Restart once from the pristine
  // input (the one panel-level recompute of the carry ladder).
  CholResult retry = factor_once(a);
  retry.factor_restarts = first.factor_restarts + 1;
  retry.protected_updates += first.protected_updates;
  retry.faults_detected += first.faults_detected;
  retry.panel_detections += first.panel_detections;
  retry.panel_recomputes += first.panel_recomputes;
  retry.corrections += first.corrections;
  retry.block_recomputes += first.block_recomputes;
  retry.recomputations += first.recomputations;
  retry.carry_mismatches += first.carry_mismatches;
  return retry;
}

CholResult ProtectedCholesky::factor_once(const Matrix& a) {
  const std::size_t n = a.rows();
  const std::size_t panel = config_.panel;

  CholResult result;
  result.l = a;
  Matrix& m = result.l;

  AabftMultiplier mult(launcher_, config_.aabft);
  ChecksumCarry carry(n, config_.aabft.bs, panel);
  carry.init(m);

  for (std::size_t k0 = 0; k0 < n; k0 += panel) {
    const std::size_t kb = std::min(panel, n - k0);
    const std::size_t k_end = k0 + kb;

    // CHECK_BEFORE: the panel's columns must still agree with the carried
    // sums before they are consumed.
    if (const std::size_t mism = carry.verify_panel(m, k0, k_end)) {
      result.carry_mismatches += mism;
      result.ok = false;
      return result;
    }

    // ---- diagonal block: host Cholesky of A11 (O(panel^3)) ----
    for (std::size_t j = k0; j < k_end; ++j) {
      double d = m(j, j);
      for (std::size_t t = k0; t < j; ++t) d -= m(j, t) * m(j, t);
      if (d <= 0.0) {
        result.not_positive_definite = true;
        result.ok = false;
        return result;
      }
      const double ljj = std::sqrt(d);
      m(j, j) = ljj;
      for (std::size_t i = j + 1; i < k_end; ++i) {
        double s = m(i, j);
        for (std::size_t t = k0; t < j; ++t) s -= m(i, t) * m(j, t);
        m(i, j) = s / ljj;
      }
    }

    if (k_end == n) break;

    // ---- L21 = A21 * L11^{-T} (host triangular solve, O(n * panel^2)) ----
    for (std::size_t i = k_end; i < n; ++i) {
      for (std::size_t j = k0; j < k_end; ++j) {
        double s = m(i, j);
        for (std::size_t t = k0; t < j; ++t) s -= m(i, t) * m(j, t);
        m(i, j) = s / m(j, j);
      }
    }

    // ---- trailing update A22 -= L21 * L21^T, protected SYRK (O(n^3)) ----
    const std::size_t m2 = n - k_end;
    Matrix l21(m2, kb);
    for (std::size_t i = 0; i < m2; ++i)
      for (std::size_t j = 0; j < kb; ++j) l21(i, j) = m(k_end + i, k0 + j);

    const AabftResult update = mult.multiply_padded(l21, l21.transposed());
    ++result.protected_updates;
    if (update.error_detected()) ++result.faults_detected;
    result.panel_detections += update.panel_detections;
    result.panel_recomputes += update.panel_recomputes;
    result.corrections += update.corrections.size();
    result.block_recomputes += update.block_recomputes;
    result.recomputations += update.recomputations;
    if (update.uncorrectable || !update.recheck_clean) result.ok = false;

    for (std::size_t i = 0; i < m2; ++i)
      for (std::size_t j = 0; j < m2; ++j)
        m(k_end + i, k_end + j) -= update.c(i, j);

    // Carry the update's verified checksums into the running sums (the
    // full square update keeps the trailing matrix symmetric, so the sums
    // cover whole columns of the active region).
    carry.apply_update(update.c_fc, mult.codec(), k_end, m2);
  }

  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) m(i, j) = 0.0;
  return result;
}

double ProtectedCholesky::residual(const Matrix& a, const CholResult& chol) {
  const std::size_t n = a.rows();
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      const std::size_t tmax = std::min(i, j) + 1;
      for (std::size_t t = 0; t < tmax; ++t) s += chol.l(i, t) * chol.l(j, t);
      worst = std::max(worst, std::fabs(a(i, j) - s));
    }
  }
  return worst;
}

// ---- unprotected references ------------------------------------------------

Matrix raw_syrk(gpusim::Launcher& launcher, const Matrix& a,
                const linalg::GemmConfig& gemm) {
  return linalg::blocked_matmul(launcher, a, a.transposed(), gemm);
}

RawFactorResult raw_cholesky(gpusim::Launcher& launcher, const Matrix& a,
                             const linalg::GemmConfig& gemm,
                             std::size_t panel) {
  AABFT_REQUIRE(a.rows() == a.cols(),
                "Cholesky factorisation needs a square matrix");
  AABFT_REQUIRE(panel >= 2, "panel width must be at least 2");
  const std::size_t n = a.rows();

  RawFactorResult result;
  result.f = a;
  Matrix& m = result.f;

  for (std::size_t k0 = 0; k0 < n; k0 += panel) {
    const std::size_t kb = std::min(panel, n - k0);
    const std::size_t k_end = k0 + kb;

    for (std::size_t j = k0; j < k_end; ++j) {
      double d = m(j, j);
      for (std::size_t t = k0; t < j; ++t) d -= m(j, t) * m(j, t);
      if (d <= 0.0) {
        result.ok = false;
        return result;
      }
      const double ljj = std::sqrt(d);
      m(j, j) = ljj;
      for (std::size_t i = j + 1; i < k_end; ++i) {
        double s = m(i, j);
        for (std::size_t t = k0; t < j; ++t) s -= m(i, t) * m(j, t);
        m(i, j) = s / ljj;
      }
    }

    if (k_end == n) break;

    for (std::size_t i = k_end; i < n; ++i) {
      for (std::size_t j = k0; j < k_end; ++j) {
        double s = m(i, j);
        for (std::size_t t = k0; t < j; ++t) s -= m(i, t) * m(j, t);
        m(i, j) = s / m(j, j);
      }
    }

    const std::size_t m2 = n - k_end;
    Matrix l21(m2, kb);
    for (std::size_t i = 0; i < m2; ++i)
      for (std::size_t j = 0; j < kb; ++j) l21(i, j) = m(k_end + i, k0 + j);
    const Matrix update =
        linalg::blocked_matmul(launcher, l21, l21.transposed(), gemm);
    for (std::size_t i = 0; i < m2; ++i)
      for (std::size_t j = 0; j < m2; ++j)
        m(k_end + i, k_end + j) -= update(i, j);
  }

  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) m(i, j) = 0.0;
  return result;
}

RawFactorResult raw_lu(gpusim::Launcher& launcher, const Matrix& a,
                       const linalg::GemmConfig& gemm, std::size_t panel) {
  AABFT_REQUIRE(a.rows() == a.cols(),
                "LU factorisation needs a square matrix");
  AABFT_REQUIRE(panel >= 2, "panel width must be at least 2");
  const std::size_t n = a.rows();

  RawFactorResult result;
  result.f = a;
  result.perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) result.perm[i] = i;
  Matrix& m = result.f;

  for (std::size_t k0 = 0; k0 < n; k0 += panel) {
    const std::size_t kb = std::min(panel, n - k0);
    const std::size_t k_end = k0 + kb;

    for (std::size_t j = k0; j < k_end; ++j) {
      std::size_t piv = j;
      double best = std::fabs(m(j, j));
      for (std::size_t i = j + 1; i < n; ++i) {
        const double cand = std::fabs(m(i, j));
        if (cand > best) {
          best = cand;
          piv = i;
        }
      }
      if (best == 0.0) {
        result.ok = false;
        return result;
      }
      if (piv != j) {
        for (std::size_t c = 0; c < n; ++c) std::swap(m(j, c), m(piv, c));
        std::swap(result.perm[j], result.perm[piv]);
      }
      const double inv_pivot = 1.0 / m(j, j);
      for (std::size_t i = j + 1; i < n; ++i) {
        m(i, j) *= inv_pivot;
        const double lij = m(i, j);
        for (std::size_t c = j + 1; c < k_end; ++c) m(i, c) -= lij * m(j, c);
      }
    }

    if (k_end == n) break;

    for (std::size_t j2 = k_end; j2 < n; ++j2) {
      for (std::size_t i = k0; i < k_end; ++i) {
        double s = m(i, j2);
        for (std::size_t t = k0; t < i; ++t) s -= m(i, t) * m(t, j2);
        m(i, j2) = s;
      }
    }

    const std::size_t m2 = n - k_end;
    Matrix l21(m2, kb);
    for (std::size_t i = 0; i < m2; ++i)
      for (std::size_t j = 0; j < kb; ++j) l21(i, j) = m(k_end + i, k0 + j);
    Matrix u12(kb, m2);
    for (std::size_t i = 0; i < kb; ++i)
      for (std::size_t j = 0; j < m2; ++j) u12(i, j) = m(k0 + i, k_end + j);
    const Matrix update = linalg::blocked_matmul(launcher, l21, u12, gemm);
    for (std::size_t i = 0; i < m2; ++i)
      for (std::size_t j = 0; j < m2; ++j)
        m(k_end + i, k_end + j) -= update(i, j);
  }

  return result;
}

}  // namespace aabft::abft
