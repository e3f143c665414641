#include "abft/protected_lu.hpp"

#include <cmath>

#include "core/require.hpp"
#include "linalg/matmul.hpp"

namespace aabft::abft {

using linalg::Matrix;

ProtectedLu::ProtectedLu(gpusim::Launcher& launcher, ProtectedLuConfig config)
    : launcher_(launcher), config_(config) {
  AABFT_REQUIRE(config_.panel >= 2, "panel width must be at least 2");
  AABFT_REQUIRE(config_.aabft.valid(), "invalid A-ABFT configuration");
}

LuResult ProtectedLu::factor(const Matrix& a) {
  AABFT_REQUIRE(a.rows() == a.cols(), "LU factorisation needs a square matrix");
  LuResult first = factor_once(a);
  if (first.carry_mismatches == 0) return first;
  // The trailing matrix was corrupted between protected updates; the factors
  // derived from it are not trustworthy. Restart once from the pristine
  // input (the one panel-level recompute of the carry ladder).
  LuResult retry = factor_once(a);
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

LuResult ProtectedLu::factor_once(const Matrix& a) {
  const std::size_t n = a.rows();
  const std::size_t panel = config_.panel;

  LuResult result;
  result.lu = a;
  result.perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) result.perm[i] = i;
  Matrix& m = result.lu;

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

    // ---- panel factorisation with partial pivoting (host, O(n * kb^2)) ----
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
        result.singular = true;  // singular (to working precision)
        result.ok = false;
        return result;
      }
      if (piv != j) {
        // Columns right of the panel keep their carried sums current; the
        // panel's own columns are mid-elimination and never verified again.
        carry.note_row_swap(m, j, piv, k_end);
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

    // ---- U12 block: solve L11 * U12 = A12 (host, O(kb^2 * n)) ----
    for (std::size_t j2 = k_end; j2 < n; ++j2) {
      for (std::size_t i = k0; i < k_end; ++i) {
        double s = m(i, j2);
        for (std::size_t t = k0; t < i; ++t) s -= m(i, t) * m(t, j2);
        m(i, j2) = s;
      }
    }

    // ---- trailing update A22 -= L21 * U12, A-ABFT protected (O(n^3)) ----
    const std::size_t m2 = n - k_end;  // trailing rows
    const std::size_t n2 = n - k_end;  // trailing columns
    Matrix l21(m2, kb);
    for (std::size_t i = 0; i < m2; ++i)
      for (std::size_t j = 0; j < kb; ++j) l21(i, j) = m(k_end + i, k0 + j);
    Matrix u12(kb, n2);
    for (std::size_t i = 0; i < kb; ++i)
      for (std::size_t j = 0; j < n2; ++j) u12(i, j) = m(k0 + i, k_end + j);

    const AabftResult update = mult.multiply_padded(l21, u12);
    ++result.protected_updates;
    if (update.error_detected()) ++result.faults_detected;
    result.panel_detections += update.panel_detections;
    result.panel_recomputes += update.panel_recomputes;
    result.corrections += update.corrections.size();
    result.block_recomputes += update.block_recomputes;
    result.recomputations += update.recomputations;
    if (update.uncorrectable || !update.recheck_clean) result.ok = false;

    for (std::size_t i = 0; i < m2; ++i)
      for (std::size_t j = 0; j < n2; ++j)
        m(k_end + i, k_end + j) -= update.c(i, j);

    // Carry the update's verified checksums into the running sums.
    carry.apply_update(update.c_fc, mult.codec(), k_end, n2);
  }

  return result;
}

std::vector<double> ProtectedLu::solve(const LuResult& lu,
                                       std::vector<double> b) {
  const std::size_t n = lu.lu.rows();
  AABFT_REQUIRE(b.size() == n, "right-hand side size mismatch");

  // Apply the permutation: y = P b.
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[lu.perm[i]];

  // Forward substitution with unit-diagonal L.
  for (std::size_t i = 0; i < n; ++i) {
    double s = x[i];
    for (std::size_t j = 0; j < i; ++j) s -= lu.lu(i, j) * x[j];
    x[i] = s;
  }
  // Back substitution with U.
  for (std::size_t i = n; i-- > 0;) {
    double s = x[i];
    for (std::size_t j = i + 1; j < n; ++j) s -= lu.lu(i, j) * x[j];
    x[i] = s / lu.lu(i, i);
  }
  return x;
}

double ProtectedLu::residual(const Matrix& a, const LuResult& lu) {
  const std::size_t n = a.rows();
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // (L U)_ij = sum_k L_ik U_kj with L unit-lower, U upper.
      double s = 0.0;
      const std::size_t kmax = std::min(i, j);
      for (std::size_t k = 0; k < kmax; ++k) s += lu.lu(i, k) * lu.lu(k, j);
      // Final term: k = i gives 1 * U_ij (unit diagonal of L) when i <= j,
      // k = j gives L_ij * U_jj when i > j.
      s += (i <= j) ? lu.lu(i, j) : lu.lu(i, j) * lu.lu(j, j);
      const double pa = a(lu.perm[i], j);
      worst = std::max(worst, std::fabs(pa - s));
    }
  }
  return worst;
}

}  // namespace aabft::abft
