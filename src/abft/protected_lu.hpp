// ABFT-protected LU factorisation — the paper's generality claim made
// concrete.
//
// The introduction notes that although A-ABFT is presented for matrix
// multiplication, "the approach itself is much more general and can be
// extended to other operations as well"; the original ABFT literature the
// paper builds on (Huang/Abraham [10]) already covered LU. This module
// implements the standard construction: a right-looking blocked LU with
// partial pivoting whose O(n^3) trailing updates — the part worth
// protecting — run through the A-ABFT protected multiplier (detection,
// localisation, correction, recompute fallback), while the O(n * panel^2)
// panel factorisations and triangular solves stay on the host. The trailing
// matrix's checksums are additionally *carried* across panel updates
// (abft::ChecksumCarry, blas3.hpp) and verified before each panel is
// consumed (the MAGMA CHECK_BEFORE pattern), so corruption between
// protected updates restarts the factorisation instead of leaking into the
// factors.
//
// Serving entry point: the ProtectedBlas3 operation API (OpKind::kLu via
// baselines::AabftScheme::execute) wraps this engine; the class itself
// remains the rich interface for code that needs LuResult's full detail.
#pragma once

#include <cstddef>
#include <vector>

#include "abft/aabft.hpp"
#include "abft/blas3.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matrix.hpp"

namespace aabft::abft {

struct LuResult {
  /// Combined factors: unit-lower L below the diagonal, U on and above it.
  linalg::Matrix lu;
  /// Row permutation: factored row i of PA is original row perm[i].
  std::vector<std::size_t> perm;
  std::size_t protected_updates = 0;   ///< A-ABFT-protected GEMM updates run
  std::size_t faults_detected = 0;     ///< updates that flagged an error
  std::size_t panel_detections = 0;    ///< online k-panel screen mismatches
  std::size_t panel_recomputes = 0;    ///< fused-update tile panel replays
  std::size_t corrections = 0;         ///< localised repairs applied
  std::size_t block_recomputes = 0;    ///< checksum blocks recomputed in place
  std::size_t recomputations = 0;      ///< transient-fault re-executions
  std::size_t carry_mismatches = 0;    ///< carried-checksum checks that failed
  std::size_t factor_restarts = 0;     ///< full refactor after a carry mismatch
  bool singular = false;               ///< a pivot column was exactly zero
  bool ok = true;                      ///< factorisation completed cleanly
};

struct ProtectedLuConfig {
  std::size_t panel = 32;   ///< blocking width of the factorisation
  AabftConfig aabft;        ///< protection of the trailing updates
};

class ProtectedLu {
 public:
  ProtectedLu(gpusim::Launcher& launcher, ProtectedLuConfig config);

  /// Factor a square matrix: P A = L U with partial pivoting. One carry
  /// mismatch restarts the factorisation from the pristine input; a second
  /// gives up (ok = false).
  [[nodiscard]] LuResult factor(const linalg::Matrix& a);

  /// Solve A x = b given a factorisation (forward/back substitution).
  [[nodiscard]] static std::vector<double> solve(const LuResult& lu,
                                                 std::vector<double> b);

  /// max_ij |(P A - L U)_ij| — reconstruction residual (test/diagnostic).
  [[nodiscard]] static double residual(const linalg::Matrix& a,
                                       const LuResult& lu);

 private:
  [[nodiscard]] LuResult factor_once(const linalg::Matrix& a);

  gpusim::Launcher& launcher_;
  ProtectedLuConfig config_;
};

}  // namespace aabft::abft
