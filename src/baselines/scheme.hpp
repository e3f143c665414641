// The unified protection-scheme interface: ProtectedBlas3.
//
// Every contender of the paper's experiments — unprotected, manually bounded
// ABFT, A-ABFT, SEA-ABFT and the TMR variants — implements the same small
// surface, so the experiment drivers (perf_suite, inject/campaign,
// inject/sweep) and the serving layer iterate over a scheme list instead of
// special-casing incompatible result types.
//
// The interface is operation-shaped, not GEMM-shaped: an OpDescriptor
// (op.hpp) names what to run — GEMM, SYRK, a right-looking Cholesky or LU
// panel factorization — and execute() returns the shared OpOutcome core.
// Schemes advertise coverage through supports(); asking for an op a scheme
// does not implement is a recoverable refusal (ErrorCode::kUnsupportedOp),
// never an assertion.
//
// Two facets:
//   - execute: run the scheme's *full* pipeline on raw operands and report
//     what happened through the shared OpOutcome core.
//   - ProductChecker (optional, via make_checker): check an *externally
//     computed* full-checksum product. Fault-injection campaigns need this —
//     both ABFT contenders must judge the same faulty product so the
//     comparison is paired. Schemes whose detection is inseparable from
//     their execution (TMR replicas, unprotected) return nullptr and are
//     skipped by campaigns, with no branching in the driver.
//
// Recoverable misuse (shape mismatches, unsupported op kinds) is reported
// through Result<> per the DESIGN.md §4.7 error-handling contract;
// exceptions remain reserved for genuine precondition bugs.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "abft/checksum.hpp"
#include "abft/encoder.hpp"
#include "baselines/op.hpp"
#include "core/result.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matrix.hpp"

namespace aabft::baselines {

/// What every scheme can report about one protected operation. Scheme-
/// specific detail (check reports, correction lists, replica votes) stays on
/// the concrete APIs; this core is what the generic drivers consume.
struct [[nodiscard]] OpOutcome {
  /// The data result: the (stripped) product for GEMM/SYRK, the combined
  /// factors for the factorizations (L with unit upper part implied plus U
  /// for LU; the lower-triangular L for Cholesky).
  linalg::Matrix c;
  /// Row permutation of a pivoted factorization (factored row i of PA is
  /// original row perm[i]); empty for every other op kind.
  std::vector<std::size_t> perm;
  bool detected = false;       ///< the scheme flagged an error
  bool corrected = false;      ///< ... and repaired it in place
  std::size_t corrections = 0;      ///< localised elements patched in place
  std::size_t block_recomputes = 0; ///< checksum blocks recomputed in place
  std::size_t recomputed = 0;  ///< full re-executions performed (whole
                               ///< product, or panel updates / factor
                               ///< restarts for the factorizations)
  /// Protected panel updates run (factorizations only; 0 for GEMM/SYRK).
  std::size_t protected_updates = 0;
  /// Online k-panel screen events of the fused A-ABFT GEMM (rung 0 of the
  /// recovery ladder): mismatches observed mid-product, and tile panel
  /// replays that repaired them before the operation finished. 0 for every
  /// other scheme/path.
  std::size_t panel_detections = 0;
  std::size_t panel_recomputes = 0;
  /// The scheme believes the returned result is fault-free (always true for
  /// schemes without detection; false when detection fired and neither
  /// correction nor recomputation resolved it).
  bool clean = true;
};

/// Checks an externally computed full-checksum product (see header comment).
/// A checker may hold references into the ProductCheckContext it was created
/// from; the context's operands must outlive the checker.
class ProductChecker {
 public:
  virtual ~ProductChecker() = default;
  /// True when the scheme's bound comparison flags `c_fc` as erroneous.
  [[nodiscard]] virtual bool flags_error(const linalg::Matrix& c_fc) = 0;
};

/// Shared state a campaign prepares once: the encoded operands both ABFT
/// contenders check against. `inner_dim` is the inner-product length of the
/// unencoded problem.
struct ProductCheckContext {
  gpusim::Launcher& launcher;
  const abft::PartitionedCodec& codec;
  const abft::EncodedMatrix& a_cc;
  const abft::EncodedMatrix& b_rc;
  std::size_t inner_dim;
};

class ProtectedBlas3 {
 public:
  virtual ~ProtectedBlas3() = default;

  /// Stable scheme identifier ("unprotected", "fixed-abft", "a-abft",
  /// "sea-abft", "tmr", "diverse-tmr") — the key the drivers report under.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// True when execute() implements this op kind. The default interface
  /// contract is GEMM-only; schemes with factorization coverage override.
  [[nodiscard]] virtual bool supports(OpKind kind) const noexcept {
    return kind == OpKind::kGemm;
  }

  /// Run the operation named by `desc` with this scheme's protection. For
  /// ops with uses_b() == false, `b` is ignored (pass an empty matrix).
  /// Shape mismatches and unsupported op kinds are returned as errors, not
  /// thrown.
  [[nodiscard]] virtual Result<OpOutcome> execute(const OpDescriptor& desc,
                                                  const linalg::Matrix& a,
                                                  const linalg::Matrix& b) = 0;

  /// Checker over an already-encoded operand pair, or nullptr when the
  /// scheme cannot judge an external product (TMR family, unprotected).
  [[nodiscard]] virtual std::unique_ptr<ProductChecker> make_checker(
      const ProductCheckContext& /*ctx*/) {
    return nullptr;
  }
};

}  // namespace aabft::baselines
