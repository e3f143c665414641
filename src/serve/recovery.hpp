// The per-response recovery ladder.
//
// The scheme itself already climbs the cheap rungs inside one operation
// (A-ABFT detect -> locate_and_correct patch -> per-block recompute ->
// bounded full recomputes; for the panel factorizations, block recomputes
// act at panel-update granularity and "full recompute" includes the
// restart-once after a carry mismatch). The serving layer adds the rungs
// above it: re-dispatch the whole operation (bounded by a per-request retry
// budget — one-shot faults have been consumed by then, so a retry is
// usually clean), then escalate to the TMR scheme (element voting for
// products, whole-result replica voting for factorizations), and finally
// fail with a diagnosis instead of serving a result nobody vouches for.
// A scheme call that throws is a failed rung like any refused one, so the
// ladder always ends in a response.
#pragma once

#include <cstddef>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "baselines/scheme.hpp"
#include "serve/request.hpp"

namespace aabft::serve {

struct RecoveryPolicy {
  /// Serve-level full re-dispatches after the scheme's own ladder failed.
  std::size_t retry_budget = 1;
  /// Escalate to the TMR scheme when retries are exhausted.
  bool escalate_tmr = true;
};

struct RecoveryOutcome {
  /// The settled scheme result; nullopt only when every rung (including the
  /// first pass) was refused as a value error.
  std::optional<baselines::OpOutcome> result;
  RecoveryRung rung = RecoveryRung::kNone;
  std::size_t retries = 0;
  bool tmr_escalated = false;
  bool ok = false;  ///< a rung produced a clean result
  std::string diagnosis;  ///< why the ladder was exhausted, when !ok
};

/// Map a clean in-scheme result onto the deepest rung that ran.
[[nodiscard]] RecoveryRung rung_of(const baselines::OpOutcome& r) noexcept;

/// Run one scheme call as a rung: a std::exception it throws (a kernel whose
/// tile overflows the device's shared memory, a hazard abort) comes back as
/// a kExecutionFailed error carrying what(), so the ladder climbs on.
template <typename Call>
[[nodiscard]] Result<baselines::OpOutcome> attempt(Call&& call) {
  try {
    return std::forward<Call>(call)();
  } catch (const std::exception& e) {
    return Error{ErrorCode::kExecutionFailed, e.what()};
  }
}

/// Climb the serve-level rungs for one operation. `first` is the result of
/// the already-run primary execute (possibly with faults armed); retries and
/// the TMR escalation re-run fault-free, each through attempt(). `tmr` may be
/// nullptr to disable escalation regardless of policy; it is also skipped
/// when it does not support `desc.kind`.
[[nodiscard]] RecoveryOutcome run_ladder(
    baselines::ProtectedBlas3& primary, baselines::ProtectedBlas3* tmr,
    const baselines::OpDescriptor& desc, const linalg::Matrix& a,
    const linalg::Matrix& b, Result<baselines::OpOutcome> first,
    const RecoveryPolicy& policy);

}  // namespace aabft::serve
