#include "serve/recovery.hpp"

#include <utility>

namespace aabft::serve {

RecoveryRung rung_of(const baselines::OpOutcome& r) noexcept {
  if (!r.detected) return RecoveryRung::kNone;
  if (r.recomputed > 0) return RecoveryRung::kFullRecompute;
  if (r.block_recomputes > 0) return RecoveryRung::kBlockRecompute;
  if (r.corrected) return RecoveryRung::kCorrected;
  // Earliest rung: the fused product's online screen caught and repaired the
  // fault at k-panel granularity, before the operation even finished.
  if (r.panel_recomputes > 0) return RecoveryRung::kPanelRecompute;
  return RecoveryRung::kNone;
}

RecoveryOutcome run_ladder(baselines::ProtectedBlas3& primary,
                           baselines::ProtectedBlas3* tmr,
                           const baselines::OpDescriptor& desc,
                           const linalg::Matrix& a, const linalg::Matrix& b,
                           Result<baselines::OpOutcome> first,
                           const RecoveryPolicy& policy) {
  RecoveryOutcome outcome;

  // Keep the latest unclean result around so a failed response still carries
  // the best data we have (status kFailed tells the caller not to trust it).
  auto consider = [&](Result<baselines::OpOutcome>&& r,
                      RecoveryRung rung_if_clean) {
    if (!r.ok()) {
      outcome.diagnosis = r.error().message;
      return false;
    }
    const bool clean = r->clean;
    if (clean) outcome.rung = rung_if_clean;
    outcome.result = std::move(r).value();
    return clean;
  };

  if (consider(std::move(first), RecoveryRung::kNone)) {
    // The scheme may have repaired in place; report the rung it used.
    outcome.rung = rung_of(*outcome.result);
    outcome.ok = true;
    return outcome;
  }

  while (outcome.retries < policy.retry_budget) {
    ++outcome.retries;
    if (consider(attempt([&] { return primary.execute(desc, a, b); }),
                 RecoveryRung::kRetry)) {
      outcome.ok = true;
      return outcome;
    }
  }

  if (policy.escalate_tmr && tmr != nullptr && tmr->supports(desc.kind)) {
    outcome.tmr_escalated = true;
    if (consider(attempt([&] { return tmr->execute(desc, a, b); }),
                 RecoveryRung::kTmr)) {
      outcome.ok = true;
      return outcome;
    }
  }

  outcome.rung = RecoveryRung::kFailed;
  if (outcome.diagnosis.empty())
    outcome.diagnosis =
        "recovery ladder exhausted: detection still flags the product after " +
        std::to_string(outcome.retries) + " retries" +
        (outcome.tmr_escalated ? " and a TMR escalation" : "");
  return outcome;
}

}  // namespace aabft::serve
