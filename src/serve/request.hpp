// Request/response types of the protected BLAS-3 serving layer.
//
// A GemmRequest (historical name: it serves every op kind) is one protected
// operation a tenant submits: an op kind (GEMM, SYRK, Cholesky, LU),
// operands, a priority class, an optional latency deadline, and (for
// fault-campaign traffic) a per-request fault plan armed for
// exactly this request's protected compute. Single-operand kinds (SYRK and
// the factorizations) read only `a`; `b` may be left empty. The response
// carries the data result (plus the pivot permutation for LU), the scheme's
// cleanliness verdict, which rung of the recovery ladder produced the
// answer, and a structured per-request trace (timestamps + outcome counters)
// that the server aggregates into its telemetry.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/op.hpp"
#include "gpusim/fault_site.hpp"
#include "linalg/matrix.hpp"

namespace aabft::serve {

using baselines::OpKind;

/// Dispatch priority classes; lower enumerator value pops first.
enum class Priority : std::uint8_t {
  kHigh = 0,    ///< latency-sensitive interactive traffic
  kNormal = 1,  ///< the default class
  kBatch = 2,   ///< throughput traffic, served when nothing else waits
};
inline constexpr std::size_t kNumPriorities = 3;

struct GemmRequest {
  std::uint64_t id = 0;  ///< 0 = assigned by the server at admission
  /// The requested operation. GEMM reads `a` and `b`; SYRK computes
  /// A * A^T from `a` alone; Cholesky/LU factor the square `a`.
  OpKind kind = OpKind::kGemm;
  linalg::Matrix a;
  linalg::Matrix b;
  /// Operand-cache handle standing in for `a` (GEMM only; 0 = none). Set it
  /// to a handle from GemmServer::register_operand and leave `a` empty: the
  /// server consumes the cached encoded artifacts, skipping A's
  /// per-request checksum encode. Requests with inline `a` may still hit the
  /// cache implicitly by content fingerprint.
  std::uint64_t a_handle = 0;
  Priority priority = Priority::kNormal;
  /// End-to-end latency budget in milliseconds; 0 disables the deadline.
  /// Admission rejects requests whose estimated service time (including the
  /// current backlog) already exceeds the budget.
  double deadline_ms = 0.0;
  /// Faults armed for exactly this request's protected multiply (one-shot,
  /// disarmed when the request's compute finishes). Empty for production
  /// traffic; campaign drivers use it to exercise the recovery ladder.
  std::vector<gpusim::FaultConfig> fault_plan;
};

enum class ResponseStatus : std::uint8_t {
  kOk,      ///< the result is served and vouched for
  kFailed,  ///< the recovery ladder was exhausted; see diagnosis
};

/// Which rung of the detect -> correct -> recompute ladder settled the
/// response (the deepest repair that ran, for clean responses).
enum class RecoveryRung : std::uint8_t {
  kNone = 0,        ///< clean first pass, nothing detected
  kPanelRecompute,  ///< online k-panel screen + tile replay inside the fused
                    ///< product — repaired before the operation finished
  kCorrected,       ///< localisation + checksum patch (abft::locate_and_correct)
  kBlockRecompute,  ///< per-block bit-exact recompute (abft::recompute_blocks)
  kFullRecompute,   ///< full product re-execution inside the scheme
  kRetry,           ///< serve-level re-dispatch of the whole multiply
  kTmr,             ///< escalation to the TMR scheme
  kFailed,          ///< ladder exhausted without a clean result
};

[[nodiscard]] std::string_view to_string(RecoveryRung rung) noexcept;

/// Per-request structured telemetry. Timestamps are nanoseconds on the
/// server's monotonic clock (0 = stage not reached); they are monotone in
/// declaration order for completed requests.
struct RequestTrace {
  std::uint64_t enqueue_ns = 0;   ///< admitted into the queue
  std::uint64_t dispatch_ns = 0;  ///< popped into a batch
  std::uint64_t compute_ns = 0;   ///< scheme result (incl. check) available
  std::uint64_t repair_ns = 0;    ///< recovery ladder finished
  std::uint64_t complete_ns = 0;  ///< response handed to the caller
  std::size_t queue_depth_at_admission = 0;  ///< including this request
  std::size_t batch_size = 0;     ///< requests coalesced into the dispatch
  std::size_t faults_armed = 0;
  std::size_t faults_fired = 0;
  bool detected = false;
  bool corrected = false;
  std::size_t corrections = 0;       ///< elements patched from checksums
  std::size_t panel_detections = 0;  ///< online k-panel screen mismatches
  std::size_t panel_recomputes = 0;  ///< fused-product tile panel replays
  std::size_t block_recomputes = 0;  ///< checksum blocks recomputed in place
  std::size_t full_recomputes = 0;   ///< in-scheme full re-executions
  std::size_t retries = 0;           ///< serve-level re-dispatches
  bool tmr_escalated = false;
  /// A's encode came from the operand cache (explicit handle or implicit
  /// fingerprint match) instead of a per-request encode pass.
  bool cache_hit = false;
};

struct GemmResponse {
  std::uint64_t id = 0;
  OpKind kind = OpKind::kGemm;  ///< echoes the request's op kind
  ResponseStatus status = ResponseStatus::kOk;
  /// The data result in original (unpadded) extents: the m x q product for
  /// GEMM, the m x m product for SYRK, the packed factors for Cholesky/LU.
  linalg::Matrix c;
  /// LU only: row permutation (factored row i of PA is original row perm[i]).
  std::vector<std::size_t> perm;
  /// The serving scheme vouches for the result (detection passed clean,
  /// possibly after repair). Always false for kFailed responses.
  bool clean = false;
  RecoveryRung rung = RecoveryRung::kNone;
  std::string diagnosis;  ///< failure description when status == kFailed
  RequestTrace trace;
};

inline std::string_view to_string(RecoveryRung rung) noexcept {
  switch (rung) {
    case RecoveryRung::kNone: return "none";
    case RecoveryRung::kPanelRecompute: return "panel-recompute";
    case RecoveryRung::kCorrected: return "corrected";
    case RecoveryRung::kBlockRecompute: return "block-recompute";
    case RecoveryRung::kFullRecompute: return "full-recompute";
    case RecoveryRung::kRetry: return "retry";
    case RecoveryRung::kTmr: return "tmr";
    case RecoveryRung::kFailed: return "failed";
  }
  return "?";
}

}  // namespace aabft::serve
