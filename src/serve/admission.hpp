// Admission control: validate, pad, check deadline feasibility, enqueue.
//
// Admission is the server's backpressure boundary. Refusals are values
// (Result, per the DESIGN.md §4.7 contract), so clients can distinguish and
// react: kShapeMismatch / kInvalidArgument (fix the request), kOverloaded
// (queue full — back off and retry), kDeadlineInfeasible (the latency budget
// cannot be met even before queuing — shed the request now instead of
// serving a guaranteed-late answer).
//
// Deadline feasibility uses a deliberately simple cost model: estimated
// service time = (backlog flops + request flops) * est_ns_per_flop /
// workers, with per-op-kind flops from OpDescriptor::flops (2 m k q for the
// padded GEMM, m^2 k SYRK, n^3/3 Cholesky, 2 n^3/3 LU). The backlog counter
// is maintained by the server (admit adds, on_complete retires).
#pragma once

#include <atomic>
#include <cstdint>

#include "core/result.hpp"
#include "serve/queue.hpp"

namespace aabft::serve {

struct AdmissionConfig {
  std::size_t queue_capacity = 256;
  /// Cost-model coefficient: estimated simulated-service nanoseconds per
  /// GEMM flop on one worker lane. Calibrate per host; only deadline
  /// feasibility depends on it.
  double est_ns_per_flop = 2.0;
};

class AdmissionController {
 public:
  AdmissionController(AdmissionConfig config, std::size_t bs,
                      unsigned workers) noexcept
      : config_(config), bs_(bs), workers_(workers != 0 ? workers : 1) {}

  /// Validate shapes per op kind, assign an id, estimate deadline
  /// feasibility, pad GEMM operands to checksum-block multiples and enqueue.
  /// On success the pending request (with its OpDescriptor and enqueue trace
  /// fields filled) has been pushed and its future is returned.
  ///
  /// `cache` (may be null) is the server's operand cache: an explicit
  /// request.a_handle resolves and pins here (kInvalidArgument when unknown
  /// or evicted), and inline GEMM A operands are fingerprinted for implicit
  /// hits. The pin is taken at admission — not dispatch — so a queued
  /// request can never lose its entry to eviction. On a hit the deadline
  /// model charges only B's encode flops; a miss also charges A's.
  [[nodiscard]] Result<std::future<GemmResponse>> admit(
      GemmRequest&& request, BoundedRequestQueue& queue, std::uint64_t now_ns,
      opcache::OperandCache* cache = nullptr);

  /// Retire a completed request's flops from the backlog estimate.
  void on_complete(std::uint64_t flops) noexcept {
    backlog_flops_.fetch_sub(flops, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t backlog_flops() const noexcept {
    return backlog_flops_.load(std::memory_order_relaxed);
  }

 private:
  AdmissionConfig config_;
  std::size_t bs_;
  unsigned workers_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> backlog_flops_{0};
};

}  // namespace aabft::serve
