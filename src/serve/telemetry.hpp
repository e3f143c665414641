// Aggregated server telemetry: outcome counters plus streaming latency
// distributions (queue wait / service / end-to-end), serialisable to JSON.
//
// ServerStats is the plain snapshot value handed to callers; the live
// counters sit in a StatsBoard. The board's counters are lock-free atomics
// (client threads bump admission counters, the per-request host tasks bump
// completion counters, nobody serialises against readers), and snapshot()
// reads them in a single acquire pass — each counter is loaded exactly once,
// whole, so a fleet aggregator polling per-shard stats mid-run can never
// observe a torn counter. The latency recorders (multi-word histograms that
// cannot be read atomically) stay behind a short-hold mutex taken per record
// and once per snapshot; the host tasks write them concurrently.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "baselines/op.hpp"
#include "core/latency.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"

namespace aabft::serve {

struct ServerStats {
  // Admission.
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_shape = 0;
  /// The primary scheme does not implement the requested op kind.
  std::uint64_t rejected_unsupported = 0;

  // Completion and the recovery ladder.
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  /// Completed responses broken down by op kind (index = OpKind value).
  std::array<std::uint64_t, baselines::kNumOpKinds> completed_by_kind{};
  std::uint64_t detected = 0;
  std::uint64_t corrected = 0;
  std::uint64_t corrections = 0;
  /// Online k-panel screen mismatches observed inside fused products
  /// (recovery rung 0; repaired by tile panel replay before completion).
  std::uint64_t panel_detections = 0;
  std::uint64_t block_recomputes = 0;
  std::uint64_t full_recomputes = 0;
  std::uint64_t retries = 0;
  std::uint64_t tmr_escalations = 0;
  std::uint64_t faults_armed = 0;
  std::uint64_t faults_fired = 0;

  // Batching.
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;  ///< requests in batches of size >= 2
  std::size_t max_batch = 0;           ///< largest batch dispatched

  // Operand checksum cache (serve/opcache). Hits count requests served from
  // a cached encode (explicit handle or implicit fingerprint match); misses
  // count fingerprint probes that found nothing. bytes / pinned_bytes are
  // gauges (they go down on eviction / pin release); merging adds them, so a
  // fleet total reads as cache bytes across all shards.
  std::uint64_t opcache_hits = 0;
  std::uint64_t opcache_misses = 0;
  std::uint64_t opcache_registered = 0;
  std::uint64_t opcache_evictions = 0;
  std::uint64_t opcache_invalidations = 0;
  std::uint64_t opcache_bytes = 0;
  std::uint64_t opcache_pinned_bytes = 0;

  LatencyRecorder queue_wait_ns;  ///< enqueue -> dispatch
  LatencyRecorder service_ns;     ///< dispatch -> ladder settled
  LatencyRecorder e2e_ns;         ///< enqueue -> response delivered
};

/// Exact aggregation of `from` into `into`: counters add, histograms merge,
/// max_batch takes the maximum. The fleet layer folds per-shard snapshots
/// into fleet totals with this.
void merge_into(ServerStats& into, const ServerStats& from);

/// Render the stats as a self-contained JSON object (counters + per-
/// distribution {count, mean, p50, p95, p99, max} blocks under latency_ns).
[[nodiscard]] std::string to_json(const ServerStats& stats);

/// The live, concurrently-written side of ServerStats (see header comment).
/// Counter fields mirror ServerStats one-for-one; snapshot() produces the
/// plain value.
class StatsBoard {
 public:
  // Lock-free counters. Increment with bump(); relaxed ordering is enough —
  // every counter is monotone and independently meaningful.
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> rejected_queue_full{0};
  std::atomic<std::uint64_t> rejected_deadline{0};
  std::atomic<std::uint64_t> rejected_shape{0};
  std::atomic<std::uint64_t> rejected_unsupported{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  std::array<std::atomic<std::uint64_t>, baselines::kNumOpKinds>
      completed_by_kind{};
  std::atomic<std::uint64_t> detected{0};
  std::atomic<std::uint64_t> corrected{0};
  std::atomic<std::uint64_t> corrections{0};
  std::atomic<std::uint64_t> panel_detections{0};
  std::atomic<std::uint64_t> block_recomputes{0};
  std::atomic<std::uint64_t> full_recomputes{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> tmr_escalations{0};
  std::atomic<std::uint64_t> faults_armed{0};
  std::atomic<std::uint64_t> faults_fired{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batched_requests{0};
  std::atomic<std::uint64_t> opcache_hits{0};
  std::atomic<std::uint64_t> opcache_misses{0};
  std::atomic<std::uint64_t> opcache_registered{0};
  std::atomic<std::uint64_t> opcache_evictions{0};
  std::atomic<std::uint64_t> opcache_invalidations{0};
  std::atomic<std::uint64_t> opcache_bytes{0};
  std::atomic<std::uint64_t> opcache_pinned_bytes{0};

  static void bump(std::atomic<std::uint64_t>& counter,
                   std::uint64_t by = 1) noexcept {
    if (by != 0) counter.fetch_add(by, std::memory_order_relaxed);
  }

  /// Gauge decrement (opcache bytes retire on eviction, pinned bytes on pin
  /// release); still a single whole-word RMW, so snapshots stay torn-free.
  static void drop(std::atomic<std::uint64_t>& counter,
                   std::uint64_t by = 1) noexcept {
    if (by != 0) counter.fetch_sub(by, std::memory_order_relaxed);
  }

  /// Monotone max over dispatched batch sizes (dispatcher-only writer, but
  /// CAS keeps it correct regardless).
  void note_batch_size(std::size_t n) noexcept {
    std::size_t seen = max_batch_.load(std::memory_order_relaxed);
    while (n > seen &&
           !max_batch_.compare_exchange_weak(seen, n,
                                             std::memory_order_relaxed)) {
    }
  }

  void record_queue_wait(std::uint64_t ns) AABFT_EXCLUDES(recorder_mu_) {
    core::MutexLock lk(recorder_mu_);
    queue_wait_ns_.record(ns);
  }
  void record_service(std::uint64_t ns) AABFT_EXCLUDES(recorder_mu_) {
    core::MutexLock lk(recorder_mu_);
    service_ns_.record(ns);
  }
  void record_e2e(std::uint64_t ns) AABFT_EXCLUDES(recorder_mu_) {
    core::MutexLock lk(recorder_mu_);
    e2e_ns_.record(ns);
  }

  /// One-pass snapshot: copy the three recorders under one brief lock
  /// acquisition, then load every counter whole (single acquire fence, one
  /// relaxed load each). Counters are independently monotone, so the
  /// snapshot is torn-read-free per field; it is not a cross-field
  /// linearisation point (completed may lag admitted by in-flight work).
  [[nodiscard]] ServerStats snapshot() const AABFT_EXCLUDES(recorder_mu_);

 private:
  mutable core::Mutex recorder_mu_{core::LockRank::kServeStats,
                                   "serve.stats"};
  LatencyRecorder queue_wait_ns_ AABFT_GUARDED_BY(recorder_mu_);
  LatencyRecorder service_ns_ AABFT_GUARDED_BY(recorder_mu_);
  LatencyRecorder e2e_ns_ AABFT_GUARDED_BY(recorder_mu_);
  std::atomic<std::size_t> max_batch_{0};
};

}  // namespace aabft::serve
