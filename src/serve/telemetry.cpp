#include "serve/telemetry.hpp"

#include <algorithm>
#include <sstream>

namespace aabft::serve {
namespace {

void append_recorder(std::ostringstream& out, const char* name,
                     const LatencyRecorder& rec, bool last) {
  out << "    \"" << name << "\": {\"count\": " << rec.count()
      << ", \"mean\": " << rec.mean() << ", \"p50\": " << rec.p50()
      << ", \"p95\": " << rec.p95() << ", \"p99\": " << rec.p99()
      << ", \"max\": " << rec.max() << "}" << (last ? "\n" : ",\n");
}

}  // namespace

void merge_into(ServerStats& into, const ServerStats& from) {
  into.submitted += from.submitted;
  into.admitted += from.admitted;
  into.rejected_queue_full += from.rejected_queue_full;
  into.rejected_deadline += from.rejected_deadline;
  into.rejected_shape += from.rejected_shape;
  into.rejected_unsupported += from.rejected_unsupported;
  into.completed += from.completed;
  into.failed += from.failed;
  for (std::size_t i = 0; i < baselines::kNumOpKinds; ++i)
    into.completed_by_kind[i] += from.completed_by_kind[i];
  into.detected += from.detected;
  into.corrected += from.corrected;
  into.corrections += from.corrections;
  into.panel_detections += from.panel_detections;
  into.block_recomputes += from.block_recomputes;
  into.full_recomputes += from.full_recomputes;
  into.retries += from.retries;
  into.tmr_escalations += from.tmr_escalations;
  into.faults_armed += from.faults_armed;
  into.faults_fired += from.faults_fired;
  into.batches += from.batches;
  into.batched_requests += from.batched_requests;
  into.opcache_hits += from.opcache_hits;
  into.opcache_misses += from.opcache_misses;
  into.opcache_registered += from.opcache_registered;
  into.opcache_evictions += from.opcache_evictions;
  into.opcache_invalidations += from.opcache_invalidations;
  into.opcache_bytes += from.opcache_bytes;
  into.opcache_pinned_bytes += from.opcache_pinned_bytes;
  into.max_batch = std::max(into.max_batch, from.max_batch);
  into.queue_wait_ns.merge(from.queue_wait_ns);
  into.service_ns.merge(from.service_ns);
  into.e2e_ns.merge(from.e2e_ns);
}

ServerStats StatsBoard::snapshot() const {
  ServerStats s;
  {
    core::MutexLock lk(recorder_mu_);
    s.queue_wait_ns = queue_wait_ns_;
    s.service_ns = service_ns_;
    s.e2e_ns = e2e_ns_;
  }
  // One acquire pass over the counters: everything bumped before the fence's
  // matching release-or-later writes is visible, and each field is a single
  // whole load — no torn reads while workers are live.
  std::atomic_thread_fence(std::memory_order_acquire);
  const auto load = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  s.submitted = load(submitted);
  s.admitted = load(admitted);
  s.rejected_queue_full = load(rejected_queue_full);
  s.rejected_deadline = load(rejected_deadline);
  s.rejected_shape = load(rejected_shape);
  s.rejected_unsupported = load(rejected_unsupported);
  s.completed = load(completed);
  s.failed = load(failed);
  for (std::size_t i = 0; i < baselines::kNumOpKinds; ++i)
    s.completed_by_kind[i] = load(completed_by_kind[i]);
  s.detected = load(detected);
  s.corrected = load(corrected);
  s.corrections = load(corrections);
  s.panel_detections = load(panel_detections);
  s.block_recomputes = load(block_recomputes);
  s.full_recomputes = load(full_recomputes);
  s.retries = load(retries);
  s.tmr_escalations = load(tmr_escalations);
  s.faults_armed = load(faults_armed);
  s.faults_fired = load(faults_fired);
  s.batches = load(batches);
  s.batched_requests = load(batched_requests);
  s.opcache_hits = load(opcache_hits);
  s.opcache_misses = load(opcache_misses);
  s.opcache_registered = load(opcache_registered);
  s.opcache_evictions = load(opcache_evictions);
  s.opcache_invalidations = load(opcache_invalidations);
  s.opcache_bytes = load(opcache_bytes);
  s.opcache_pinned_bytes = load(opcache_pinned_bytes);
  s.max_batch = max_batch_.load(std::memory_order_relaxed);
  return s;
}

std::string to_json(const ServerStats& stats) {
  std::ostringstream out;
  out << "{\n";
  const auto field = [&](const char* name, std::uint64_t value) {
    out << "  \"" << name << "\": " << value << ",\n";
  };
  field("submitted", stats.submitted);
  field("admitted", stats.admitted);
  field("rejected_queue_full", stats.rejected_queue_full);
  field("rejected_deadline", stats.rejected_deadline);
  field("rejected_shape", stats.rejected_shape);
  field("rejected_unsupported", stats.rejected_unsupported);
  field("completed", stats.completed);
  for (std::size_t i = 0; i < baselines::kNumOpKinds; ++i)
    field((std::string("completed_") +
           std::string(to_string(static_cast<baselines::OpKind>(i))))
              .c_str(),
          stats.completed_by_kind[i]);
  field("failed", stats.failed);
  field("detected", stats.detected);
  field("corrected", stats.corrected);
  field("corrections", stats.corrections);
  field("panel_detections", stats.panel_detections);
  field("block_recomputes", stats.block_recomputes);
  field("full_recomputes", stats.full_recomputes);
  field("retries", stats.retries);
  field("tmr_escalations", stats.tmr_escalations);
  field("faults_armed", stats.faults_armed);
  field("faults_fired", stats.faults_fired);
  field("batches", stats.batches);
  field("batched_requests", stats.batched_requests);
  field("max_batch", stats.max_batch);
  field("opcache_hits", stats.opcache_hits);
  field("opcache_misses", stats.opcache_misses);
  field("opcache_registered", stats.opcache_registered);
  field("opcache_evictions", stats.opcache_evictions);
  field("opcache_invalidations", stats.opcache_invalidations);
  field("opcache_bytes", stats.opcache_bytes);
  field("opcache_pinned_bytes", stats.opcache_pinned_bytes);
  out << "  \"latency_ns\": {\n";
  append_recorder(out, "queue_wait", stats.queue_wait_ns, false);
  append_recorder(out, "service", stats.service_ns, false);
  append_recorder(out, "e2e", stats.e2e_ns, true);
  out << "  }\n}\n";
  return out.str();
}

}  // namespace aabft::serve
