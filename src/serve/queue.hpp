// Bounded MPMC request queue with priority classes and batch pops.
//
// Admission pushes from any number of client threads; the dispatcher takes
// each cross-request batch with one pop_batch: the highest-priority head
// (FIFO within a class) plus the requests already queued with the head's
// batch key. The bound is the backpressure mechanism: a full queue rejects
// at admission instead of growing without limit.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <deque>
#include <future>
#include <optional>
#include <vector>

#include "core/require.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "serve/opcache/opcache.hpp"
#include "serve/request.hpp"

namespace aabft::serve {

/// A queued request: the operands (padded for GEMM) plus everything needed
/// to fulfil the caller's future later. Move-only (owns a promise).
struct PendingRequest {
  GemmRequest request;  ///< GEMM operands already padded to block multiples
  /// The operation this request runs — for GEMM, the *padded* problem shape
  /// (single-operand kinds keep original extents; engines pad internally).
  baselines::OpDescriptor desc;
  std::size_t orig_m = 0;  ///< pre-padding result extents, for unpadding
  std::size_t orig_q = 0;
  std::uint64_t est_flops = 0;  ///< the admission backlog-model charge
  /// Resolved operand-cache handle (explicit or from an implicit fingerprint
  /// hit; 0 = cold). Part of the batch key so requests sharing one cached A
  /// coalesce.
  std::uint64_t a_handle = 0;
  /// The pinned cache entry backing a_handle. Acquired at admission — not at
  /// dispatch — so the entry cannot be evicted while this request waits in
  /// the queue; released with the request.
  opcache::OperandCache::Pin pin;
  std::promise<GemmResponse> promise;
  RequestTrace trace;  ///< enqueue_ns / queue_depth filled at admission
};

/// Batch-compatibility key: op kind + padded result extents + inner
/// dimension. Two requests with equal keys run through identical compute
/// pipelines (for GEMM, identical kernel grids) and can share one dispatch.
struct ShapeKey {
  baselines::OpKind kind = baselines::OpKind::kGemm;
  std::size_t m = 0;
  std::size_t k = 0;
  std::size_t q = 0;
  /// Resolved operand-cache handle (0 = cold). Keying on it batches the
  /// requests that share one cached A together.
  std::uint64_t a_handle = 0;
  [[nodiscard]] bool operator==(const ShapeKey&) const noexcept = default;
};

[[nodiscard]] inline ShapeKey shape_of(const PendingRequest& item) noexcept {
  return {item.desc.kind, item.desc.m, item.desc.k, item.desc.q,
          item.a_handle};
}

class BoundedRequestQueue {
 public:
  explicit BoundedRequestQueue(std::size_t capacity) : capacity_(capacity) {
    AABFT_REQUIRE(capacity >= 1, "queue capacity must be at least 1");
  }

  /// Admit an item. Returns the queue depth right after insertion (i.e.
  /// including the item) or nullopt when the queue is full or closed.
  std::optional<std::size_t> try_push(PendingRequest&& item)
      AABFT_EXCLUDES(mu_) {
    std::size_t depth_after = 0;
    {
      core::MutexLock lk(mu_);
      if (closed_ || size_ >= capacity_) return std::nullopt;
      buckets_[static_cast<std::size_t>(item.request.priority)].push_back(
          std::move(item));
      depth_after = ++size_;
    }
    cv_.notify_one();
    return depth_after;
  }

  /// Block until a request is queued or the queue is closed *and* drained
  /// (empty batch). The batch is the head, highest priority class first and
  /// FIFO within a class, plus up to max_batch - 1 further requests already
  /// queued with the head's ShapeKey, taken in the same order; requests of
  /// other keys stay queued. It never waits for companions: the dispatcher
  /// serves each batch to completion before it pops again, so while it
  /// waited every pool worker would idle.
  std::vector<PendingRequest> pop_batch(std::size_t max_batch)
      AABFT_EXCLUDES(mu_) {
    std::vector<PendingRequest> batch;
    core::UniqueLock lk(mu_);
    while (size_ == 0 && !closed_) cv_.wait(lk);
    std::optional<ShapeKey> key;  // the head's, once taken
    for (auto& bucket : buckets_)
      for (auto it = bucket.begin();
           it != bucket.end() && (batch.empty() || batch.size() < max_batch);) {
        if (!key) key = shape_of(*it);
        if (shape_of(*it) != *key) {
          ++it;
          continue;
        }
        batch.push_back(std::move(*it));
        it = bucket.erase(it);
      }
    size_ -= batch.size();
    return batch;
  }

  /// Block up to `timeout` for the queue to become nonempty. True when an
  /// item is available on return. The dispatcher polls here rather than
  /// block in pop_batch: it re-checks its pause gate once per timeout, and a
  /// blocking pop measured slower (see GemmServer::dispatch_loop).
  bool wait_nonempty_for(std::chrono::microseconds timeout)
      AABFT_EXCLUDES(mu_) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    core::UniqueLock lk(mu_);
    while (size_ == 0 && !closed_)
      if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) break;
    return size_ > 0;
  }

  /// Refuse further pushes; pop_batch() drains the remainder and then
  /// returns empty batches forever.
  void close() AABFT_EXCLUDES(mu_) {
    {
      core::MutexLock lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const AABFT_EXCLUDES(mu_) {
    core::MutexLock lk(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t depth() const AABFT_EXCLUDES(mu_) {
    core::MutexLock lk(mu_);
    return size_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  mutable core::Mutex mu_{core::LockRank::kServeQueue, "serve.queue"};
  core::CondVar cv_;
  std::array<std::deque<PendingRequest>, kNumPriorities> buckets_
      AABFT_GUARDED_BY(mu_);
  std::size_t capacity_;
  std::size_t size_ AABFT_GUARDED_BY(mu_) = 0;
  bool closed_ AABFT_GUARDED_BY(mu_) = false;
};

}  // namespace aabft::serve
