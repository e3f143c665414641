// Work stealing between shard queues. Each shard's feeder thread pops from
// its own deque FIFO (front — preserves per-shard arrival order); when its
// own deque is empty it steals from the *back* of the deepest sibling
// (LIFO-steal: the freshest request moves, which is the one whose operands
// are most likely still warm and whose shape affinity matters least).
// A sibling whose owner is parked in pop() is never a victim: that owner is
// idle and already woken by the push, so stealing would only move the job
// off the shard the router chose (and off a sick device its health model is
// watching). Once an owner takes a job and work remains queued, it wakes the
// parked siblings so they can steal the rest of the burst.
//
// One mutex + one condition variable cover all N deques: pushes are rare
// relative to compute (requests are whole protected BLAS-3 operations, not
// micro-tasks), so the shared lock is nowhere near contended and keeps the
// steal decision (scan every depth, pick the max) atomic with the take.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/require.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"

namespace aabft::fleet {

template <typename T>
class ShardQueues {
 public:
  ShardQueues(std::size_t shards, std::size_t capacity_per_shard)
      : capacity_(capacity_per_shard), queues_(shards), parked_(shards, 0) {
    AABFT_REQUIRE(shards >= 1, "ShardQueues: need at least one shard");
    AABFT_REQUIRE(capacity_per_shard >= 1,
                  "ShardQueues: capacity must be at least 1");
  }

  /// Enqueue onto `shard`. False when that shard's queue is full or the
  /// queues are closed (caller turns this into a kOverloaded refusal).
  bool try_push(std::size_t shard, T&& item) AABFT_EXCLUDES(mu_) {
    {
      core::MutexLock lk(mu_);
      if (closed_ || queues_[shard].size() >= capacity_) return false;
      queues_[shard].push_back(std::move(item));
    }
    cv_.notify_all();
    return true;
  }

  struct Popped {
    T item;
    bool stolen = false;  ///< came from a sibling's queue, not `shard`'s own
  };

  /// Dequeue for `shard`: own queue front first; if empty and `allow_steal`,
  /// the back of the deepest sibling whose owner is not parked in pop().
  /// Blocks up to `timeout` for work; nullopt on timeout, or when closed with
  /// nothing this caller may take.
  std::optional<Popped> pop(std::size_t shard,
                            std::chrono::microseconds timeout,
                            bool allow_steal = true) AABFT_EXCLUDES(mu_) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    core::UniqueLock lk(mu_);
    ++parked_[shard];
    while (!closed_ && takeable(shard, allow_steal) == queues_.size())
      if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) break;
    --parked_[shard];
    const std::size_t source = takeable(shard, allow_steal);
    if (source == queues_.size())
      return std::nullopt;  // timeout, or closed and drained

    Popped out{std::move(source == shard ? queues_[source].front()
                                         : queues_[source].back()),
               source != shard};
    if (source == shard)
      queues_[source].pop_front();
    else
      queues_[source].pop_back();
    if (out.stolen) ++steals_;
    const bool burst_left = !out.stolen && !queues_[shard].empty();
    lk.unlock();
    if (burst_left) cv_.notify_all();  // this owner is busy now: siblings steal
    return out;
  }

  /// Refuse further pushes. pop() keeps draining what is queued, then
  /// returns nullopt forever.
  void close() AABFT_EXCLUDES(mu_) {
    {
      core::MutexLock lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Remove and return everything queued on `shard` (the fence path: the
  /// caller re-routes these to surviving shards).
  std::vector<T> drain_shard(std::size_t shard) AABFT_EXCLUDES(mu_) {
    std::vector<T> out;
    core::MutexLock lk(mu_);
    out.reserve(queues_[shard].size());
    while (!queues_[shard].empty()) {
      out.push_back(std::move(queues_[shard].front()));
      queues_[shard].pop_front();
    }
    return out;
  }

  [[nodiscard]] std::size_t depth(std::size_t shard) const
      AABFT_EXCLUDES(mu_) {
    core::MutexLock lk(mu_);
    return queues_[shard].size();
  }
  [[nodiscard]] std::size_t total_depth() const AABFT_EXCLUDES(mu_) {
    core::MutexLock lk(mu_);
    std::size_t total = 0;
    for (const auto& q : queues_) total += q.size();
    return total;
  }
  [[nodiscard]] std::uint64_t steals() const AABFT_EXCLUDES(mu_) {
    core::MutexLock lk(mu_);
    return steals_;
  }
  /// True while a caller is blocked in pop(`shard`) waiting for work.
  [[nodiscard]] bool parked(std::size_t shard) const AABFT_EXCLUDES(mu_) {
    core::MutexLock lk(mu_);
    return parked_[shard] > 0;
  }
  [[nodiscard]] bool closed() const AABFT_EXCLUDES(mu_) {
    core::MutexLock lk(mu_);
    return closed_;
  }
  [[nodiscard]] std::size_t shards() const noexcept { return queues_.size(); }

 private:
  /// Source queue pop() should take from: `shard`'s own queue first, else
  /// (when stealing) the deepest sibling without a parked owner;
  /// queues_.size() = nothing to take.
  [[nodiscard]] std::size_t takeable(std::size_t shard, bool allow_steal) const
      AABFT_REQUIRES(mu_) {
    if (!queues_[shard].empty()) return shard;
    if (allow_steal) {
      std::size_t victim = shard, depth = 0;
      for (std::size_t s = 0; s < queues_.size(); ++s)
        if (s != shard && parked_[s] == 0 && queues_[s].size() > depth) {
          victim = s;
          depth = queues_[s].size();
        }
      if (victim != shard) return victim;
    }
    return queues_.size();  // sentinel: nothing to take
  }

  mutable core::Mutex mu_{core::LockRank::kFleetQueues, "fleet.queues"};
  core::CondVar cv_;
  const std::size_t capacity_;
  std::vector<std::deque<T>> queues_ AABFT_GUARDED_BY(mu_);
  /// Callers blocked in pop() per shard; their queues are not stolen from.
  std::vector<std::size_t> parked_ AABFT_GUARDED_BY(mu_);
  std::uint64_t steals_ AABFT_GUARDED_BY(mu_) = 0;
  bool closed_ AABFT_GUARDED_BY(mu_) = false;
};

}  // namespace aabft::fleet
