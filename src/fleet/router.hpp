// Shard router: places an admitted request on a device by load and health.
//
// Pure placement logic — the FleetServer feeds it per-shard load snapshots
// (queue depth, in-flight count, backlog flops) and availability scores from
// the health model, and gets back a shard index. Effective load is
// occupancy divided by availability, so a degraded device has to be much
// emptier than a healthy one before it wins; fenced devices (availability
// under the floor) are never placed on. Shape affinity keeps a stream of
// same-shaped requests on the shard that served the shape last (so those
// that queue behind its busy dispatcher leave in one pop_batch) unless that
// shard is meaningfully more loaded than the best candidate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "serve/queue.hpp"

namespace aabft::fleet {

struct ShapeKeyHash {
  [[nodiscard]] std::size_t operator()(
      const serve::ShapeKey& key) const noexcept {
    std::size_t h = static_cast<std::size_t>(key.kind);
    for (std::size_t part :
         {key.m, key.k, key.q, static_cast<std::size_t>(key.a_handle)})
      h = h * 1000003u + part;  // FNV-style mix; keys are tiny
    return h;
  }
};

struct ShardLoad {
  std::size_t queued = 0;    ///< requests in the shard's fleet queue
  std::size_t inflight = 0;  ///< dispatched, response not yet collected
  double backlog_flops = 0;  ///< admission backlog on the shard's server
};

struct RouterConfig {
  /// Shards with availability below this are never routed to.
  double availability_floor = 0.05;
  /// Shape affinity holds while the affine shard's effective load is within
  /// this factor of the best shard's.
  double affinity_slack = 1.5;
  /// Backlog flops are folded into occupancy at this scale (flops per unit
  /// of queue depth — roughly one mid-sized protected GEMM).
  double flops_per_slot = 64.0 * 1024 * 1024;
};

class ShardRouter {
 public:
  explicit ShardRouter(RouterConfig config = {}) : config_(config) {}

  /// Pick a shard for `key`, or nullopt when every shard is below the
  /// availability floor (fleet-wide outage). Thread-safe.
  [[nodiscard]] std::optional<std::size_t> route(
      const serve::ShapeKey& key, const std::vector<ShardLoad>& loads,
      const std::vector<double>& availability) AABFT_EXCLUDES(mu_);

  /// Drop any shape affinities pinned to `shard` (called on fence so new
  /// same-shaped traffic immediately re-homes).
  void forget_shard(std::size_t shard) AABFT_EXCLUDES(mu_);

  [[nodiscard]] const RouterConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] double effective_load(const ShardLoad& load,
                                      double avail) const noexcept {
    const double occupancy = 1.0 + static_cast<double>(load.queued) +
                             static_cast<double>(load.inflight) +
                             load.backlog_flops / config_.flops_per_slot;
    return occupancy / avail;
  }

  const RouterConfig config_;
  core::Mutex mu_{core::LockRank::kFleetRouter, "fleet.router"};
  std::unordered_map<serve::ShapeKey, std::size_t, ShapeKeyHash> affinity_
      AABFT_GUARDED_BY(mu_);
};

}  // namespace aabft::fleet
