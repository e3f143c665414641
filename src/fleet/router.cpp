#include "fleet/router.hpp"

#include "core/require.hpp"

namespace aabft::fleet {

std::optional<std::size_t> ShardRouter::route(
    const serve::ShapeKey& key, const std::vector<ShardLoad>& loads,
    const std::vector<double>& availability) {
  AABFT_REQUIRE(loads.size() == availability.size() && !loads.empty(),
                "ShardRouter: loads/availability size mismatch");

  std::optional<std::size_t> best;
  double best_load = 0.0;
  for (std::size_t s = 0; s < loads.size(); ++s) {
    if (availability[s] < config_.availability_floor) continue;
    const double load = effective_load(loads[s], availability[s]);
    if (!best || load < best_load) {
      best = s;
      best_load = load;
    }
  }
  if (!best) return std::nullopt;  // every device fenced or near-dead

  core::MutexLock lk(mu_);
  auto it = affinity_.find(key);
  if (it != affinity_.end()) {
    const std::size_t affine = it->second;
    if (affine < loads.size() &&
        availability[affine] >= config_.availability_floor &&
        effective_load(loads[affine], availability[affine]) <=
            config_.affinity_slack * best_load) {
      return affine;  // stay put: queued requests of this shape can batch
    }
  }
  affinity_[key] = *best;
  return best;
}

void ShardRouter::forget_shard(std::size_t shard) {
  core::MutexLock lk(mu_);
  for (auto it = affinity_.begin(); it != affinity_.end();) {
    if (it->second == shard)
      it = affinity_.erase(it);
    else
      ++it;
  }
}

}  // namespace aabft::fleet
