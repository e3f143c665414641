// Fleet-level telemetry: per-shard snapshots (the shard's GemmServer stats,
// its health-model rates, and the fleet-layer placement counters) plus fleet
// totals folded together with serve::merge_into. All of it serialises to one
// JSON document with a per-shard array — the "per-shard ServerStats" view a
// fleet operator polls mid-run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/latency.hpp"
#include "fleet/health.hpp"
#include "serve/telemetry.hpp"

namespace aabft::fleet {

struct ShardStats {
  std::size_t shard = 0;
  std::string device;  ///< the launcher's device name
  serve::ServerStats server;

  // Health-model snapshot.
  HealthState state = HealthState::kHealthy;
  double availability = 1.0;
  double correction_rate = 0.0;
  double failure_rate = 0.0;
  std::uint64_t observations = 0;

  // Fleet-layer placement and recovery counters for this shard.
  std::uint64_t routed = 0;    ///< requests admitted to this shard
  std::uint64_t replayed = 0;  ///< responses re-run elsewhere on its behalf
  std::size_t queued = 0;      ///< shard server's queue depth at snapshot
  std::size_t inflight = 0;    ///< admitted, not yet collected (incl. queued)

  /// Submit -> fleet response latency for requests *collected* by this shard
  /// (includes any replay time).
  LatencyRecorder fleet_e2e_ns;
};

struct FleetStats {
  std::vector<ShardStats> shards;
  /// Every shard's ServerStats merged (exact: counters add, histograms
  /// merge).
  serve::ServerStats totals;
  std::uint64_t submitted = 0;  ///< fleet-level submissions
  std::uint64_t rejected = 0;   ///< refused submits (fleet or shard admission)
  /// Always 0: requests go straight to the routed shard's server and are
  /// never moved between shards. Kept because the repository benchmark's
  /// fleet workload reports it as `fleet.steal_frac`.
  std::uint64_t steals = 0;
  std::uint64_t replays = 0;
  std::uint64_t reconstructions = 0;  ///< parity rebuilds in the operand store
  /// register_operand calls answered with an existing handle by content
  /// fingerprint (the operand store's dedup path).
  std::uint64_t operand_dedups = 0;
  std::size_t fenced_devices = 0;
};

[[nodiscard]] std::string to_json(const FleetStats& stats);

}  // namespace aabft::fleet
