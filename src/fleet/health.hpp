// Per-device health model. Each served response feeds one Observation
// (corrections, TMR escalations, retries, outright failures — the telemetry
// the recovery ladder already produces per request) into EWMA rate trackers;
// the trackers fold into an availability score in [0,1] that the shard
// router divides load by. A device whose correction rate spikes — the
// A-ABFT signature of real hardware going bad, as opposed to the background
// rate the checksums absorb silently — crosses the fence thresholds and is
// quarantined (latched; there is no un-fence short of restarting the fleet).
#pragma once

#include <atomic>
#include <cstdint>

namespace aabft::fleet {

/// One served response, reduced to what health tracking needs. Decoupled
/// from serve::GemmResponse so the model is testable without a server.
struct Observation {
  bool ok = true;            ///< ladder settled with a trustworthy result
  bool corrected = false;    ///< A-ABFT corrected at least one element
  bool tmr_escalated = false;
  std::uint64_t retries = 0;
};

struct HealthConfig {
  /// EWMA smoothing factor per observation (higher = faster reaction).
  double alpha = 0.08;
  /// Observations before rates are trusted (a single early fault on a
  /// near-empty window would otherwise read as a 100% correction rate).
  std::uint64_t min_observations = 16;
  /// Availability below this marks the device degraded (the router
  /// deprioritises it).
  double degrade_score = 0.75;
  /// EWMA correction rate above this fences the device outright.
  double fence_correction_rate = 0.5;
  /// EWMA failure (ladder-exhausted) rate above this fences the device.
  double fence_failure_rate = 0.25;
  // Penalty weights: availability = clamp01(1 - sum(weight * rate)).
  double correction_weight = 0.8;
  double failure_weight = 2.0;
  double tmr_weight = 0.5;
  double retry_weight = 0.25;
};

enum class HealthState { kHealthy, kDegraded, kFenced };

[[nodiscard]] const char* to_string(HealthState state) noexcept;

/// Single-writer (the shard's collector thread calls observe()), many-reader
/// (router and aggregator read availability/state through atomics).
class DeviceHealth {
 public:
  explicit DeviceHealth(HealthConfig config = {}) : config_(config) {}

  void observe(const Observation& obs) noexcept;

  /// Quarantine immediately regardless of rates (forced failure, operator
  /// action). Latched.
  void force_fence() noexcept {
    state_.store(static_cast<int>(HealthState::kFenced),
                 std::memory_order_release);
    availability_.store(0.0, std::memory_order_release);
  }

  /// Score in [0,1]; 0 once fenced. The router divides shard load by this.
  [[nodiscard]] double availability() const noexcept {
    return availability_.load(std::memory_order_acquire);
  }
  [[nodiscard]] HealthState state() const noexcept {
    return static_cast<HealthState>(state_.load(std::memory_order_acquire));
  }
  [[nodiscard]] bool fenced() const noexcept {
    return state() == HealthState::kFenced;
  }

  [[nodiscard]] std::uint64_t observations() const noexcept {
    return observations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double correction_rate() const noexcept {
    return correction_rate_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double failure_rate() const noexcept {
    return failure_rate_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const HealthConfig& config() const noexcept { return config_; }

 private:
  const HealthConfig config_;
  // Written only by observe()/force_fence(); atomics make the cross-thread
  // reads clean without a lock on the submit path.
  std::atomic<double> availability_{1.0};
  std::atomic<double> correction_rate_{0.0};
  std::atomic<double> failure_rate_{0.0};
  std::atomic<double> tmr_rate_{0.0};
  std::atomic<double> retry_rate_{0.0};
  std::atomic<std::uint64_t> observations_{0};
  std::atomic<int> state_{static_cast<int>(HealthState::kHealthy)};
};

}  // namespace aabft::fleet
