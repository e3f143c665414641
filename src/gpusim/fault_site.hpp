// Instruction-level fault injection for simulated kernels (paper Alg. 3).
//
// The paper extends its GEMM kernel so that a fault-injection routine can
// flip bits in the output of a single floating-point instruction, selected
// by: the streaming multiprocessor executing it, the operation kind (inner-
// loop multiplication, inner-loop addition, or the final merge addition),
// the module id (which of the RX*RY per-thread result slots), and the point
// in time `kInjection`. FaultController reproduces exactly that interface.
//
// The paper's campaigns inject one fault per multiplication; as an
// extension, the controller can also be armed with several faults at once
// (each one-shot) to study multi-error behaviour of the partitioned scheme.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <string>

#include "core/require.hpp"

namespace aabft::gpusim {

/// The three floating-point operation classes Algorithm 3 can target.
enum class FaultSite : std::uint8_t {
  kInnerMul,   ///< rA * rB inside the K loop
  kInnerAdd,   ///< accumulation inside the K loop
  kFinalAdd,   ///< merge of per-thread accumulators into C
};

[[nodiscard]] inline std::string to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kInnerMul: return "inner-loop multiplication";
    case FaultSite::kInnerAdd: return "inner-loop addition";
    case FaultSite::kFinalAdd: return "final sum addition";
  }
  return "?";
}

/// Static description of one fault to inject.
struct FaultConfig {
  FaultSite site = FaultSite::kInnerMul;
  int sm_id = 0;                  ///< virtual SM that must execute the op
  int module_id = 0;              ///< which RX*RY result slot within a thread
  std::int64_t k_injection = 0;   ///< sequence index (K-loop step) to fire at
  std::uint64_t error_vec = 0;    ///< XOR mask applied to the op result
};

/// Arms one or more faults; each fires at most once. Thread-safe: when
/// several blocks race on the same (site, sm, module, k) coordinates,
/// exactly one injection happens per armed fault — matching the paper's
/// single-fault-per-multiplication experiments (and extending them to
/// multi-fault campaigns). `armed_`/`count_` are atomics so that worker
/// threads may call maybe_inject()/may_fire() concurrently with a host-side
/// disarm(); re-arming still requires that no kernel is in flight (the
/// configs themselves are not seqlocked).
class FaultController {
 public:
  static constexpr std::size_t kMaxFaults = 8;

  FaultController() = default;

  /// Arm a single fault (the paper's mode).
  void arm(const FaultConfig& config) { arm_many({&config, 1}); }

  /// Arm up to kMaxFaults simultaneous one-shot faults.
  void arm_many(std::span<const FaultConfig> configs) {
    AABFT_REQUIRE(configs.size() >= 1 && configs.size() <= kMaxFaults,
                  "between 1 and kMaxFaults faults can be armed");
    for (std::size_t i = 0; i < configs.size(); ++i) {
      configs_[i] = configs[i];
      fired_[i].store(false, std::memory_order_relaxed);
    }
    count_.store(configs.size(), std::memory_order_release);
    armed_.store(true, std::memory_order_release);
  }

  void disarm() noexcept { armed_.store(false, std::memory_order_release); }

  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_acquire);
  }

  /// Whether any armed fault has fired.
  [[nodiscard]] bool fired() const noexcept { return fired_count() > 0; }

  [[nodiscard]] std::size_t fired_count() const noexcept {
    const std::size_t count = count_.load(std::memory_order_acquire);
    std::size_t n = 0;
    for (std::size_t i = 0; i < count; ++i)
      if (fired_[i].load(std::memory_order_relaxed)) ++n;
    return n;
  }

  [[nodiscard]] std::size_t armed_count() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

  /// Fault fence: can any armed-and-unfired fault fire inside the region
  /// [site_lo..site_hi] x {sm_id} x [module_lo..module_hi] x [k_lo..k_hi]?
  /// Kernels query this once per block / K-panel / module row and take a raw
  /// (uninstrumented, bulk-counted) fast path on a negative answer. A
  /// negative answer is stable for the rest of the launch: every armed fault
  /// either misses the region on static coordinates (which cannot change) or
  /// has already fired (one-shot, can never refire).
  [[nodiscard]] bool may_fire(FaultSite site_lo, FaultSite site_hi, int sm_id,
                              int module_lo, int module_hi, std::int64_t k_lo,
                              std::int64_t k_hi) const noexcept {
    if (!armed_.load(std::memory_order_acquire)) return false;
    const std::size_t count = count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
      if (fired_[i].load(std::memory_order_acquire)) continue;
      const FaultConfig& cfg = configs_[i];
      if (cfg.site < site_lo || cfg.site > site_hi) continue;
      if (cfg.sm_id != sm_id) continue;
      if (cfg.module_id < module_lo || cfg.module_id > module_hi) continue;
      if (cfg.k_injection < k_lo || cfg.k_injection > k_hi) continue;
      return true;
    }
    return false;
  }

  /// First armed fault (the paper's single-fault accessors).
  [[nodiscard]] const FaultConfig& config() const noexcept { return configs_[0]; }

  /// Value observed at the moment of injection (pre-XOR) of fault `i`, for
  /// experiment bookkeeping. Only meaningful once that fault fired.
  [[nodiscard]] double original_value(std::size_t i = 0) const noexcept {
    return original_values_[i];
  }
  [[nodiscard]] double faulty_value(std::size_t i = 0) const noexcept {
    return faulty_values_[i];
  }

  /// Called by MathCtx for every injectable operation. Returns the possibly
  /// corrupted value. When several armed faults match the same instruction,
  /// their masks compose (XOR is associative). With `single_precision` the
  /// low 32 bits of error_vec are XORed into the value's *binary32* pattern
  /// (the value is float-representable in that mode).
  [[nodiscard]] double maybe_inject(FaultSite site, int sm_id, int module_id,
                                    std::int64_t k, double value,
                                    bool single_precision = false) noexcept {
    if (!armed_.load(std::memory_order_acquire)) return value;
    const std::size_t count = count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
      const FaultConfig& cfg = configs_[i];
      if (site != cfg.site || sm_id != cfg.sm_id ||
          module_id != cfg.module_id || k != cfg.k_injection)
        continue;
      bool expected = false;
      if (!fired_[i].compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel))
        continue;  // this fault was already consumed
      original_values_[i] = value;
      if (single_precision) {
        const std::uint32_t bits =
            std::bit_cast<std::uint32_t>(static_cast<float>(value)) ^
            static_cast<std::uint32_t>(cfg.error_vec);
        value = static_cast<double>(std::bit_cast<float>(bits));
      } else {
        const std::uint64_t bits =
            std::bit_cast<std::uint64_t>(value) ^ cfg.error_vec;
        value = std::bit_cast<double>(bits);
      }
      faulty_values_[i] = value;
    }
    return value;
  }

 private:
  std::array<FaultConfig, kMaxFaults> configs_{};
  std::atomic<std::size_t> count_{0};
  std::atomic<bool> armed_{false};
  std::array<std::atomic<bool>, kMaxFaults> fired_{};
  std::array<double, kMaxFaults> original_values_{};
  std::array<double, kMaxFaults> faulty_values_{};
};

// ---- per-thread fault-controller override ----------------------------------
//
// A launcher-attached controller is global to every launch, which is wrong
// for a *serving* workload: concurrent requests sharing one Launcher each
// need their own fault lifecycle (arm -> protected multiply -> read fired
// counts -> disarm) without racing on set_fault_controller(). The override
// below is consulted by the Launcher at launch-initiation time and takes
// precedence over the attached controller for work started by this thread:
// synchronous launch() calls, and async enqueues (which snapshot it into
// their launch environment, like every other launch parameter; a host
// function enqueued with launch_host_async runs under the snapshot). Worker
// threads executing blocks of such a launch see the snapshotted controller,
// not their own thread's override.

namespace detail {
inline thread_local FaultController* t_thread_faults = nullptr;
}  // namespace detail

[[nodiscard]] inline FaultController* thread_fault_controller() noexcept {
  return detail::t_thread_faults;
}

/// RAII scope installing `faults` as this thread's fault-controller override
/// (with nullptr the launcher-attached controller applies again). Restores
/// the previous override on destruction, so scopes nest.
class ScopedFaultController {
 public:
  explicit ScopedFaultController(FaultController* faults) noexcept
      : previous_(detail::t_thread_faults) {
    detail::t_thread_faults = faults;
  }
  ~ScopedFaultController() { detail::t_thread_faults = previous_; }
  ScopedFaultController(const ScopedFaultController&) = delete;
  ScopedFaultController& operator=(const ScopedFaultController&) = delete;

 private:
  FaultController* previous_;
};

}  // namespace aabft::gpusim
