// Analytic Kepler timing model.
//
// Table I of the paper reports GFLOPS measured on a Tesla K20C. Without the
// hardware, absolute numbers are unreproducible; what can be reproduced is
// the *shape* of the comparison, because it is determined by how much work of
// which kind each scheme performs. The simulator counts exactly that work
// (flops, comparisons and logical memory traffic per kernel launch), and this
// model prices the counts with a roofline-style estimate:
//
//   t_kernel = launch_overhead + max( ops / (peak * eff_c), bytes / (bw * eff_m) )
//
// with per-kernel-class efficiencies:
//
//   * GEMM kernels approach a large fraction of peak, but only once the
//     matrix is big enough to fill the machine. The saturation is modelled
//     in the problem extent n_eff = cbrt(flops/2): calibrated against
//     cuBLAS-like behaviour (~43 % of peak at n = 512, ~87 % at n = 8192,
//     matching the paper's 1048 GFLOPS unprotected peak).
//   * Encode/check/vote kernels are bandwidth-bound streaming passes whose
//     scalar bookkeeping (checksum adds, p-max scans, epsilon evaluation)
//     runs at a tiny fraction of peak — BS x 1 thread blocks with serialized
//     scans cannot exploit the wide SIMD datapath.
//   * Norm / reduction kernels ("only a small fraction of the available GPU
//     threads", Section VI-A) are the slowest class: one thread per vector
//     with uncoalesced strided accesses.
#pragma once

#include <cstdint>
#include <string_view>

#include "gpusim/device.hpp"
#include "gpusim/perf_counters.hpp"

namespace aabft::gpusim {

/// Utilisation profile of a kernel class on the modelled device.
struct EfficiencyProfile {
  /// Fraction of peak DP flop rate the kernel class reaches asymptotically.
  double compute_fraction = 0.9;
  /// Fraction of peak memory bandwidth the kernel's access pattern achieves.
  double mem_efficiency = 0.8;
  /// If positive: saturation half-point in effective matrix extent
  /// n_eff = cbrt(flops / 2) — the GEMM fill-the-machine curve. Zero
  /// disables saturation (fixed compute_fraction).
  double half_extent = 0.0;
};

/// Dense register-blocked GEMM (Algorithm 3 / cuBLAS-like). The counted
/// loads are the *staged* tile loads (arithmetic intensity ~4 flops/byte for
/// 32x32 tiles); on the device most of them hit L2/texture cache, so the
/// effective bandwidth for this class exceeds DRAM — without it, the model
/// would cap DGEMM at ~660 GFLOPS instead of the measured ~1050.
[[nodiscard]] inline EfficiencyProfile gemm_profile() {
  return {.compute_fraction = 0.93, .mem_efficiency = 2.0, .half_extent = 600.0};
}

/// Streaming passes: checksum encode, check, TMR vote.
[[nodiscard]] inline EfficiencyProfile streaming_profile() {
  return {.compute_fraction = 0.01, .mem_efficiency = 0.5, .half_extent = 0.0};
}

/// Low-utilisation reductions: SEA's row/column norms, the p-max global
/// reduction.
[[nodiscard]] inline EfficiencyProfile reduction_profile() {
  return {.compute_fraction = 0.002, .mem_efficiency = 0.04, .half_extent = 0.0};
}

/// Cost class of a kernel, chosen by its launch name. Table I's pricing
/// (baselines::price_launch_log) and its size projection
/// (baselines::project_log) both classify through classify_kernel.
enum class KernelClass : std::uint8_t {
  kGemm,           ///< gemm*: the O(n^3) product (classic, fused, pairwise)
  kPmaxReduction,  ///< reduce_pmax*: runs in parallel to the GEMM (V-A)
  kReduction,      ///< row_norms, col_norms and the pmax_* scans
  kStreaming,      ///< everything else: encode, check, vote, GEMV
};

[[nodiscard]] KernelClass classify_kernel(std::string_view name) noexcept;

/// The efficiency profile a kernel class is priced with.
[[nodiscard]] EfficiencyProfile profile_of(KernelClass kind);

/// Estimated execution time in seconds of one kernel launch. Comparisons are
/// charged like flops (they occupy the same issue slots).
[[nodiscard]] double kernel_seconds(const DeviceSpec& device,
                                    const PerfCounters& counters,
                                    const EfficiencyProfile& profile);

/// GFLOPS of `useful_flops` worth of payload work completed in `seconds`.
[[nodiscard]] double gflops(std::uint64_t useful_flops, double seconds);

}  // namespace aabft::gpusim
