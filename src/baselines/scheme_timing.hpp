// Scheme-level timing composition for the Table I reproduction.
//
// Each scheme's pipeline is executed on the simulator, which logs every
// kernel launch with exact op/byte counts. This module prices the log with
// the analytic Kepler model (gpusim/perf_model), assigning each kernel its
// utilisation class by name and applying the paper's overlap: the global
// p-max reduction "is executed in parallel to the matrix multiplication
// kernel" (Section V-A), so its time is hidden behind the GEMM.
#pragma once

#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/perf_model.hpp"

namespace aabft::baselines {

struct SchemeTiming {
  double gemm_seconds = 0.0;        ///< product kernel(s)
  double overlapped_seconds = 0.0;  ///< kernels hidden behind the GEMM
  double overhead_seconds = 0.0;    ///< encode / check / norm / vote kernels

  [[nodiscard]] double total_seconds() const noexcept {
    return overhead_seconds + std::max(gemm_seconds, overlapped_seconds);
  }
};

/// Price a launch log, each kernel with the profile of its
/// gpusim::classify_kernel class: gemm* kernels add to gemm_seconds,
/// reduce_pmax_* kernels to overlapped_seconds and every other kernel
/// (encode, check, vote; SEA's norms and the p-max scans at the reduction
/// profile) to overhead_seconds.
[[nodiscard]] SchemeTiming price_launch_log(
    const gpusim::DeviceSpec& device,
    const std::vector<gpusim::LaunchStats>& log);

}  // namespace aabft::baselines
