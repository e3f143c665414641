#include "gpusim/perf_model.hpp"

#include <algorithm>
#include <cmath>

#include "core/require.hpp"

namespace aabft::gpusim {

KernelClass classify_kernel(std::string_view name) noexcept {
  if (name.starts_with("gemm")) return KernelClass::kGemm;
  if (name.starts_with("reduce_pmax")) return KernelClass::kPmaxReduction;
  if (name == "row_norms" || name == "col_norms" || name.starts_with("pmax_"))
    return KernelClass::kReduction;
  return KernelClass::kStreaming;
}

EfficiencyProfile profile_of(KernelClass kind) {
  switch (kind) {
    case KernelClass::kGemm:
      return gemm_profile();
    case KernelClass::kPmaxReduction:
    case KernelClass::kReduction:
      return reduction_profile();
    case KernelClass::kStreaming:
      break;
  }
  return streaming_profile();
}

double kernel_seconds(const DeviceSpec& device, const PerfCounters& counters,
                      const EfficiencyProfile& profile) {
  AABFT_REQUIRE(profile.compute_fraction > 0 && profile.mem_efficiency > 0,
                "efficiency profile must be positive");
  const double ops =
      static_cast<double>(counters.flops() + counters.compares);
  const double bytes = static_cast<double>(counters.bytes());

  double fraction = profile.compute_fraction;
  if (profile.half_extent > 0.0 && ops > 0.0) {
    const double extent = std::cbrt(ops / 2.0);
    fraction *= extent / (extent + profile.half_extent);
  }

  const double peak_flops_per_s = device.peak_dp_gflops * 1e9;
  const double bw_bytes_per_s = device.mem_bandwidth_gbs * 1e9;

  const double compute_s = ops / (peak_flops_per_s * fraction);
  const double memory_s = bytes / (bw_bytes_per_s * profile.mem_efficiency);

  return device.kernel_launch_us * 1e-6 + std::max(compute_s, memory_s);
}

double gflops(std::uint64_t useful_flops, double seconds) {
  AABFT_REQUIRE(seconds > 0, "elapsed time must be positive");
  return static_cast<double>(useful_flops) / seconds / 1e9;
}

}  // namespace aabft::gpusim
