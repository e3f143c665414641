#include "baselines/scheme_timing.hpp"

namespace aabft::baselines {

SchemeTiming price_launch_log(const gpusim::DeviceSpec& device,
                              const std::vector<gpusim::LaunchStats>& log) {
  SchemeTiming timing;
  for (const auto& entry : log) {
    const gpusim::KernelClass kind = gpusim::classify_kernel(entry.kernel_name);
    const double seconds = gpusim::kernel_seconds(device, entry.counters,
                                                  gpusim::profile_of(kind));
    if (kind == gpusim::KernelClass::kGemm)
      timing.gemm_seconds += seconds;
    else if (kind == gpusim::KernelClass::kPmaxReduction)
      timing.overlapped_seconds += seconds;
    else
      timing.overhead_seconds += seconds;
  }
  return timing;
}

}  // namespace aabft::baselines
