#include "gpusim/profile_report.hpp"

#include <map>

#include "core/table.hpp"
#include "gpusim/perf_model.hpp"

namespace aabft::gpusim {

std::vector<KernelProfile> profile_launch_log(
    const DeviceSpec& device, const std::vector<LaunchStats>& log) {
  std::vector<KernelProfile> profiles;
  std::map<std::string, std::size_t> index;
  for (const auto& entry : log) {
    auto [it, inserted] = index.try_emplace(entry.kernel_name, profiles.size());
    if (inserted) {
      KernelProfile fresh;
      fresh.name = entry.kernel_name;
      profiles.push_back(fresh);
    }
    KernelProfile& p = profiles[it->second];
    ++p.launches;
    p.blocks += entry.blocks;
    p.counters += entry.counters;
    p.modelled_seconds +=
        kernel_seconds(device, entry.counters,
                       profile_of(classify_kernel(entry.kernel_name)));
  }
  return profiles;
}

std::string format_profile(const std::vector<KernelProfile>& profiles) {
  double total = 0.0;
  for (const auto& p : profiles) total += p.modelled_seconds;

  TablePrinter table({"kernel", "launches", "blocks", "flops", "bytes",
                      "model ms", "share"});
  for (const auto& p : profiles) {
    table.add_row({p.name, std::to_string(p.launches),
                   std::to_string(p.blocks),
                   std::to_string(p.counters.flops()),
                   std::to_string(p.counters.bytes()),
                   TablePrinter::fixed(p.modelled_seconds * 1e3, 3),
                   total > 0.0 ? TablePrinter::fixed(
                                     100.0 * p.modelled_seconds / total, 1) +
                                     "%"
                               : "-"});
  }
  std::ostringstream os;
  table.print(os);
  return os.str();
}

}  // namespace aabft::gpusim
