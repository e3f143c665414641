// Detection bookkeeping for fault-injection campaigns.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "abft/classify.hpp"
#include "core/require.hpp"

namespace aabft::inject {

/// Per-scheme detection counts, split by the ground-truth error class of the
/// corrupted element.
struct SchemeDetectionStats {
  std::size_t critical = 0;            ///< injected critical errors
  std::size_t detected_critical = 0;   ///< ... of which the scheme flagged
  std::size_t tolerable = 0;
  std::size_t detected_tolerable = 0;
  std::size_t rounding_noise = 0;
  std::size_t detected_rounding = 0;   ///< flagging noise == false positive

  void record(abft::ErrorClass cls, bool detected) noexcept {
    switch (cls) {
      case abft::ErrorClass::kCritical:
        ++critical;
        if (detected) ++detected_critical;
        break;
      case abft::ErrorClass::kTolerable:
        ++tolerable;
        if (detected) ++detected_tolerable;
        break;
      case abft::ErrorClass::kRoundingNoise:
        ++rounding_noise;
        if (detected) ++detected_rounding;
        break;
    }
  }

  /// Percentage of critical errors detected — the Figure 4 metric.
  [[nodiscard]] double detection_rate() const {
    AABFT_REQUIRE(critical > 0, "no critical errors recorded");
    return 100.0 * static_cast<double>(detected_critical) /
           static_cast<double>(critical);
  }

  [[nodiscard]] bool has_critical() const noexcept { return critical > 0; }
};

/// Detection record of one scheme across a campaign.
struct SchemeDetection {
  std::string scheme;  ///< ProtectedBlas3::name() key
  SchemeDetectionStats stats;
  std::size_t false_positive_runs = 0;  ///< clean-run mis-detections
};

struct CampaignResult {
  std::size_t trials = 0;
  std::size_t fired = 0;    ///< injections that actually hit an instruction
  std::size_t masked = 0;   ///< fired but no result element changed
  /// One entry per scheme that can check an external product, in
  /// make_schemes order (fixed-abft, a-abft, sea-abft by default).
  std::vector<SchemeDetection> schemes;

  /// Lookup by scheme name; throws std::logic_error when absent.
  [[nodiscard]] const SchemeDetection& scheme(std::string_view name) const {
    for (const auto& entry : schemes)
      if (entry.scheme == name) return entry;
    throw std::logic_error("campaign has no scheme named '" +
                           std::string(name) + "'");
  }

  [[nodiscard]] const SchemeDetectionStats& aabft() const {
    return scheme("a-abft").stats;
  }
  [[nodiscard]] const SchemeDetectionStats& sea() const {
    return scheme("sea-abft").stats;
  }
  [[nodiscard]] std::size_t aabft_false_positive_runs() const {
    return scheme("a-abft").false_positive_runs;
  }
  [[nodiscard]] std::size_t sea_false_positive_runs() const {
    return scheme("sea-abft").false_positive_runs;
  }
};

}  // namespace aabft::inject
