// Protected product chains: C = A_1 * A_2 * ... * A_k with every
// intermediate multiplication under A-ABFT protection.
//
// Long chains are where silent data corruption hurts most — an undetected
// error in an early product contaminates everything downstream. Each link
// runs through the protected multiplier (detection, localisation,
// correction, recompute fallback) and the chain aggregates the outcome.
#pragma once

#include <cstddef>
#include <vector>

#include "abft/aabft.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matrix.hpp"

namespace aabft::abft {

struct ChainResult {
  linalg::Matrix c;                 ///< the final product
  std::size_t multiplies = 0;       ///< protected links executed
  std::size_t faults_detected = 0;  ///< links that flagged an error
  std::size_t panel_recomputes = 0; ///< fused tile replays (ladder rung 0)
  std::size_t corrections = 0;
  std::size_t recomputations = 0;
  bool ok = true;                   ///< every link ended recheck-clean
};

/// Evaluate the chain left to right. Requires at least one matrix and
/// conforming shapes; inner dimensions may be arbitrary (padding is applied
/// per link as needed).
[[nodiscard]] ChainResult multiply_chain(
    gpusim::Launcher& launcher,
    const std::vector<const linalg::Matrix*>& chain,
    const AabftConfig& config = {});

}  // namespace aabft::abft
