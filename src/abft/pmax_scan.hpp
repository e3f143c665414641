// Standalone p-max collection kernels (no checksum encoding), and the one
// p-max candidate reduction every collector shares.
//
// The fused encode kernels (encoder.hpp) collect p-max lists for *encoded*
// matrices as Algorithm 1 prescribes. Some consumers need the same
// information for plain, unencoded operands — e.g. the diverse-kernel TMR
// baseline, which has no checksums but still needs per-element rounding
// bounds, and the rounding-analysis by-product API. These kernels run the
// identical block-wise scan-and-zero search followed by the global
// reduction, minus the checksum arithmetic.
#pragma once

#include <cstddef>
#include <vector>

#include "abft/pmax.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matrix.hpp"

namespace aabft::abft {

/// Merge per-chunk candidate lists (`chunks` consecutive lists per vector)
/// into one p-max list per vector, as one kernel launch named `name`. Each
/// caller keeps its own reduce_pmax_* name, so the launch log tells the
/// reductions apart and Table I's pricing (gpusim::classify_kernel) matches
/// the prefix; the paper overlaps this low-utilisation launch with the GEMM.
[[nodiscard]] PMaxTable reduce_pmax(gpusim::Launcher& launcher,
                                    const char* name,
                                    const std::vector<PMaxList>& candidates,
                                    std::size_t vectors, std::size_t chunks,
                                    std::size_t p);

/// p largest absolute values (plus indices) of every row of `m`.
[[nodiscard]] PMaxTable collect_row_pmax(gpusim::Launcher& launcher,
                                         const linalg::Matrix& m,
                                         std::size_t p,
                                         std::size_t chunk = 32);

/// p largest absolute values (plus indices) of every column of `m`.
[[nodiscard]] PMaxTable collect_col_pmax(gpusim::Launcher& launcher,
                                         const linalg::Matrix& m,
                                         std::size_t p,
                                         std::size_t chunk = 32);

}  // namespace aabft::abft
