// Block-based GEMM on the SIMT execution model — the paper's Algorithm 3.
//
// Each thread block computes a BM x BN tile of C; each thread within the
// block owns an RX x RY register tile of accumulators ("modules" in the
// paper's fault-injection vocabulary); the K dimension is consumed in BK-wide
// panels staged through shared memory. Three floating-point operation sites
// exist, matching Algorithm 3's injection points:
//
//   inner-loop multiplication :  rA * rB
//   inner-loop addition       :  accum += product
//   final sum addition        :  merge of accum into C
//
// With `use_fma` the two inner ops fuse into one FMA (Section IV-D), which
// halves the rounding-error sources — the bound model accounts for that.
//
// Per-op fault/counter instrumentation is fenced: each K-panel first asks
// FaultController::may_fire whether an armed fault can intersect it, and on a
// negative answer runs the bit-identical register-tiled panel helper with
// bulk counter updates (DESIGN.md §4.9). gpusim::set_force_instrumented(true)
// restores the unconditional per-op path for A/B testing.
#pragma once

#include <cstddef>

#include "gpusim/kernel.hpp"
#include "linalg/matrix.hpp"

namespace aabft::linalg {

struct GemmConfig {
  std::size_t bm = 32;   ///< C-tile rows per block
  std::size_t bn = 32;   ///< C-tile columns per block
  std::size_t bk = 8;    ///< K-panel depth staged through shared memory
  std::size_t rx = 4;    ///< per-thread register tile rows
  std::size_t ry = 4;    ///< per-thread register tile columns
  bool use_fma = false;  ///< fuse inner mul+add into FMA

  [[nodiscard]] bool valid() const noexcept {
    return bm > 0 && bn > 0 && bk > 0 && rx > 0 && ry > 0 && bm % rx == 0 &&
           bn % ry == 0;
  }
};

/// C = A * B executed as simulated thread blocks on `launcher`. Handles
/// arbitrary (non-multiple) dimensions via zero padding of shared tiles,
/// like the padded kernels of the paper. Fault injection (if a controller is
/// attached to the launcher) targets the three Algorithm 3 sites.
[[nodiscard]] Matrix blocked_matmul(gpusim::Launcher& launcher, const Matrix& a,
                                    const Matrix& b, const GemmConfig& config = {});

/// One K panel of Algorithm 3's inner loop, shared by blocked_matmul and
/// abft::fused_encode_matmul: accumulates the staged sm_a (bm x bk) times
/// sm_b (bk x bn) into accum (bm x bn) over the panel's first k_count steps,
/// from global k = kbase. Element (i, j) is module (i % rx) * ry + j % ry,
/// for any bm and bn. Module rows an armed fault can hit run per op in
/// kk-outer, row, column order, the others MathCtx::accumulate_panel.
void panel_step(gpusim::MathCtx& math, const GemmConfig& tile,
                const double* sm_a, const double* sm_b, double* accum,
                std::size_t kbase, std::size_t k_count);

/// Algorithm 3's final sum addition, shared likewise: merges the top-left
/// h x w of accum (row stride bn) into the zero-initialised C block at c
/// (row stride ldc), fenced like panel_step; counts the h * w stores.
void merge_tile(gpusim::MathCtx& math, const GemmConfig& tile,
                const double* accum, double* c, std::size_t ldc,
                std::size_t h, std::size_t w);

/// Reference host implementation with the same per-element accumulation
/// order (ascending k); produces bitwise-identical results to
/// blocked_matmul in the fault-free case — a key test invariant.
[[nodiscard]] Matrix naive_matmul(const Matrix& a, const Matrix& b,
                                  bool use_fma = false);

/// C = A * B with *pairwise (tree) accumulation* per element — a deliberately
/// different execution path and rounding behaviour than blocked_matmul. The
/// paper notes that realistic TMR "would prefer to use three different
/// kernels with different implementations to ensure different execution
/// paths", which "causes different rounding errors ... which makes the
/// direct comparison of the results impossible"; this kernel provides that
/// diversity for the diverse-TMR baseline. Not a fault-injection target.
[[nodiscard]] Matrix pairwise_matmul(gpusim::Launcher& launcher,
                                     const Matrix& a, const Matrix& b,
                                     std::size_t tile = 32);

}  // namespace aabft::linalg
