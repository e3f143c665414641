#include "linalg/matmul.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/require.hpp"
#include "gpusim/fault_site.hpp"
#include "gpusim/hazard.hpp"

namespace aabft::linalg {

using gpusim::FaultSite;

namespace {

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) noexcept {
  return (a + b - 1) / b;
}

/// i + 1 wrapped to [0, n): steps a module coordinate without a division.
constexpr std::size_t wrap_next(std::size_t i, std::size_t n) noexcept {
  return i + 1 < n ? i + 1 : 0;
}

}  // namespace

Matrix blocked_matmul(gpusim::Launcher& launcher, const Matrix& a,
                      const Matrix& b, const GemmConfig& config) {
  AABFT_REQUIRE(config.valid(), "invalid GEMM configuration");
  AABFT_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  const std::size_t m = a.rows();
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.cols();
  const std::size_t bm = config.bm;
  const std::size_t bn = config.bn;
  const std::size_t bk = config.bk;
  const std::size_t rx = config.rx;
  const std::size_t ry = config.ry;

  Matrix c(m, n, 0.0);

  const gpusim::Dim3 grid{ceil_div(n, bn), ceil_div(m, bm), 1};

  launcher.launch("gemm", grid, [&](gpusim::BlockCtx& blk) {
    auto& math = blk.math;
    const std::size_t row0 = blk.block.y * bm;
    const std::size_t col0 = blk.block.x * bn;

    // Per-thread register tiles for the whole block, laid out as the BM x BN
    // accumulator grid. Element (i, j) belongs to thread (i/rx, j/ry) and is
    // that thread's module (i%rx)*ry + (j%ry).
    std::vector<double> accum(bm * bn, 0.0);
    gpusim::SharedArray<double> sm_a(blk, bm * bk, "sm_a");  // A tile
    gpusim::SharedArray<double> sm_b(blk, bk * bn, "sm_b");  // B tile

    // Hazard model: the block's logical threads are the (bm/rx) x (bn/ry)
    // register-tile owners; thread of C element (i, j) is
    // (i/rx)*(bn/ry) + j/ry. Tile staging is strided over all threads
    // (element e loaded by thread e % T), as in the CUDA kernel.
    const std::size_t thread_cols = bn / ry;
    const int num_threads = static_cast<int>((bm / rx) * thread_cols);
    blk.hazard.set_thread_count(num_threads);

    const std::size_t num_panels = ceil_div(k_dim, bk);
    for (std::size_t panel = 0; panel < num_panels; ++panel) {
      const std::size_t kbase = panel * bk;

      // Stage the A and B tiles through "shared memory". Full interior tiles
      // copy whole contiguous source rows; ragged edges keep the per-element
      // zero-padding of the padded CUDA kernel.
      if (row0 + bm <= m && kbase + bk <= k_dim) {
        for (std::size_t i = 0; i < bm; ++i)
          std::copy_n(a.data() + (row0 + i) * k_dim + kbase, bk,
                      sm_a.data() + i * bk);
      } else {
        for (std::size_t i = 0; i < bm; ++i) {
          const std::size_t gr = row0 + i;
          for (std::size_t kk = 0; kk < bk; ++kk) {
            const std::size_t gk = kbase + kk;
            sm_a[i * bk + kk] = (gr < m && gk < k_dim) ? a(gr, gk) : 0.0;
          }
        }
      }
      if (kbase + bk <= k_dim && col0 + bn <= n) {
        for (std::size_t kk = 0; kk < bk; ++kk)
          std::copy_n(b.data() + (kbase + kk) * n + col0, bn,
                      sm_b.data() + kk * bn);
      } else {
        for (std::size_t kk = 0; kk < bk; ++kk) {
          const std::size_t gk = kbase + kk;
          for (std::size_t j = 0; j < bn; ++j) {
            const std::size_t gc = col0 + j;
            sm_b[kk * bn + j] = (gk < k_dim && gc < n) ? b(gk, gc) : 0.0;
          }
        }
      }
      math.load_doubles(bm * bk + bk * bn);

      if (blk.hazard.enabled()) {
        // Attribute the staging writes (thread e % T wrote tile element e),
        // then the post-load __syncthreads of the CUDA kernel.
        for (std::size_t e = 0; e < bm * bk; ++e)
          sm_a.note_write(static_cast<int>(e % static_cast<std::size_t>(
                              num_threads)),
                          e);
        for (std::size_t e = 0; e < bk * bn; ++e)
          sm_b.note_write(static_cast<int>(e % static_cast<std::size_t>(
                              num_threads)),
                          e);
        blk.hazard.sync_threads();
      }

      // K-loop: every thread multiplies its rA/rB registers and accumulates.
      const std::size_t k_count = std::min(bk, k_dim - kbase);
      panel_step(math, config, sm_a.data(), sm_b.data(), accum.data(), kbase,
                 k_count);

      if (blk.hazard.enabled()) {
        // Attribute the compute-phase reads: C element (i, j)'s owner reads
        // sm_a[i*bk + kk] and sm_b[kk*bn + j] for every kk — i.e. each A-tile
        // cell is read by the bn/ry threads of its row group, each B-tile
        // cell by the bm/rx threads of its column group. Then the pre-restage
        // __syncthreads.
        for (std::size_t i = 0; i < bm; ++i) {
          const int trow = static_cast<int>((i / rx) * thread_cols);
          for (std::size_t kk = 0; kk < k_count; ++kk)
            for (std::size_t tc = 0; tc < thread_cols; ++tc)
              sm_a.note_read(trow + static_cast<int>(tc), i * bk + kk);
        }
        for (std::size_t kk = 0; kk < k_count; ++kk) {
          for (std::size_t j = 0; j < bn; ++j) {
            const int tcol = static_cast<int>(j / ry);
            for (std::size_t tr = 0; tr < bm / rx; ++tr)
              sm_b.note_read(static_cast<int>(tr * thread_cols) + tcol,
                             kk * bn + j);
          }
        }
        blk.hazard.sync_threads();
      }
    }

    // Final merge: accumulators are summed into the (zero-initialised) C
    // tile — the paper's "Final Sum Addition" site.
    const std::size_t h = row0 < m ? std::min(bm, m - row0) : 0;
    const std::size_t w = col0 < n ? std::min(bn, n - col0) : 0;
    merge_tile(math, config, accum.data(), c.data() + row0 * n + col0, n, h, w);
  });

  return c;
}

void panel_step(gpusim::MathCtx& math, const GemmConfig& tile,
                const double* sm_a, const double* sm_b, double* accum,
                std::size_t kbase, std::size_t k_count) {
  const std::size_t bm = tile.bm;
  const std::size_t bn = tile.bn;
  const std::size_t bk = tile.bk;
  const std::size_t rx = tile.rx;
  const std::size_t ry = tile.ry;
  // Fault fence over module rows r_lo..r_hi and this panel's K range.
  const auto fence = [&](std::size_t r_lo, std::size_t r_hi) {
    return math.needs_instrumented(
        FaultSite::kInnerMul, FaultSite::kInnerAdd, static_cast<int>(r_lo * ry),
        static_cast<int>(r_hi * ry + ry - 1), static_cast<std::int64_t>(kbase),
        static_cast<std::int64_t>(kbase + k_count - 1));
  };
  // Almost always no armed fault can hit the panel.
  if (!fence(0, rx - 1)) {
    math.accumulate_panel(sm_a, sm_b, accum, bm, bn, bk, k_count,
                          tile.use_fma);
    return;
  }
  // Hot panel: rows no pending fault can hit take the helper; hot rows run
  // per op in the kernel's kk-outer, row, column order, which decides the op
  // a one-shot fault whose module recurs across the tile hits first.
  std::vector<char> hot(rx);
  for (std::size_t r = 0; r < rx; ++r) hot[r] = fence(r, r);
  for (std::size_t i = 0; i < bm; ++i)
    if (!hot[i % rx])
      math.accumulate_panel(sm_a + i * bk, sm_b, accum + i * bn, 1, bn, bk,
                            k_count, tile.use_fma);
  for (std::size_t kk = 0; kk < k_count; ++kk) {
    const auto k_global = static_cast<std::int64_t>(kbase + kk);
    for (std::size_t i = 0, r = 0; i < bm; ++i, r = wrap_next(r, rx)) {
      if (!hot[r]) continue;
      const double av = sm_a[i * bk + kk];
      for (std::size_t j = 0, q = 0; j < bn; ++j, q = wrap_next(q, ry)) {
        const auto module = static_cast<int>(r * ry + q);
        const double bv = sm_b[kk * bn + j];
        double& acc = accum[i * bn + j];
        if (tile.use_fma) {
          acc = math.faulty_fma(av, bv, acc, FaultSite::kInnerAdd, module,
                                k_global);
        } else {
          const double prod =
              math.faulty_mul(av, bv, FaultSite::kInnerMul, module, k_global);
          acc = math.faulty_add(acc, prod, FaultSite::kInnerAdd, module,
                                k_global);
        }
      }
    }
  }
}

void merge_tile(gpusim::MathCtx& math, const GemmConfig& tile,
                const double* accum, double* c, std::size_t ldc,
                std::size_t h, std::size_t w) {
  // Final-add faults fire at k = 0, so one fence covers the whole merge.
  if (!math.needs_instrumented(FaultSite::kFinalAdd, FaultSite::kFinalAdd, 0,
                               static_cast<int>(tile.rx * tile.ry) - 1, 0, 0)) {
    for (std::size_t i = 0; i < h; ++i)
      math.add_rows(c + i * ldc, accum + i * tile.bn, w);
  } else {
    for (std::size_t i = 0, r = 0; i < h; ++i, r = wrap_next(r, tile.rx)) {
      for (std::size_t j = 0, q = 0; j < w; ++j, q = wrap_next(q, tile.ry)) {
        const auto module = static_cast<int>(r * tile.ry + q);
        c[i * ldc + j] = math.faulty_add(c[i * ldc + j], accum[i * tile.bn + j],
                                         FaultSite::kFinalAdd, module, 0);
      }
    }
  }
  math.store_doubles(h * w);
}

Matrix pairwise_matmul(gpusim::Launcher& launcher, const Matrix& a,
                       const Matrix& b, std::size_t tile) {
  AABFT_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  AABFT_REQUIRE(tile > 0, "tile must be positive");
  const std::size_t m = a.rows();
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.cols();
  Matrix c(m, n, 0.0);

  const gpusim::Dim3 grid{ceil_div(n, tile), ceil_div(m, tile), 1};
  launcher.launch("gemm_pairwise", grid, [&](gpusim::BlockCtx& blk) {
    auto& math = blk.math;
    const std::size_t row0 = blk.block.y * tile;
    const std::size_t col0 = blk.block.x * tile;
    const std::size_t h = std::min(tile, m - row0);
    const std::size_t w = std::min(tile, n - col0);
    math.load_doubles(h * k_dim + k_dim * w);

    // No injectable sites here (see the header comment), so the raw
    // bulk-counted loop is always safe unless the force-instrumented A/B
    // switch demands the per-op reference path.
    const bool instrumented = gpusim::force_instrumented();
    std::vector<double> scratch(k_dim);
    for (std::size_t i = 0; i < h; ++i) {
      for (std::size_t j = 0; j < w; ++j) {
        if (instrumented) {
          for (std::size_t k = 0; k < k_dim; ++k)
            scratch[k] = math.mul(a(row0 + i, k), b(k, col0 + j));
        } else {
          const double* a_row = a.data() + (row0 + i) * k_dim;
          for (std::size_t k = 0; k < k_dim; ++k)
            scratch[k] = math.canonical(a_row[k] * b(k, col0 + j));
          math.count_muls(k_dim);
        }
        // Pairwise tree reduction: O(log n) error growth instead of O(n),
        // and a genuinely different rounding sequence.
        std::size_t len = k_dim;
        while (len > 1) {
          const std::size_t half = len / 2;
          if (instrumented) {
            for (std::size_t k = 0; k < half; ++k)
              scratch[k] = math.add(scratch[2 * k], scratch[2 * k + 1]);
          } else {
            for (std::size_t k = 0; k < half; ++k)
              scratch[k] = math.canonical(scratch[2 * k] + scratch[2 * k + 1]);
            math.count_adds(half);
          }
          if (len % 2 != 0) {
            scratch[half] = scratch[len - 1];
            len = half + 1;
          } else {
            len = half;
          }
        }
        c(row0 + i, col0 + j) = scratch[0];
      }
    }
    math.store_doubles(h * w);
  });
  return c;
}

Matrix naive_matmul(const Matrix& a, const Matrix& b, bool use_fma) {
  AABFT_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  const std::size_t m = a.rows();
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.cols();
  Matrix c(m, n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      if (use_fma) {
        for (std::size_t k = 0; k < k_dim; ++k) s = std::fma(a(i, k), b(k, j), s);
      } else {
        for (std::size_t k = 0; k < k_dim; ++k) s += a(i, k) * b(k, j);
      }
      // Final merge into the zero-initialised C, matching the kernel.
      c(i, j) = c(i, j) + s;
    }
  }
  return c;
}

}  // namespace aabft::linalg
