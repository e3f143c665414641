#include "abft/pmax_scan.hpp"

#include <cmath>
#include <vector>

#include "core/require.hpp"

namespace aabft::abft {

using gpusim::BlockCtx;
using gpusim::Dim3;
using linalg::Matrix;

PMaxTable reduce_pmax(gpusim::Launcher& launcher, const char* name,
                      const std::vector<PMaxList>& candidates,
                      std::size_t vectors, std::size_t chunks, std::size_t p) {
  PMaxTable table(vectors, PMaxList(p));
  launcher.launch(name, Dim3{vectors, 1, 1}, [&](BlockCtx& blk) {
    const std::size_t v = blk.block.x;
    PMaxList merged(p);
    std::size_t comparisons = 0;
    for (std::size_t c = 0; c < chunks; ++c)
      comparisons += merged.merge(candidates[v * chunks + c]);
    blk.math.count_compares(comparisons);
    blk.math.load_doubles(chunks * p * 2);  // candidate values + indices
    blk.math.store_doubles(p * 2);
    table[v] = std::move(merged);
  });
  return table;
}

PMaxTable collect_row_pmax(gpusim::Launcher& launcher, const Matrix& m,
                           std::size_t p, std::size_t chunk) {
  AABFT_REQUIRE(p >= 1 && chunk >= 1, "p and chunk must be positive");
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  const std::size_t chunks = (cols + chunk - 1) / chunk;
  std::vector<PMaxList> candidates(rows * chunks, PMaxList(p));

  launcher.launch("pmax_rows", Dim3{chunks, rows, 1}, [&](BlockCtx& blk) {
    auto& math = blk.math;
    const std::size_t r = blk.block.y;
    const std::size_t col0 = blk.block.x * chunk;
    const std::size_t width = std::min(chunk, cols - col0);
    math.load_doubles(width);
    PMaxList& list = candidates[r * chunks + blk.block.x];
    std::size_t comparisons = 0;
    for (std::size_t c = 0; c < width; ++c)
      comparisons += list.offer(std::fabs(m(r, col0 + c)), col0 + c);
    math.count_compares(comparisons);
    math.store_doubles(p * 2);
  });

  return reduce_pmax(launcher, "reduce_pmax_rows", candidates, rows, chunks, p);
}

PMaxTable collect_col_pmax(gpusim::Launcher& launcher, const Matrix& m,
                           std::size_t p, std::size_t chunk) {
  AABFT_REQUIRE(p >= 1 && chunk >= 1, "p and chunk must be positive");
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  const std::size_t chunks = (rows + chunk - 1) / chunk;
  std::vector<PMaxList> candidates(cols * chunks, PMaxList(p));

  launcher.launch("pmax_cols", Dim3{cols, chunks, 1}, [&](BlockCtx& blk) {
    auto& math = blk.math;
    const std::size_t c = blk.block.x;
    const std::size_t row0 = blk.block.y * chunk;
    const std::size_t height = std::min(chunk, rows - row0);
    math.load_doubles(height);
    PMaxList& list = candidates[c * chunks + blk.block.y];
    std::size_t comparisons = 0;
    for (std::size_t r = 0; r < height; ++r)
      comparisons += list.offer(std::fabs(m(row0 + r, c)), row0 + r);
    math.count_compares(comparisons);
    math.store_doubles(p * 2);
  });

  return reduce_pmax(launcher, "reduce_pmax_cols", candidates, cols, chunks, p);
}

}  // namespace aabft::abft
