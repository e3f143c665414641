#include "gpusim/math_ctx.hpp"

namespace aabft::gpusim {

namespace {

// Register tile of the panel micro-kernel (DESIGN.md §4.9): its 16 doubles
// fit eight SSE2 registers beside the broadcast A value and the B row.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 4;

/// One multiply-accumulate, rounded exactly like MathCtx's per-op fma or
/// mul-then-add (to binary32 after each op when kSingle).
template <bool kSingle, bool kFma>
[[nodiscard]] inline double mac(double a, double b, double acc) noexcept {
  if constexpr (kFma && kSingle)
    return std::fmaf(static_cast<float>(a), static_cast<float>(b),
                     static_cast<float>(acc));
  else if constexpr (kFma)
    return std::fma(a, b, acc);
  else if constexpr (kSingle)
    return static_cast<float>(acc + static_cast<float>(a * b));
  else
    return acc + a * b;
}

/// An R x C block of the accumulator tile (row stride ld), held in registers
/// across the panel's k_count steps; A rows have stride bk, B rows stride ld.
/// The pragmas make -O2 unroll fully, which keeps t out of memory.
template <bool kSingle, bool kFma, std::size_t R, std::size_t C>
void micro_tile(const double* __restrict a, const double* __restrict b,
                double* __restrict acc, std::size_t ld, std::size_t bk,
                std::size_t k_count) noexcept {
  double t[R][C];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (std::size_t c = 0; c < C; ++c) t[r][c] = acc[r * ld + c];
  for (std::size_t kk = 0; kk < k_count; ++kk) {
    const double* __restrict b_row = b + kk * ld;
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      const double av = a[r * bk + kk];
#pragma GCC unroll 4
      for (std::size_t c = 0; c < C; ++c)
        t[r][c] = mac<kSingle, kFma>(av, b_row[c], t[r][c]);
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (std::size_t c = 0; c < C; ++c) acc[r * ld + c] = t[r][c];
}

/// R rows of the panel: whole register tiles, then one column at a time.
template <bool kSingle, bool kFma, std::size_t R>
void row_strip(const double* a, const double* b, double* acc,
               std::size_t cols, std::size_t bk, std::size_t k_count) noexcept {
  std::size_t j = 0;
  for (; j + kTileCols <= cols; j += kTileCols)
    micro_tile<kSingle, kFma, R, kTileCols>(a, b + j, acc + j, cols, bk,
                                            k_count);
  for (; j < cols; ++j)
    micro_tile<kSingle, kFma, R, 1>(a, b + j, acc + j, cols, bk, k_count);
}

template <bool kSingle, bool kFma>
void panel(const double* a, const double* b, double* acc, std::size_t rows,
           std::size_t cols, std::size_t bk, std::size_t k_count) noexcept {
  std::size_t i = 0;
  for (; i + kTileRows <= rows; i += kTileRows)
    row_strip<kSingle, kFma, kTileRows>(a + i * bk, b, acc + i * cols, cols,
                                        bk, k_count);
  for (; i < rows; ++i)
    row_strip<kSingle, kFma, 1>(a + i * bk, b, acc + i * cols, cols, bk,
                                k_count);
}

}  // namespace

void MathCtx::accumulate_panel(const double* a, const double* b, double* acc,
                               std::size_t rows, std::size_t cols,
                               std::size_t bk, std::size_t k_count,
                               bool use_fma) noexcept {
  const std::uint64_t ops = rows * cols * k_count;
  const bool single = precision_ == Precision::kSingle;
  if (use_fma) {
    counters_.fmas += ops;
    (single ? panel<true, true> : panel<false, true>)(a, b, acc, rows, cols,
                                                      bk, k_count);
  } else {
    counters_.muls += ops;
    counters_.adds += ops;
    (single ? panel<true, false> : panel<false, false>)(a, b, acc, rows, cols,
                                                        bk, k_count);
  }
}

}  // namespace aabft::gpusim
