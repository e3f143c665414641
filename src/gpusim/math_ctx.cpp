#include "gpusim/math_ctx.hpp"

#include <algorithm>
#include <cstring>

namespace aabft::gpusim {

namespace {

// One column pair per SSE2 register, and the same pair rounded to binary32.
// GCC/Clang generic vectors: plain C++ operators compile to mulpd/addpd, and
// -ffp-contract=off keeps a * b + c unfused.
using f64x2 = double __attribute__((vector_size(16)));
using f32x2 = float __attribute__((vector_size(8)));

// Register tile of the panel micro-kernel (DESIGN.md §4.9): 4 rows of two
// column pairs, 8 accumulator registers beside the broadcast A value and the
// two B pairs of the current k step.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 4;

// K steps whose A values a row strip broadcasts into column pairs at once
// (4 KB of stack for a 4-row strip): every tile of the strip then loads its
// broadcasts instead of shuffling them again.
constexpr std::size_t kPackSteps = 64;

/// The first `lanes` (1 or 2) doubles at p as a column pair; a missing high
/// lane reads zero.
[[nodiscard]] inline f64x2 load_pair(const double* p,
                                     std::size_t lanes) noexcept {
  f64x2 v{};
  if (lanes == 2)
    std::memcpy(&v, p, sizeof v);
  else
    v[0] = *p;
  return v;
}

inline void store_pair(double* p, f64x2 v, std::size_t lanes) noexcept {
  if (lanes == 2)
    std::memcpy(p, &v, sizeof v);
  else
    *p = v[0];
}

[[nodiscard]] inline f64x2 round_binary32(f64x2 x) noexcept {
  return __builtin_convertvector(__builtin_convertvector(x, f32x2), f64x2);
}

/// One multiply-accumulate on each of the first `lanes` lanes, rounded
/// exactly like MathCtx's per-op fma or mul-then-add (to binary32 after each
/// op when kSingle).
template <bool kSingle, bool kFma>
[[nodiscard]] inline f64x2 mac(f64x2 a, f64x2 b, f64x2 acc,
                               std::size_t lanes) noexcept {
  if constexpr (kFma) {
    for (std::size_t l = 0; l < lanes; ++l) {
      if constexpr (kSingle)
        acc[l] = std::fmaf(static_cast<float>(a[l]), static_cast<float>(b[l]),
                           static_cast<float>(acc[l]));
      else
        acc[l] = std::fma(a[l], b[l], acc[l]);
    }
    return acc;
  } else if constexpr (kSingle) {
    return round_binary32(acc + round_binary32(a * b));
  } else {
    return acc + a * b;
  }
}

/// The A values of a row strip, broadcast into a column pair per k step:
/// read in place (rows of stride bk) ...
struct StridedA {
  const double* a;
  std::size_t bk;
  [[nodiscard]] f64x2 operator()(std::size_t r, std::size_t kk) const noexcept {
    const double x = a[r * bk + kk];
    return f64x2{x, x};
  }
};

/// ... or from pairs broadcast beforehand, k-major.
template <std::size_t R>
struct PackedA {
  const f64x2* ap;
  [[nodiscard]] f64x2 operator()(std::size_t r, std::size_t kk) const noexcept {
    return ap[kk * R + r];
  }
};

/// An R x C block of the accumulator tile (row stride ld), held in registers
/// as column pairs across k_count steps; a gives the broadcast A values, b
/// the B rows (stride ld). Each k step updates every pair with one vector
/// mac per row, so each lane keeps its element's ascending-k chain. An odd C
/// leaves the last pair's high lane zero and never stores it. The pragmas
/// make -O2 unroll fully, which keeps t out of memory and makes every lane
/// count a constant.
template <bool kSingle, bool kFma, std::size_t R, std::size_t C, class A>
void tile(const A& a, const double* __restrict b, double* __restrict acc,
          std::size_t ld, std::size_t k_count) noexcept {
  constexpr std::size_t P = (C + 1) / 2;
  const auto lanes = [](std::size_t p) { return 2 * p + 1 < C ? 2 : 1; };
  f64x2 t[R][P];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 8
    for (std::size_t p = 0; p < P; ++p)
      t[r][p] = load_pair(acc + r * ld + 2 * p, lanes(p));
  for (std::size_t kk = 0; kk < k_count; ++kk) {
    f64x2 bv[P];
#pragma GCC unroll 8
    for (std::size_t p = 0; p < P; ++p)
      bv[p] = load_pair(b + kk * ld + 2 * p, lanes(p));
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const f64x2 av = a(r, kk);
#pragma GCC unroll 8
      for (std::size_t p = 0; p < P; ++p)
        t[r][p] = mac<kSingle, kFma>(av, bv[p], t[r][p], lanes(p));
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 8
    for (std::size_t p = 0; p < P; ++p)
      store_pair(acc + r * ld + 2 * p, t[r][p], lanes(p));
}

/// The tiles of an R-row strip: whole register tiles, then the column tail
/// as pairs and a last single column.
template <bool kSingle, bool kFma, std::size_t R, class A>
void strip_tiles(const A& a, const double* b, double* acc, std::size_t cols,
                 std::size_t k_count) noexcept {
  std::size_t j = 0;
  for (; j + kTileCols <= cols; j += kTileCols)
    tile<kSingle, kFma, R, kTileCols>(a, b + j, acc + j, cols, k_count);
  for (; j + 2 <= cols; j += 2)
    tile<kSingle, kFma, R, 2>(a, b + j, acc + j, cols, k_count);
  if (j < cols) tile<kSingle, kFma, R, 1>(a, b + j, acc + j, cols, k_count);
}

/// R rows of the panel (A rows of stride bk). A strip of one tile (a dot
/// product, a narrow panel) reads A in place; a wider one broadcasts its A
/// values kPackSteps k steps at a time, which every tile then loads. Every
/// element still sees its k steps in ascending order.
template <bool kSingle, bool kFma, std::size_t R>
void row_strip(const double* a, const double* b, double* acc,
               std::size_t cols, std::size_t bk, std::size_t k_count) noexcept {
  if (cols <= kTileCols) {
    strip_tiles<kSingle, kFma, R>(StridedA{a, bk}, b, acc, cols, k_count);
    return;
  }
  f64x2 ap[kPackSteps * R];
  for (std::size_t k0 = 0; k0 < k_count; k0 += kPackSteps) {
    const std::size_t steps = std::min(kPackSteps, k_count - k0);
    for (std::size_t kk = 0; kk < steps; ++kk)
      for (std::size_t r = 0; r < R; ++r) {
        const double ar = a[r * bk + k0 + kk];
        ap[kk * R + r] = f64x2{ar, ar};
      }
    strip_tiles<kSingle, kFma, R>(PackedA<R>{ap}, b + k0 * cols, acc, cols,
                                  steps);
  }
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
