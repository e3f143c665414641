// Per-block floating-point context: counted, optionally faulty arithmetic.
//
// Simulated kernels perform all their floating-point work through a MathCtx.
// This gives the library three properties at once:
//   1. exact operation counts per kernel (feeding the Table I timing model),
//   2. a well-defined injection surface for the paper's Algorithm 3 faults,
//   3. a single switch between mul+add and FMA accumulation (Section IV-D),
//      which the rounding-error bound model must know about.
//
// The fast path (no armed fault) is a pointer null-check per injectable op.
// On top of that, kernels can use the *fault fence* (needs_instrumented) to
// prove that a whole K-panel / module-row region cannot intersect any armed
// fault, and then run the span helpers below: raw std::fma / mul-add loops
// with the same operation order and rounding as the per-op path (so results
// stay bit-identical) and counters bumped once in bulk.
#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/require.hpp"

#include "gpusim/fault_site.hpp"
#include "gpusim/perf_counters.hpp"

namespace aabft::gpusim {

namespace detail {
inline std::atomic<bool> g_force_instrumented{false};
}  // namespace detail

/// Test/bench switch: when set, every fault fence answers "instrumented"
/// and kernels fall back to the per-op path everywhere — the reference side
/// of the fast-path A/B bit-identity tests. Not for production use.
inline void set_force_instrumented(bool on) noexcept {
  detail::g_force_instrumented.store(on, std::memory_order_release);
}
[[nodiscard]] inline bool force_instrumented() noexcept {
  return detail::g_force_instrumented.load(std::memory_order_acquire);
}

/// Arithmetic precision of a simulated kernel. Values are carried in
/// doubles either way; kSingle rounds every operation result to binary32
/// (every float is exactly representable as a double, so this reproduces a
/// single-precision GPU kernel's rounding bit-for-bit). The bound model then
/// runs with t = 23.
enum class Precision : std::uint8_t { kDouble, kSingle };

class MathCtx {
 public:
  MathCtx(int sm_id, FaultController* faults,
          Precision precision = Precision::kDouble) noexcept
      : sm_id_(sm_id), faults_(faults), precision_(precision) {}

  [[nodiscard]] Precision precision() const noexcept { return precision_; }

  // ---- plain counted arithmetic (not an injection target) ----

  [[nodiscard]] double add(double a, double b) noexcept {
    ++counters_.adds;
    return round_result(a + b);
  }

  [[nodiscard]] double sub(double a, double b) noexcept {
    ++counters_.adds;
    return round_result(a - b);
  }

  [[nodiscard]] double mul(double a, double b) noexcept {
    ++counters_.muls;
    return round_result(a * b);
  }

  [[nodiscard]] double fma(double a, double b, double c) noexcept {
    ++counters_.fmas;
    return fma_raw(a, b, c);
  }

  [[nodiscard]] double abs(double a) noexcept {
    ++counters_.compares;
    return std::fabs(a);
  }

  [[nodiscard]] double max(double a, double b) noexcept {
    ++counters_.compares;
    return a > b ? a : b;
  }

  // ---- injectable arithmetic (paper Algorithm 3 fault sites) ----

  [[nodiscard]] double faulty_mul(double a, double b, FaultSite site,
                                  int module_id, std::int64_t k) noexcept {
    ++counters_.muls;
    double r = round_result(a * b);
    if (faults_ != nullptr)
      r = faults_->maybe_inject(site, sm_id_, module_id, k, r,
                                precision_ == Precision::kSingle);
    return r;
  }

  [[nodiscard]] double faulty_add(double a, double b, FaultSite site,
                                  int module_id, std::int64_t k) noexcept {
    ++counters_.adds;
    double r = round_result(a + b);
    if (faults_ != nullptr)
      r = faults_->maybe_inject(site, sm_id_, module_id, k, r,
                                precision_ == Precision::kSingle);
    return r;
  }

  /// FMA with injection applied to the fused result (the multiplication is
  /// not separately observable in hardware FMA, so the add site is used).
  [[nodiscard]] double faulty_fma(double a, double b, double c, FaultSite site,
                                  int module_id, std::int64_t k) noexcept {
    ++counters_.fmas;
    double r = fma_raw(a, b, c);
    if (faults_ != nullptr)
      r = faults_->maybe_inject(site, sm_id_, module_id, k, r,
                                precision_ == Precision::kSingle);
    return r;
  }

  // ---- fault fence + span-level fast path ----
  //
  // needs_instrumented() answers, once per block / K-panel / module row,
  // whether the per-op injectable path must be taken for a region. On a
  // negative answer the span helpers below execute the identical operation
  // sequence with identical rounding (so results are bit-exact) but without
  // per-op fault checks, and bump the counters once in bulk.

  /// True when the region [site_lo..site_hi] x [module_lo..module_hi] x
  /// [k_lo..k_hi] on this block's SM must run instrumented: either the
  /// global force-instrumented switch is set (A/B testing) or an armed,
  /// unfired fault can intersect the region.
  [[nodiscard]] bool needs_instrumented(FaultSite site_lo, FaultSite site_hi,
                                        int module_lo, int module_hi,
                                        std::int64_t k_lo,
                                        std::int64_t k_hi) const noexcept {
    if (force_instrumented()) return true;
    return faults_ != nullptr &&
           faults_->may_fire(site_lo, site_hi, sm_id_, module_lo, module_hi,
                             k_lo, k_hi);
  }

  /// Round an exactly-computed double the way this context's ops would
  /// (identity in double mode, binary32 rounding in single mode). For
  /// fenced fast-path loops written in place.
  [[nodiscard]] double canonical(double x) const noexcept {
    return round_result(x);
  }

  /// The fenced fast path of every multiply-accumulate chain: one staged
  /// GEMM K panel, or with rows = cols = 1 one dot product. a is the
  /// rows x bk A tile, b the bk x cols B tile and acc the rows x cols
  /// accumulator tile (row-major). For every (i, j) and kk ascending in
  /// [0, k_count):
  ///   acc[i*cols + j] = fma(a[i*bk + kk], b[kk*cols + j], acc[i*cols + j])
  /// with use_fma, else round(acc + round(a * b)): each element's per-op
  /// fma (or mul, add) chain, bit for bit in this context's precision.
  /// Runs as fixed register tiles of explicit column-pair vectors that keep
  /// their accumulators out of memory for the whole panel (math_ctx.cpp);
  /// counts rows*cols*k_count FMAs (or muls + adds) in bulk.
  void accumulate_panel(const double* a, const double* b, double* acc,
                        std::size_t rows, std::size_t cols, std::size_t bk,
                        std::size_t k_count, bool use_fma) noexcept;

  /// dst[j] = round(dst[j] + src[j]) for j in [0, n): the fenced final-merge
  /// row (accumulators into the C tile). Counts n adds in bulk.
  void add_rows(double* __restrict dst, const double* __restrict src,
                std::size_t n) noexcept {
    counters_.adds += n;
    if (precision_ == Precision::kSingle) {
      for (std::size_t j = 0; j < n; ++j) dst[j] = round_result(dst[j] + src[j]);
    } else {
      for (std::size_t j = 0; j < n; ++j) dst[j] = dst[j] + src[j];
    }
  }

  /// Left-to-right sum of squares of n elements spaced `stride` apart,
  /// starting from 0.0 and rounding both operations exactly like chained
  /// add(mul(x, x)) calls. Counts n muls + n adds in bulk. The norm kernels
  /// use this for their fenced fast path.
  [[nodiscard]] double sum_squares_strided(const double* v, std::size_t n,
                                           std::size_t stride) noexcept {
    counters_.muls += n;
    counters_.adds += n;
    double s = 0.0;
    if (precision_ == Precision::kSingle) {
      for (std::size_t i = 0; i < n; ++i) {
        const double x = v[i * stride];
        s = round_result(s + round_result(x * x));
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const double x = v[i * stride];
        s = s + x * x;
      }
    }
    return s;
  }

  /// Left-to-right sum of n elements spaced `stride` apart, starting from
  /// 0.0 and rounding after every addition exactly like chained add() calls.
  /// Counts n adds in bulk. Checker kernels use this for checksum
  /// reference sums (stride 1 for rows, the row length for columns).
  [[nodiscard]] double sum_strided(const double* v, std::size_t n,
                                   std::size_t stride) noexcept {
    counters_.adds += n;
    double s = 0.0;
    if (precision_ == Precision::kSingle) {
      for (std::size_t i = 0; i < n; ++i) s = round_result(s + v[i * stride]);
    } else {
      for (std::size_t i = 0; i < n; ++i) s = s + v[i * stride];
    }
    return s;
  }

  // ---- bulk accounting for library helpers (e.g. PMaxList::offer returns
  // its comparison count; the epsilon computation is a handful of flops) ----

  void count_adds(std::uint64_t n) noexcept { counters_.adds += n; }
  void count_muls(std::uint64_t n) noexcept { counters_.muls += n; }
  void count_compares(std::uint64_t n) noexcept { counters_.compares += n; }

  // ---- logical global-memory traffic ----

  void load_bytes(std::uint64_t n) noexcept { counters_.bytes_loaded += n; }
  void store_bytes(std::uint64_t n) noexcept { counters_.bytes_stored += n; }
  void load_doubles(std::uint64_t n) noexcept { counters_.bytes_loaded += 8 * n; }
  void store_doubles(std::uint64_t n) noexcept { counters_.bytes_stored += 8 * n; }

  // ---- shared-memory budget ----

  /// Declare the block's shared-memory footprint. Kernels call this once per
  /// allocation; the launcher validates the total against the device's
  /// per-block shared-memory capacity (a real CUDA kernel with this
  /// footprint would fail to launch).
  void use_shared_doubles(std::uint64_t n) { use_shared_bytes(8 * n); }
  void use_shared_bytes(std::uint64_t n) {
    shared_bytes_ += n;
    AABFT_REQUIRE(shared_limit_ == 0 || shared_bytes_ <= shared_limit_,
                  "kernel exceeds the device's per-block shared memory");
  }
  /// Footprint accounting without the hard failure: the hazard analyzer uses
  /// this in record mode so an oversized block is *reported* (memcheck) and
  /// execution continues. Plain kernels keep the throwing overload above.
  void use_shared_bytes_unchecked(std::uint64_t n) noexcept {
    shared_bytes_ += n;
  }
  void set_shared_limit(std::uint64_t bytes) noexcept { shared_limit_ = bytes; }
  [[nodiscard]] std::uint64_t shared_limit() const noexcept {
    return shared_limit_;
  }
  [[nodiscard]] std::uint64_t shared_bytes() const noexcept {
    return shared_bytes_;
  }

  [[nodiscard]] int sm_id() const noexcept { return sm_id_; }
  [[nodiscard]] const PerfCounters& counters() const noexcept { return counters_; }

 private:
  /// In single-precision mode, round an (exact-in-double) op result to
  /// binary32. Adding or multiplying two float-valued doubles is exact in
  /// double, so round_result gives the correctly rounded float operation —
  /// no double rounding.
  [[nodiscard]] double round_result(double x) const noexcept {
    return precision_ == Precision::kSingle
               ? static_cast<double>(static_cast<float>(x))
               : x;
  }

  [[nodiscard]] double fma_raw(double a, double b, double c) const noexcept {
    if (precision_ == Precision::kSingle)
      return static_cast<double>(
          std::fmaf(static_cast<float>(a), static_cast<float>(b),
                    static_cast<float>(c)));
    return std::fma(a, b, c);
  }

  int sm_id_;
  FaultController* faults_;
  Precision precision_;
  PerfCounters counters_{};
  std::uint64_t shared_bytes_ = 0;
  std::uint64_t shared_limit_ = 0;  // 0 = unchecked
};

}  // namespace aabft::gpusim
