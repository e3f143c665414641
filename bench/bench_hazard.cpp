// Hazard-analyzer overhead benchmark.
//
// The analyzer's contract (gpusim/hazard.hpp): with hazard mode *off*, the
// SharedArray-instrumented kernels are bit-identical to the pre-analyzer
// fast path and essentially free (<= 2% on the 1024^3 blocked GEMM). This
// harness self-checks both halves of that claim:
//
//   baseline — a local replica of the pre-analyzer blocked GEMM kernel
//              (plain std::vector tiles, no hazard hooks), the reference
//              the 2% budget is measured against;
//   off      — the shipped kernel, hazard mode off (the default);
//   record   — the shipped kernel under HazardMode::kRecord, reported for
//              information (shadow-cell tracking is allowed to cost).
//
// All three products must be bit-identical; `off` must stay within the
// overhead budget of `baseline` at n >= 1024 (exit 1 otherwise). Timings
// are best-of-R to shed scheduler noise.
//
//   AABFT_BENCH_MAX_N   largest GEMM dimension (default 1024)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/rng.hpp"
#include "fp/bits.hpp"
#include "gpusim/hazard.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace {

using namespace aabft;
using Clock = std::chrono::steady_clock;

constexpr double kOverheadBudget = 0.02;  // hazard-off vs baseline, n >= 1024
constexpr int kRepeats = 3;               // best-of timing repeats

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

linalg::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  Rng rng(seed);
  return linalg::uniform_matrix(rows, cols, -1.0, 1.0, rng);
}

bool bits_equal(const linalg::Matrix& a, const linalg::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (fp::to_bits(a(i, j)) != fp::to_bits(b(i, j))) return false;
  return true;
}

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) noexcept {
  return (a + b - 1) / b;
}

/// Replica of the blocked GEMM kernel as it existed before the hazard
/// analyzer: plain vector tiles, no SharedArray, no hazard hooks. It shares
/// the shipped kernel's panel step and merge, so the overhead budget measured
/// against it is the staging and hook cost alone.
linalg::Matrix baseline_matmul(gpusim::Launcher& launcher,
                               const linalg::Matrix& a,
                               const linalg::Matrix& b) {
  const linalg::GemmConfig config;
  const std::size_t m = a.rows();
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.cols();
  const std::size_t bm = config.bm;
  const std::size_t bn = config.bn;
  const std::size_t bk = config.bk;

  linalg::Matrix c(m, n, 0.0);
  const gpusim::Dim3 grid{ceil_div(n, bn), ceil_div(m, bm), 1};

  launcher.launch("gemm_baseline", grid, [&](gpusim::BlockCtx& blk) {
    auto& math = blk.math;
    const std::size_t row0 = blk.block.y * bm;
    const std::size_t col0 = blk.block.x * bn;

    std::vector<double> accum(bm * bn, 0.0);
    std::vector<double> sm_a(bm * bk);
    std::vector<double> sm_b(bk * bn);
    math.use_shared_doubles(bm * bk + bk * bn);

    const std::size_t num_panels = ceil_div(k_dim, bk);
    for (std::size_t panel = 0; panel < num_panels; ++panel) {
      const std::size_t kbase = panel * bk;
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

      const std::size_t k_count = std::min(bk, k_dim - kbase);
      linalg::panel_step(math, config, sm_a.data(), sm_b.data(), accum.data(),
                         kbase, k_count);
    }

    const std::size_t h = row0 < m ? std::min(bm, m - row0) : 0;
    const std::size_t w = col0 < n ? std::min(bn, n - col0) : 0;
    linalg::merge_tile(math, config, accum.data(),
                       c.data() + row0 * n + col0, n, h, w);
  });
  return c;
}

/// Best-of-kRepeats wall-clock of `body` (which must assign its product).
template <typename Body>
double best_seconds(Body&& body) {
  double best = 1e300;
  for (int r = 0; r < kRepeats; ++r) {
    const auto start = Clock::now();
    body();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

}  // namespace

int main() {
  const std::size_t max_n = env_size_or("AABFT_BENCH_MAX_N", 1024);
  std::vector<std::size_t> sweep;
  for (std::size_t n :
       {std::size_t{256}, std::size_t{512}, std::size_t{1024}})
    if (n <= max_n) sweep.push_back(n);
  if (sweep.empty()) sweep.push_back(std::max<std::size_t>(max_n, 64));

  std::printf("%6s %14s %14s %14s %10s %12s\n", "n", "baseline", "haz off",
              "haz record", "off ovh", "record ovh");
  std::printf("%6s %14s %14s %14s %10s %12s\n", "", "(ns/op)", "(ns/op)",
              "(ns/op)", "", "");

  bool budget_ok = true;
  bool budget_checked = false;
  for (const std::size_t n : sweep) {
    const auto a = random_matrix(n, n, 1);
    const auto b = random_matrix(n, n, 2);
    const double ops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n);

    gpusim::Launcher launcher;
    linalg::Matrix c_baseline, c_off, c_record;
    // Warm-up (page in operands, settle the allocator).
    c_baseline = baseline_matmul(launcher, a, b);

    const double t_baseline =
        best_seconds([&] { c_baseline = baseline_matmul(launcher, a, b); });
    const double t_off =
        best_seconds([&] { c_off = linalg::blocked_matmul(launcher, a, b); });
    launcher.set_hazard_mode(gpusim::HazardMode::kRecord);
    const double t_record =
        best_seconds([&] { c_record = linalg::blocked_matmul(launcher, a, b); });
    launcher.set_hazard_mode(gpusim::HazardMode::kOff);

    if (!bits_equal(c_baseline, c_off) || !bits_equal(c_off, c_record)) {
      std::printf("n=%zu: products are NOT bit-identical\n", n);
      return 1;
    }
    if (launcher.hazard_count() != 0) {
      std::printf("n=%zu: record mode flagged %zu hazard(s) in a clean GEMM\n",
                  n, launcher.hazard_count());
      return 1;
    }

    const double off_overhead = t_off / t_baseline - 1.0;
    const double record_overhead = t_record / t_baseline - 1.0;
    std::printf("%6zu %14.3f %14.3f %14.3f %9.2f%% %11.2f%%\n", n,
                1e9 * t_baseline / ops, 1e9 * t_off / ops,
                1e9 * t_record / ops, 100.0 * off_overhead,
                100.0 * record_overhead);

    if (n >= 1024) {
      budget_checked = true;
      if (off_overhead > kOverheadBudget) budget_ok = false;
    }
  }

  if (budget_checked)
    std::printf("\n1024^3 hazard-off overhead <= %.0f%%: %s\n",
                100.0 * kOverheadBudget, budget_ok ? "yes" : "NO (regression)");
  return budget_checked && !budget_ok ? 1 : 0;
}
