// Encode-path benchmark: standalone checksum encoders vs the fused pipeline.
//
// Three comparisons per matrix size, each the best-of-3 minimum:
//
//   encode_columns_fence / encode_rows_fence — the standalone encoders with
//       the fault fence active vs gpusim::set_force_instrumented(true)
//       (per-op counters + fault-controller checks). Guards the fenced
//       raw-span fast path against regressions: the fenced run must win at
//       every size.
//   encode_fused — the classic pipeline's encode cost (encode_columns(A) +
//       encode_rows(B): materialised encoded operands + p-max reduction) vs
//       the fused pipeline's (encode_columns_light + encode_rows_light:
//       compact sums + screened single-sweep p-max, no materialisation).
//       This is the "kill the encode hot path" headline: the fused pipeline
//       must cut the encode cost by >= 3x at the largest benchmarked size.
//   pipeline_fused — the end-to-end protected GEMM, fault-free: the paper's
//       kernels ("classic": baselines::PaperAabftScheme, Table I's
//       contender) vs the library's fused AabftMultiplier (informational).
//
// Machine-readable output: BENCH_encoder.json in the current directory, or
// $AABFT_BENCH_JSON if set.
//
//   AABFT_BENCH_MAX_N   largest matrix dimension (default 1024)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "abft/aabft.hpp"
#include "abft/encoder.hpp"
#include "abft/fused_gemm.hpp"
#include "baselines/schemes.hpp"
#include "bench/bench_common.hpp"
#include "core/rng.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/workload.hpp"

namespace {

using namespace aabft;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

linalg::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  Rng rng(seed);
  return linalg::uniform_matrix(rows, cols, -1.0, 1.0, rng);
}

struct Row {
  std::string scheme;
  std::string baseline_key;   ///< JSON key of the slow path
  std::string contender_key;  ///< JSON key of the fast path
  std::size_t n = 0;
  double baseline_ns_per_op = 0.0;
  double contender_ns_per_op = 0.0;
  [[nodiscard]] double speedup() const {
    return contender_ns_per_op > 0.0
               ? baseline_ns_per_op / contender_ns_per_op
               : 0.0;
  }
};

/// Interleaved best-of-5: warm both bodies once, then alternate timed runs
/// and keep each side's minimum. Interleaving matters — these bodies
/// allocate multi-megabyte matrices, so whichever side runs later inherits a
/// warmer allocator; back-to-back A/A/A B/B/B ordering skews the ratio.
template <typename BodyA, typename BodyB>
void measure_pair(Row& row, std::uint64_t ops, BodyA&& baseline,
                  BodyB&& contender) {
  baseline();
  contender();  // warm-up: caches, allocator pools, lazy pool threads
  double baseline_s = 1e300;
  double contender_s = 1e300;
  for (int trial = 0; trial < 5; ++trial) {
    auto start = Clock::now();
    baseline();
    baseline_s = std::min(baseline_s, seconds_since(start));
    start = Clock::now();
    contender();
    contender_s = std::min(contender_s, seconds_since(start));
  }
  row.baseline_ns_per_op = 1e9 * baseline_s / static_cast<double>(ops);
  row.contender_ns_per_op = 1e9 * contender_s / static_cast<double>(ops);
}

}  // namespace

int main() {
  const std::size_t max_n = env_size_or("AABFT_BENCH_MAX_N", 1024);
  std::vector<std::size_t> sweep;
  for (std::size_t n :
       {std::size_t{256}, std::size_t{512}, std::size_t{1024}})
    if (n <= max_n) sweep.push_back(n);
  if (sweep.empty()) sweep.push_back(std::max<std::size_t>(max_n, 64));

  const abft::PartitionedCodec codec(32);
  const std::size_t p = 2;
  std::vector<Row> rows;

  for (const std::size_t n : sweep) {
    const auto a = random_matrix(n, n, 1);
    const auto b = random_matrix(n, n, 2);
    // Phase-1 adds + the |.| max sweep per element, per operand.
    const std::uint64_t encode_ops = 2ull * n * n;

    // -- standalone encoders: fenced vs instrumented ------------------------
    // Single-worker launchers: the fence differential is per-op compute, and
    // a worker pool hides it behind scheduling jitter and shared-bandwidth
    // contention at the larger sizes.
    {
      gpusim::Launcher launcher(gpusim::k20c(), 1);
      Row row{"encode_columns_fence", "ns_per_op_instrumented",
              "ns_per_op_fenced", n};
      const auto body = [&] {
        auto enc = abft::encode_columns(launcher, a, codec, p);
        if (enc.data(0, 0) == 12345.6789) std::abort();  // keep it observable
      };
      measure_pair(
          row, encode_ops,
          [&] {
            gpusim::set_force_instrumented(true);
            body();
          },
          [&] {
            gpusim::set_force_instrumented(false);
            body();
          });
      rows.push_back(row);
    }
    {
      gpusim::Launcher launcher(gpusim::k20c(), 1);
      Row row{"encode_rows_fence", "ns_per_op_instrumented",
              "ns_per_op_fenced", n};
      const auto body = [&] {
        auto enc = abft::encode_rows(launcher, b, codec, p);
        if (enc.data(0, 0) == 12345.6789) std::abort();
      };
      measure_pair(
          row, encode_ops,
          [&] {
            gpusim::set_force_instrumented(true);
            body();
          },
          [&] {
            gpusim::set_force_instrumented(false);
            body();
          });
      gpusim::set_force_instrumented(false);
      rows.push_back(row);
    }

    // -- classic encode pass vs fused light encode (both fenced) ------------
    {
      gpusim::Launcher launcher;
      Row row{"encode_fused", "ns_per_op_standalone", "ns_per_op_fused", n};
      measure_pair(
          row, 2 * encode_ops,
          [&] {
            auto a_cc = abft::encode_columns(launcher, a, codec, p);
            auto b_rc = abft::encode_rows(launcher, b, codec, p);
            if (a_cc.data(0, 0) + b_rc.data(0, 0) == 12345.6789) std::abort();
          },
          [&] {
            auto a_light = abft::encode_columns_light(launcher, a, codec, p);
            auto b_light = abft::encode_rows_light(launcher, b, codec, p);
            if (a_light.sums(0, 0) + b_light.sums(0, 0) == 12345.6789)
              std::abort();
          });
      rows.push_back(row);
    }

    // -- end-to-end protected GEMM: the paper's kernels vs the library -----
    {
      const std::uint64_t gemm_ops = 2ull * n * n * n;
      Row row{"pipeline_fused", "ns_per_op_classic", "ns_per_op_fused", n};
      gpusim::Launcher launcher;
      baselines::PaperAabftScheme classic(launcher);
      abft::AabftMultiplier fused(launcher, abft::AabftConfig{});
      const auto desc = baselines::OpDescriptor::gemm(n, n, n);
      measure_pair(
          row, gemm_ops,
          [&] {
            auto result = classic.execute(desc, a, b);
            if (!result.ok() || result->c(0, 0) == 12345.6789) std::abort();
          },
          [&] {
            auto result = fused.multiply(a, b);
            if (!result.ok() || result->c(0, 0) == 12345.6789) std::abort();
          });
      rows.push_back(row);
    }
  }

  std::printf("%-22s %6s %16s %14s %9s\n", "scheme", "n", "baseline",
              "contender", "speedup");
  std::printf("%-22s %6s %16s %14s %9s\n", "", "", "(ns/op)", "(ns/op)", "");
  bool fence_ok = true;
  bool fence_within_noise = true;
  bool fused_target_met = false;
  bool fused_within_noise = false;
  const std::size_t largest = sweep.back();
  for (const Row& row : rows) {
    std::printf("%-22s %6zu %16.3f %14.3f %8.2fx\n", row.scheme.c_str(),
                row.n, row.baseline_ns_per_op, row.contender_ns_per_op,
                row.speedup());
    if (row.scheme == "encode_columns_fence" && row.speedup() <= 1.0)
      fence_ok = false;
    // Exit-code floor is looser than the reported target: on a loaded shared
    // host, interleaved best-of-5 still jitters by ~10% at memory-bound
    // sizes. The floors catch real regressions (the pre-fix fence sat at
    // 0.83x; losing the fused path entirely reads ~1x) without failing the
    // lane on scheduler noise.
    if (row.scheme == "encode_columns_fence" && row.speedup() < 0.9)
      fence_within_noise = false;
    if (row.scheme == "encode_fused" && row.n == largest) {
      fused_target_met = row.speedup() >= 3.0;
      fused_within_noise = row.speedup() >= 2.0;
    }
  }
  std::printf("\nencode_columns fence speedup > 1x at every size: %s\n",
              fence_ok ? "yes" : "NO (see exit-code floor)");
  // The >= 3x encode-path bar applies at standard sizes; tiny smoke sweeps
  // only verify the harness runs.
  const bool gate_applies = largest >= 256;
  if (gate_applies)
    std::printf("fused encode >= 3x cheaper than standalone at %zu: %s\n",
                largest, fused_target_met ? "yes" : "NO (see exit-code floor)");

  bench::BenchJson json;
  for (const Row& row : rows)
    json.begin_row()
        .str("scheme", row.scheme)
        .num("n", row.n)
        .num(row.baseline_key, row.baseline_ns_per_op)
        .num(row.contender_key, row.contender_ns_per_op)
        .num("speedup", row.speedup(), 2);
  json.write("BENCH_encoder.json");
  return (fence_within_noise && (!gate_applies || fused_within_noise)) ? 0 : 1;
}
