// Launch-overhead and batching microbenchmark for the persistent executor.
//
// Two questions, matching the executor's acceptance criteria:
//
//   1. How much per-launch overhead does the persistent worker pool remove
//      for *small-grid* kernels, compared to the previous design that
//      spawned and joined a fresh std::thread team on every launch? The
//      spawn-per-launch baseline below is a faithful reimplementation of
//      that retired code path (atomic block claiming included).
//
//   2. Does AabftMultiplier::multiply_batch beat sequential multiply calls
//      by pipelining independent protected multiplies across streams? This
//      only shows a wall-clock win with >= 4 pool workers; on smaller hosts
//      the bench still verifies bit-identical results and reports timings.
//
//   AABFT_BENCH_LAUNCHES   launches per timing loop (default 2000)
//   AABFT_BENCH_MAX_N      batch problem dimension (default 256)
//   AABFT_BENCH_BATCH      problems in the batch (default 8)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "abft/aabft.hpp"
#include "bench/bench_common.hpp"
#include "core/rng.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/workload.hpp"

namespace {

using namespace aabft;
using gpusim::BlockCtx;
using gpusim::block_coord;
using gpusim::Dim3;
using gpusim::Launcher;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The small-grid kernel under test: a few counted flops per block, so the
// timing is dominated by launch mechanics, not arithmetic.
void tiny_block(BlockCtx& ctx) {
  double acc = 0.0;
  for (int k = 0; k < 32; ++k)
    acc = ctx.math.fma(static_cast<double>(k), 0.5, acc);
  if (acc < 0.0) std::abort();  // keep the work observable
}

// Faithful reimplementation of the retired per-launch execution path: spawn
// `workers` threads, claim blocks through a shared atomic, join.
void spawn_per_launch(const gpusim::DeviceSpec& spec, unsigned workers,
                      Dim3 grid) {
  const std::size_t total = grid.count();
  std::atomic<std::size_t> next{0};
  auto run = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      BlockCtx ctx(block_coord(grid, i), grid,
                   static_cast<int>(i % static_cast<std::size_t>(spec.num_sms)),
                   nullptr, gpusim::Precision::kDouble,
                   spec.shared_mem_per_block);
      tiny_block(ctx);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) threads.emplace_back(run);
  for (auto& thread : threads) thread.join();
}

}  // namespace

int main() {
  const std::size_t launches = env_size_or("AABFT_BENCH_LAUNCHES", 2000);
  const std::size_t n = env_size_or("AABFT_BENCH_MAX_N", 256);
  const std::size_t batch_size = env_size_or("AABFT_BENCH_BATCH", 8);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // The spawn baseline pays one thread team per launch; give both designs
  // the same team size (>= 2, or there is nothing to spawn).
  const unsigned workers = std::max(2u, hw);
  const Dim3 grid{8, 1, 1};

  std::printf("host: hardware_concurrency=%u, team size=%u, grid=%zu blocks\n\n",
              hw, workers, grid.count());

  // -- 1. launch overhead -------------------------------------------------
  const gpusim::DeviceSpec spec = gpusim::k20c();
  for (std::size_t i = 0; i < 16; ++i) spawn_per_launch(spec, workers, grid);
  auto start = Clock::now();
  for (std::size_t i = 0; i < launches; ++i)
    spawn_per_launch(spec, workers, grid);
  const double spawn_s = seconds_since(start);

  Launcher pooled(gpusim::k20c(), workers);
  for (std::size_t i = 0; i < 16; ++i)
    (void)pooled.launch("warmup", grid, tiny_block);
  pooled.clear_launch_log();
  start = Clock::now();
  for (std::size_t i = 0; i < launches; ++i)
    (void)pooled.launch("tiny", grid, tiny_block);
  const double pool_s = seconds_since(start);

  std::printf("launch overhead, %zu launches of a %zu-block kernel:\n",
              launches, grid.count());
  std::printf("  spawn-per-launch baseline : %8.3f s  (%7.1f us/launch)\n",
              spawn_s, 1e6 * spawn_s / static_cast<double>(launches));
  std::printf("  persistent pool           : %8.3f s  (%7.1f us/launch)\n",
              pool_s, 1e6 * pool_s / static_cast<double>(launches));
  std::printf("  speedup                   : %8.1fx %s\n\n",
              spawn_s / pool_s,
              spawn_s / pool_s >= 5.0 ? "(>= 5x target met)"
                                      : "(below 5x target)");

  // -- 2. batched protected multiply --------------------------------------
  Rng rng(2026);
  std::vector<std::pair<linalg::Matrix, linalg::Matrix>> problems;
  for (std::size_t i = 0; i < batch_size; ++i)
    problems.emplace_back(linalg::uniform_matrix(n, n, -1.0, 1.0, rng),
                          linalg::uniform_matrix(n, n, -1.0, 1.0, rng));

  Launcher launcher;
  abft::AabftConfig config;
  config.bs = 32;
  abft::AabftMultiplier mult(launcher, config);

  start = Clock::now();
  std::vector<linalg::Matrix> sequential;
  for (const auto& [a, b] : problems)
    sequential.push_back(mult.multiply(a, b).value().c);
  const double seq_s = seconds_since(start);

  std::vector<abft::Operands> operands;
  for (const auto& [a, b] : problems) operands.push_back({&a, &b});
  start = Clock::now();
  const auto batch = mult.multiply_batch(operands);
  const double batch_s = seconds_since(start);

  bool identical = true;
  for (std::size_t i = 0; i < batch.size(); ++i)
    identical = identical && batch[i].ok() && batch[i]->c == sequential[i];

  std::printf("batched protected multiply, %zu problems of %zux%zu:\n",
              batch_size, n, n);
  std::printf("  sequential multiply()     : %8.3f s\n", seq_s);
  std::printf("  multiply_batch()          : %8.3f s  (%.2fx)\n", batch_s,
              seq_s / batch_s);
  std::printf("  results bit-identical     : %s\n",
              identical ? "yes" : "NO (bug)");
  if (launcher.workers() < 4)
    std::printf("  note: %u pool worker(s) — the wall-clock win criterion "
                "applies on >= 4 workers\n",
                launcher.workers());

  bench::BenchJson json;
  json.begin_row()
      .str("benchmark", "launch_overhead")
      .num("launches", launches)
      .num("grid_blocks", grid.count())
      .num("spawn_us_per_launch",
           1e6 * spawn_s / static_cast<double>(launches), 2)
      .num("pool_us_per_launch", 1e6 * pool_s / static_cast<double>(launches),
           2)
      .num("speedup", spawn_s / pool_s, 2);
  json.begin_row()
      .str("benchmark", "multiply_batch")
      .num("batch_size", batch_size)
      .num("n", n)
      .num("workers", static_cast<std::size_t>(launcher.workers()))
      .num("sequential_s", seq_s)
      .num("batch_s", batch_s)
      .num("speedup", seq_s / batch_s, 2)
      .raw("bit_identical", identical ? "true" : "false");
  json.write("BENCH_executor.json");
  return identical ? 0 : 1;
}
