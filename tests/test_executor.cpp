// Executor / stream / batch tests: the persistent worker pool must be an
// invisible replacement for per-launch thread spawning. PerfCounters are
// uint64 sums, so aggregation is bit-identical for every worker count and
// schedule; streams must preserve FIFO order within a stream; and the async
// environment snapshot must keep SM-targeted fault injection deterministic.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "abft/aabft.hpp"
#include "core/rng.hpp"
#include "gpusim/fault_site.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace {

using aabft::ErrorCode;
using aabft::Rng;
using aabft::abft::AabftConfig;
using aabft::abft::AabftMultiplier;
using aabft::abft::Operands;
using aabft::gpusim::BlockCtx;
using aabft::gpusim::Dim3;
using aabft::gpusim::FaultConfig;
using aabft::gpusim::FaultController;
using aabft::gpusim::FaultSite;
using aabft::gpusim::k20c;
using aabft::gpusim::LaunchStats;
using aabft::gpusim::Launcher;
using aabft::gpusim::PerfCounters;
using aabft::gpusim::Stream;
using aabft::linalg::Matrix;
using aabft::linalg::blocked_matmul;
using aabft::linalg::uniform_matrix;

void expect_counters_eq(const PerfCounters& x, const PerfCounters& y) {
  EXPECT_EQ(x.adds, y.adds);
  EXPECT_EQ(x.muls, y.muls);
  EXPECT_EQ(x.fmas, y.fmas);
  EXPECT_EQ(x.compares, y.compares);
  EXPECT_EQ(x.bytes_loaded, y.bytes_loaded);
  EXPECT_EQ(x.bytes_stored, y.bytes_stored);
}

// One GEMM's counters and result, bit for bit, for a given worker count.
std::pair<Matrix, std::vector<LaunchStats>> run_gemm(unsigned workers) {
  Rng rng(77);
  const Matrix a = uniform_matrix(96, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 96, -1.0, 1.0, rng);
  Launcher launcher(k20c(), workers);
  Matrix c = blocked_matmul(launcher, a, b);
  return {std::move(c), launcher.launch_log()};
}

TEST(Executor, CountersBitIdenticalAcrossWorkerCounts) {
  const auto [c1, log1] = run_gemm(1);
  std::vector<unsigned> counts = {2, std::max(1u, std::thread::hardware_concurrency())};
  for (const unsigned workers : counts) {
    const auto [c, log] = run_gemm(workers);
    EXPECT_EQ(c, c1) << "workers=" << workers;
    ASSERT_EQ(log.size(), log1.size()) << "workers=" << workers;
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].kernel_name, log1[i].kernel_name);
      EXPECT_EQ(log[i].blocks, log1[i].blocks);
      expect_counters_eq(log[i].counters, log1[i].counters);
    }
  }
}

// The same kernel body, once synchronously and once via a stream, must
// produce identical outputs and identical logged counters.
TEST(Executor, StreamLaunchMatchesSyncLaunch) {
  constexpr std::size_t kBlocks = 8;
  constexpr std::size_t kOps = 16;
  auto body_for = [](std::vector<double>* out) {
    return [out](BlockCtx& ctx) {
      const std::size_t base = static_cast<std::size_t>(ctx.block.x) * kOps;
      for (std::size_t k = 0; k < kOps; ++k)
        (*out)[base + k] = ctx.math.mul(static_cast<double>(base + k), 1.25);
    };
  };

  Launcher launcher;
  std::vector<double> sync_out(kBlocks * kOps, 0.0);
  const LaunchStats sync_stats =
      launcher.launch("counted", Dim3{kBlocks, 1, 1}, body_for(&sync_out));

  launcher.clear_launch_log();
  std::vector<double> async_out(kBlocks * kOps, 0.0);
  Stream stream = launcher.create_stream();
  launcher.launch_async(stream, "counted", Dim3{kBlocks, 1, 1},
                        body_for(&async_out));
  stream.synchronize();

  EXPECT_EQ(async_out, sync_out);
  const auto log = launcher.launch_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.front().kernel_name, "counted");
  EXPECT_EQ(log.front().blocks, kBlocks);
  expect_counters_eq(log.front().counters, sync_stats.counters);
}

// Operations on one stream run strictly in enqueue order, even when they are
// a mix of kernels and host functions; the shared vector needs no lock.
TEST(Executor, StreamPreservesFifoOrder) {
  Launcher launcher;
  Stream stream = launcher.create_stream();
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    launcher.launch_host_async(stream, "host_step",
                               [&order, i] { order.push_back(2 * i); });
    launcher.launch_async(stream, "kernel_step", Dim3{1, 1, 1},
                          [&order, i](BlockCtx&) { order.push_back(2 * i + 1); });
  }
  stream.synchronize();
  ASSERT_EQ(order.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(order[i], i);
}

// After synchronize() the log holds every async launch from every stream.
TEST(Executor, SynchronizeDrainsAllStreams) {
  Launcher launcher;
  std::vector<Stream> streams = {launcher.create_stream(),
                                 launcher.create_stream(),
                                 launcher.create_stream()};
  std::atomic<int> ran{0};
  constexpr int kPerStream = 4;
  for (auto& stream : streams)
    for (int i = 0; i < kPerStream; ++i)
      launcher.launch_async(stream, "tick", Dim3{2, 1, 1},
                            [&ran](BlockCtx& ctx) {
                              if (ctx.block.x == 0) ran.fetch_add(1);
                            });
  launcher.synchronize();
  EXPECT_EQ(ran.load(), static_cast<int>(streams.size()) * kPerStream);
  EXPECT_EQ(launcher.launch_log().size(), streams.size() * kPerStream);
}

// The launch environment is snapshotted at enqueue time: a fault armed when
// kernel A is enqueued hits A (and its targeted SM) even though the
// controller is detached before the work is drained, and the later kernel on
// a second stream runs clean. This is what keeps SM-targeted campaigns
// deterministic over async execution.
TEST(Executor, MultiStreamFaultInjectionTargetsSmDeterministically) {
  constexpr std::size_t kBlocks = 8;  // sm = block index (k20c has 13 SMs)
  constexpr std::size_t kOps = 10;
  constexpr int kTargetSm = 5;
  constexpr std::int64_t kTargetK = 4;

  auto body_for = [](std::vector<double>* out) {
    return [out](BlockCtx& ctx) {
      const std::size_t base = static_cast<std::size_t>(ctx.block.x) * kOps;
      for (std::size_t k = 0; k < kOps; ++k)
        (*out)[base + k] =
            ctx.math.faulty_mul(3.0, 7.0, FaultSite::kInnerMul, /*module_id=*/0,
                                static_cast<std::int64_t>(k));
    };
  };

  Launcher launcher;
  Stream s1 = launcher.create_stream();
  Stream s2 = launcher.create_stream();

  FaultController controller;
  FaultConfig fault;
  fault.site = FaultSite::kInnerMul;
  fault.sm_id = kTargetSm;
  fault.module_id = 0;
  fault.k_injection = kTargetK;
  fault.error_vec = 1ULL << 63;  // sign flip: 21.0 -> -21.0
  controller.arm(fault);

  std::vector<double> armed_out(kBlocks * kOps, 0.0);
  std::vector<double> clean_out(kBlocks * kOps, 0.0);
  launcher.set_fault_controller(&controller);
  launcher.launch_async(s1, "armed", Dim3{kBlocks, 1, 1}, body_for(&armed_out));
  launcher.set_fault_controller(nullptr);  // snapshot already taken for s1
  launcher.launch_async(s2, "clean", Dim3{kBlocks, 1, 1}, body_for(&clean_out));
  launcher.synchronize();

  EXPECT_TRUE(controller.fired());
  const std::size_t hit = static_cast<std::size_t>(kTargetSm) * kOps +
                          static_cast<std::size_t>(kTargetK);
  for (std::size_t i = 0; i < armed_out.size(); ++i)
    EXPECT_EQ(armed_out[i], i == hit ? -21.0 : 21.0) << "index " << i;
  for (const double v : clean_out) EXPECT_EQ(v, 21.0);
}

// Host functions on a stream may perform nested synchronous launches; the
// waiting thread helps execute them, so this cannot deadlock even with a
// single pool worker.
TEST(Executor, NestedSyncLaunchFromHostTaskDoesNotDeadlock) {
  Launcher launcher(k20c(), /*workers=*/1);
  Stream stream = launcher.create_stream();
  Rng rng(5);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  Matrix from_stream;
  launcher.launch_host_async(stream, "nested_gemm", [&] {
    from_stream = blocked_matmul(launcher, a, b);
  });
  stream.synchronize();
  Launcher reference;
  EXPECT_EQ(from_stream, blocked_matmul(reference, a, b));
}

/// Borrowed-operand views of owned problems, as multiply_batch takes them.
std::vector<Operands> views(
    const std::vector<std::pair<Matrix, Matrix>>& problems) {
  std::vector<Operands> out;
  for (const auto& [a, b] : problems) out.push_back({&a, &b});
  return out;
}

// multiply_batch pipelines problems across streams but must stay bit-
// identical to sequential multiply() calls on the same launcher.
TEST(Executor, MultiplyBatchBitIdenticalToSequential) {
  Rng rng(91);
  AabftConfig config;
  config.bs = 16;
  std::vector<std::pair<Matrix, Matrix>> problems;
  for (int i = 0; i < 4; ++i)
    problems.emplace_back(uniform_matrix(48, 48, -1.0, 1.0, rng),
                          uniform_matrix(48, 48, -1.0, 1.0, rng));

  Launcher seq_launcher;
  AabftMultiplier seq(seq_launcher, config);
  std::vector<Matrix> reference;
  for (const auto& [a, b] : problems)
    reference.push_back(seq.multiply(a, b).value().c);

  for (const std::size_t streams : {std::size_t{1}, std::size_t{3}}) {
    Launcher launcher;
    AabftMultiplier mult(launcher, config);
    const auto batch = mult.multiply_batch(views(problems), streams);
    ASSERT_EQ(batch.size(), problems.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << "problem " << i;
      EXPECT_FALSE(batch[i]->error_detected());
      EXPECT_EQ(batch[i]->c, reference[i]) << "problem " << i;
    }
  }
}

// A shape-invalid entry reports its error in place without disturbing the
// valid problems around it.
TEST(Executor, MultiplyBatchReportsPerProblemErrors) {
  Rng rng(13);
  AabftConfig config;
  config.bs = 16;
  Launcher launcher;
  AabftMultiplier mult(launcher, config);
  std::vector<std::pair<Matrix, Matrix>> problems;
  problems.emplace_back(uniform_matrix(32, 32, -1.0, 1.0, rng),
                        uniform_matrix(32, 32, -1.0, 1.0, rng));
  problems.emplace_back(Matrix(32, 20), Matrix(32, 32));  // inner mismatch
  problems.emplace_back(uniform_matrix(32, 32, -1.0, 1.0, rng),
                        uniform_matrix(32, 32, -1.0, 1.0, rng));

  const auto batch = mult.multiply_batch(views(problems));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(batch[0].ok());
  ASSERT_FALSE(batch[1].ok());
  EXPECT_EQ(batch[1].error().code, ErrorCode::kShapeMismatch);
  EXPECT_TRUE(batch[2].ok());
  const auto ref0 = AabftMultiplier(launcher, config)
                        .multiply(problems[0].first, problems[0].second)
                        .value();
  EXPECT_EQ(batch[0]->c, ref0.c);
}

// The launcher's stream registry holds only live streams (plus, until the
// next create_stream, the ones dropped since): every batch call creates
// fresh lanes, so without pruning a long-running server's registry, and the
// StreamState allocations its expired entries pin, grows by one per lane.
TEST(Executor, StreamRegistryHoldsOnlyLiveStreams) {
  Launcher launcher(k20c(), 2);
  const Stream kept0 = launcher.create_stream();
  const Stream kept1 = launcher.create_stream();
  for (int i = 0; i < 10000; ++i) (void)launcher.create_stream();
  const Stream probe = launcher.create_stream();
  EXPECT_EQ(launcher.registered_streams(), 3u);

  // The same through the batch call, whose lanes a worker may still be
  // releasing when it returns: the registry stays bounded either way.
  Rng rng(17);
  AabftConfig config;
  config.bs = 16;
  AabftMultiplier mult(launcher, config);
  const Matrix a = uniform_matrix(16, 16, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(16, 16, -1.0, 1.0, rng);
  const std::vector<Operands> one = {{&a, &b}};
  for (int i = 0; i < 1000; ++i)
    ASSERT_TRUE(mult.multiply_batch(one).front().ok());
  EXPECT_LE(launcher.registered_streams(), 3u + 2u * launcher.workers());
}

}  // namespace
