// Hazard analyzer (gpusim/hazard.hpp): racecheck / synccheck / memcheck for
// the block-synchronous SIMT model.
//
// Three bars, matching the cuda-memcheck-style contract:
//   1. every shipped kernel is hazard-clean under record mode (including
//      with an armed fault and on the multi-worker pool);
//   2. each seeded-bug kernel — missing barrier, racing writers, divergent
//      barrier, out-of-bounds tile access, oversized shared allocation — is
//      detected with the correct classification and attribution;
//   3. hazard mode off is bit-identical to record mode (the analyzer never
//      perturbs results).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <vector>

#include "abft/encoder.hpp"
#include "abft/gemv.hpp"
#include "baselines/schemes.hpp"
#include "core/rng.hpp"
#include "fp/bits.hpp"
#include "gpusim/hazard.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace {

using aabft::Rng;
using namespace aabft::gpusim;
namespace abft = aabft::abft;
namespace baselines = aabft::baselines;
namespace linalg = aabft::linalg;
using linalg::Matrix;
using linalg::uniform_matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  return uniform_matrix(rows, cols, -1.0, 1.0, rng);
}

bool bits_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (aabft::fp::to_bits(a(i, j)) != aabft::fp::to_bits(b(i, j)))
        return false;
  return true;
}

testing::AssertionResult no_hazards(const Launcher& launcher) {
  if (launcher.hazard_count() == 0) return testing::AssertionSuccess();
  auto failure = testing::AssertionFailure();
  failure << launcher.hazard_count() << " hazard(s); first: "
          << launcher.hazard_records().front().describe();
  return failure;
}

// ---- shipped kernels are clean ---------------------------------------------

TEST(HazardClean, BlockedGemmRecordModeSerial) {
  // Ragged sizes exercise the zero-padded edge staging.
  const Matrix a = random_matrix(48, 40, 11);
  const Matrix b = random_matrix(40, 56, 12);
  Launcher launcher(k20c(), 1);
  launcher.set_hazard_mode(HazardMode::kRecord);
  (void)linalg::blocked_matmul(launcher, a, b, {});
  linalg::GemmConfig fma;
  fma.use_fma = true;
  (void)linalg::blocked_matmul(launcher, a, b, fma);
  EXPECT_TRUE(no_hazards(launcher));
}

TEST(HazardClean, BlockedGemmRecordModeOnWorkerPool) {
  const Matrix a = random_matrix(96, 64, 13);
  const Matrix b = random_matrix(64, 96, 14);
  Launcher launcher(k20c(), 4);
  launcher.set_hazard_mode(HazardMode::kRecord);
  const Matrix c = linalg::blocked_matmul(launcher, a, b, {});
  EXPECT_TRUE(no_hazards(launcher));
  EXPECT_LT(c.max_abs_diff(linalg::naive_matmul(a, b, false)), 1e-10);
}

TEST(HazardClean, BlockedGemmRecordModeWithArmedFault) {
  // The per-op instrumented path (fault fence open) must be just as clean.
  const Matrix a = random_matrix(64, 64, 15);
  const Matrix b = random_matrix(64, 64, 16);
  Launcher launcher(k20c(), 1);
  launcher.set_hazard_mode(HazardMode::kRecord);
  FaultConfig fault;
  fault.site = FaultSite::kInnerAdd;
  fault.sm_id = 1;
  fault.module_id = 5;
  fault.k_injection = 17;
  fault.error_vec = 1ULL << 61;
  FaultController controller;
  controller.arm(fault);
  launcher.set_fault_controller(&controller);
  (void)linalg::blocked_matmul(launcher, a, b, {});
  EXPECT_EQ(controller.fired_count(), 1u);
  EXPECT_TRUE(no_hazards(launcher));
}

TEST(HazardClean, PairwiseGemmRecordMode) {
  const Matrix a = random_matrix(33, 20, 17);
  const Matrix b = random_matrix(20, 35, 18);
  Launcher launcher(k20c(), 1);
  launcher.set_hazard_mode(HazardMode::kRecord);
  (void)linalg::pairwise_matmul(launcher, a, b);
  EXPECT_TRUE(no_hazards(launcher));
}

TEST(HazardClean, EncodersRecordMode) {
  const Matrix a = random_matrix(32, 24, 19);
  const Matrix b = random_matrix(24, 32, 20);
  const abft::PartitionedCodec codec(8);
  Launcher launcher(k20c(), 1);
  launcher.set_hazard_mode(HazardMode::kRecord);
  (void)abft::encode_columns(launcher, a, codec, 2);
  (void)abft::encode_rows(launcher, b, codec, 2);
  EXPECT_TRUE(no_hazards(launcher));
}

TEST(HazardClean, ProtectedGemvRecordMode) {
  const Matrix a = random_matrix(32, 24, 21);
  Rng rng(22);
  std::vector<double> x(24);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  Launcher launcher(k20c(), 1);
  launcher.set_hazard_mode(HazardMode::kRecord);
  abft::AabftConfig config;
  config.bs = 8;
  abft::ProtectedGemv gemv(launcher, a, config);
  const auto result = gemv.multiply(x);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(no_hazards(launcher));
}

TEST(HazardClean, AllSchemeContendersRecordMode) {
  // fixed-abft, a-abft, sea-abft, tmr and diverse-tmr together cover the
  // checker, correction, scan and voting kernels.
  const Matrix a = random_matrix(64, 64, 23);
  const Matrix b = random_matrix(64, 64, 24);
  Launcher launcher(k20c(), 1);
  launcher.set_hazard_mode(HazardMode::kRecord);
  baselines::SchemeSuiteConfig config;
  config.include_diverse_tmr = true;
  for (const auto& scheme : baselines::make_schemes(launcher, config)) {
    const auto result =
        scheme->execute(baselines::OpDescriptor::gemm(64, 64, 64), a, b);
    ASSERT_TRUE(result.ok()) << scheme->name();
    EXPECT_TRUE(no_hazards(launcher)) << scheme->name();
  }
}

TEST(HazardClean, RecordModeIsBitIdenticalToOff) {
  const Matrix a = random_matrix(48, 40, 25);
  const Matrix b = random_matrix(40, 56, 26);
  Launcher launcher(k20c(), 1);
  const Matrix off = linalg::blocked_matmul(launcher, a, b, {});
  launcher.set_hazard_mode(HazardMode::kRecord);
  const Matrix record = linalg::blocked_matmul(launcher, a, b, {});
  EXPECT_TRUE(bits_equal(off, record));
  EXPECT_TRUE(no_hazards(launcher));
}

// ---- seeded-bug kernels ----------------------------------------------------

TEST(HazardSeeded, MissingBarrierReportsWriteReadRace) {
  Launcher launcher(k20c(), 1);
  launcher.set_hazard_mode(HazardMode::kRecord);
  launcher.launch("missing_barrier", Dim3{1, 1, 1}, [](BlockCtx& blk) {
    SharedArray<double> tile(blk, 4, "tile");
    blk.hazard.set_thread_count(4);
    for (int t = 0; t < 4; ++t) tile.store(t, static_cast<std::size_t>(t), t);
    // BUG: no sync_threads() — each thread reads its neighbour's cell while
    // the staging writes are still in the same epoch.
    for (int t = 0; t < 4; ++t)
      (void)tile.load(t, static_cast<std::size_t>((t + 1) % 4));
  });
  ASSERT_GE(launcher.hazard_count(), 1u);
  const auto record = launcher.hazard_records().front();
  EXPECT_EQ(record.kind, HazardKind::kRaceWriteRead);
  EXPECT_EQ(record.kernel, "missing_barrier");
  EXPECT_EQ(record.block, 0u);
  EXPECT_EQ(record.array, "tile");
  EXPECT_EQ(record.cell, 1u);        // thread 0 reads cell 1 first
  EXPECT_EQ(record.first_thread, 1);  // written by thread 1 ...
  EXPECT_EQ(record.second_thread, 0);  // ... read by thread 0
}

TEST(HazardSeeded, BarrierBetweenPhasesIsClean) {
  // The fixed version of the kernel above: the barrier retires the writes.
  Launcher launcher(k20c(), 1);
  launcher.set_hazard_mode(HazardMode::kRecord);
  launcher.launch("fixed_barrier", Dim3{1, 1, 1}, [](BlockCtx& blk) {
    SharedArray<double> tile(blk, 4, "tile");
    blk.hazard.set_thread_count(4);
    for (int t = 0; t < 4; ++t) tile.store(t, static_cast<std::size_t>(t), t);
    blk.hazard.sync_threads();
    for (int t = 0; t < 4; ++t)
      (void)tile.load(t, static_cast<std::size_t>((t + 1) % 4));
  });
  EXPECT_TRUE(no_hazards(launcher));
}

TEST(HazardSeeded, RacingWritersReportWriteWriteRaceOnce) {
  Launcher launcher(k20c(), 1);
  launcher.set_hazard_mode(HazardMode::kRecord);
  launcher.launch("racing_writers", Dim3{1, 1, 1}, [](BlockCtx& blk) {
    SharedArray<double> tile(blk, 2, "tile");
    blk.hazard.set_thread_count(4);
    // BUG: every thread writes cell 0 in the same epoch.
    for (int t = 0; t < 4; ++t) tile.store(t, 0, t);
  });
  // Per-cell dedup: one write/write report, not three.
  ASSERT_EQ(launcher.hazard_count(), 1u);
  const auto record = launcher.hazard_records().front();
  EXPECT_EQ(record.kind, HazardKind::kRaceWriteWrite);
  EXPECT_EQ(record.array, "tile");
  EXPECT_EQ(record.cell, 0u);
  EXPECT_EQ(record.first_thread, 0);
  EXPECT_EQ(record.second_thread, 1);
}

TEST(HazardSeeded, WriteAfterReadReportsReadWriteRace) {
  Launcher launcher(k20c(), 1);
  launcher.set_hazard_mode(HazardMode::kRecord);
  launcher.launch("read_write_race", Dim3{1, 1, 1}, [](BlockCtx& blk) {
    SharedArray<double> tile(blk, 4, "tile");
    blk.hazard.set_thread_count(2);
    (void)tile.load(0, 2);
    // BUG: thread 1 overwrites a cell thread 0 read this epoch.
    tile.store(1, 2, 1.0);
  });
  ASSERT_EQ(launcher.hazard_count(), 1u);
  const auto record = launcher.hazard_records().front();
  EXPECT_EQ(record.kind, HazardKind::kRaceReadWrite);
  EXPECT_EQ(record.cell, 2u);
  EXPECT_EQ(record.first_thread, 0);
  EXPECT_EQ(record.second_thread, 1);
}

TEST(HazardSeeded, DivergentBarrierReportsSyncDivergence) {
  Launcher launcher(k20c(), 1);
  launcher.set_hazard_mode(HazardMode::kRecord);
  launcher.launch("divergent_barrier", Dim3{1, 1, 1}, [](BlockCtx& blk) {
    blk.hazard.set_thread_count(4);
    // BUG: __syncthreads inside a divergent branch — thread 3 never arrives.
    for (int t = 0; t < 3; ++t) blk.hazard.arrive(t);
    blk.hazard.sync_threads();
    // Full participation afterwards is fine again.
    for (int t = 0; t < 4; ++t) blk.hazard.arrive(t);
    blk.hazard.sync_threads();
  });
  ASSERT_EQ(launcher.hazard_count(), 1u);
  const auto record = launcher.hazard_records().front();
  EXPECT_EQ(record.kind, HazardKind::kSyncDivergence);
  EXPECT_EQ(record.kernel, "divergent_barrier");
  EXPECT_EQ(record.cell, 3u);          // three threads arrived
  EXPECT_EQ(record.first_thread, 3);   // first missing tid
  EXPECT_EQ(record.second_thread, 4);  // of four
}

TEST(HazardSeeded, OutOfBoundsAccessReportedAndDropped) {
  Launcher launcher(k20c(), 1);
  double read_back = -1.0;
  launcher.set_hazard_mode(HazardMode::kRecord);
  launcher.launch("oob_tile", Dim3{1, 1, 1}, [&](BlockCtx& blk) {
    SharedArray<double> tile(blk, 4, "tile");
    blk.hazard.set_thread_count(2);
    tile.store(0, 7, 42.0);          // BUG: write past the end — dropped
    read_back = tile.load(1, 9);     // BUG: read past the end — yields 0.0
  });
  EXPECT_EQ(read_back, 0.0);
  ASSERT_EQ(launcher.hazard_count(), 2u);
  const auto records = launcher.hazard_records();
  EXPECT_EQ(records[0].kind, HazardKind::kOutOfBounds);
  EXPECT_EQ(records[0].array, "tile");
  EXPECT_EQ(records[0].cell, 7u);
  EXPECT_EQ(records[0].second_thread, 0);
  EXPECT_EQ(records[1].kind, HazardKind::kOutOfBounds);
  EXPECT_EQ(records[1].cell, 9u);
  EXPECT_EQ(records[1].second_thread, 1);
}

TEST(HazardSeeded, SharedOverflowReportedInRecordMode) {
  // Record mode reports the memcheck violation and keeps executing; with the
  // analyzer off the same allocation throws out of the launch (the budget
  // contract tested in test_gpusim.cpp).
  const std::size_t limit_doubles = k20c().shared_mem_per_block / sizeof(double);
  bool body_finished = false;
  Launcher launcher(k20c(), 1);
  launcher.set_hazard_mode(HazardMode::kRecord);
  launcher.launch("oversized_tile", Dim3{1, 1, 1}, [&](BlockCtx& blk) {
    SharedArray<double> tile(blk, limit_doubles + 16, "tile");
    tile[0] = 1.0;
    body_finished = true;
  });
  EXPECT_TRUE(body_finished);
  ASSERT_EQ(launcher.hazard_count(), 1u);
  const auto record = launcher.hazard_records().front();
  EXPECT_EQ(record.kind, HazardKind::kSharedOverflow);
  EXPECT_EQ(record.array, "tile");
  EXPECT_EQ(record.cell, limit_doubles + 16);

  Launcher off(k20c(), 1);
  EXPECT_THROW(
      off.launch("oversized_tile", Dim3{1, 1, 1},
                 [&](BlockCtx& blk) {
                   SharedArray<double> tile(blk, limit_doubles + 16, "tile");
                   tile[0] = 1.0;
                 }),
      std::invalid_argument);
}

// ---- abort mode and async launches -----------------------------------------

TEST(HazardAbort, FirstHazardThrowsHazardError) {
  Launcher launcher(k20c(), 1);
  launcher.set_hazard_mode(HazardMode::kAbort);
  try {
    launcher.launch("racing_writers", Dim3{1, 1, 1}, [](BlockCtx& blk) {
      SharedArray<double> tile(blk, 2, "tile");
      blk.hazard.set_thread_count(4);
      for (int t = 0; t < 4; ++t) tile.store(t, 0, t);
    });
    FAIL() << "expected HazardError";
  } catch (const HazardError& error) {
    EXPECT_EQ(error.record().kind, HazardKind::kRaceWriteWrite);
    EXPECT_EQ(error.record().kernel, "racing_writers");
  }
  // The hazard is still recorded in the sink.
  EXPECT_EQ(launcher.hazard_count(), 1u);
}

TEST(HazardAbort, PoolLaunchRethrowsOnCallingThread) {
  Launcher launcher(k20c(), 2);
  launcher.set_hazard_mode(HazardMode::kAbort);
  EXPECT_THROW(
      launcher.launch("racing_writers", Dim3{4, 1, 1},
                      [](BlockCtx& blk) {
                        SharedArray<double> tile(blk, 2, "tile");
                        blk.hazard.set_thread_count(4);
                        for (int t = 0; t < 4; ++t) tile.store(t, 0, t);
                      }),
      HazardError);
  EXPECT_GE(launcher.hazard_count(), 1u);
}

TEST(HazardAsync, StreamLaunchRecordsHazards) {
  Launcher launcher(k20c(), 2);
  launcher.set_hazard_mode(HazardMode::kRecord);
  Stream stream = launcher.create_stream();
  launcher.launch_async(stream, "missing_barrier", Dim3{1, 1, 1},
                        [](BlockCtx& blk) {
                          SharedArray<double> tile(blk, 4, "tile");
                          blk.hazard.set_thread_count(4);
                          for (int t = 0; t < 4; ++t)
                            tile.store(t, static_cast<std::size_t>(t), t);
                          for (int t = 0; t < 4; ++t)
                            (void)tile.load(
                                t, static_cast<std::size_t>((t + 1) % 4));
                        });
  launcher.synchronize();
  ASSERT_GE(launcher.hazard_count(), 1u);
  EXPECT_EQ(launcher.hazard_records().front().kind,
            HazardKind::kRaceWriteRead);
}

TEST(HazardAsync, AbortModeRethrownAtSynchronize) {
  Launcher launcher(k20c(), 2);
  launcher.set_hazard_mode(HazardMode::kAbort);
  Stream stream = launcher.create_stream();
  launcher.launch_async(stream, "racing_writers", Dim3{1, 1, 1},
                        [](BlockCtx& blk) {
                          SharedArray<double> tile(blk, 2, "tile");
                          blk.hazard.set_thread_count(4);
                          for (int t = 0; t < 4; ++t) tile.store(t, 0, t);
                        });
  EXPECT_THROW(launcher.synchronize(), HazardError);
  // The stored async error is consumed: a second synchronize is clean.
  launcher.synchronize();
  EXPECT_EQ(launcher.hazard_count(), 1u);
}

// ---- snapshot semantics ----------------------------------------------------

TEST(HazardMode, ModeIsSnapshottedAtEnqueueTime) {
  Launcher launcher(k20c(), 1);
  EXPECT_EQ(launcher.hazard_mode(), HazardMode::kOff);
  launcher.launch("off_launch", Dim3{1, 1, 1}, [](BlockCtx& blk) {
    SharedArray<double> tile(blk, 2, "tile");
    blk.hazard.set_thread_count(4);
    // Racy under analysis, but the analyzer is off: nothing is recorded.
    for (int t = 0; t < 4; ++t) tile.store(t, 0, t);
  });
  EXPECT_EQ(launcher.hazard_count(), 0u);
  launcher.set_hazard_mode(HazardMode::kRecord);
  EXPECT_EQ(launcher.hazard_mode(), HazardMode::kRecord);
  launcher.launch("record_launch", Dim3{1, 1, 1}, [](BlockCtx& blk) {
    SharedArray<double> tile(blk, 2, "tile");
    blk.hazard.set_thread_count(4);
    for (int t = 0; t < 4; ++t) tile.store(t, 0, t);
  });
  EXPECT_EQ(launcher.hazard_count(), 1u);
  launcher.clear_hazard_records();
  EXPECT_EQ(launcher.hazard_count(), 0u);
}

}  // namespace
