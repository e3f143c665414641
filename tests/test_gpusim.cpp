// SIMT execution model tests: launch coverage, SM assignment, counters,
// fault controller semantics, timing model sanity.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/dim.hpp"
#include "gpusim/fault_site.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/math_ctx.hpp"
#include "gpusim/perf_model.hpp"

namespace {

using namespace aabft::gpusim;

TEST(Dim3, CountAndCoords) {
  const Dim3 grid{4, 3, 2};
  EXPECT_EQ(grid.count(), 24u);
  const BlockCoord c0 = block_coord(grid, 0);
  EXPECT_EQ(c0.x, 0u);
  EXPECT_EQ(c0.y, 0u);
  EXPECT_EQ(c0.z, 0u);
  const BlockCoord c5 = block_coord(grid, 5);
  EXPECT_EQ(c5.x, 1u);
  EXPECT_EQ(c5.y, 1u);
  EXPECT_EQ(c5.z, 0u);
  const BlockCoord c23 = block_coord(grid, 23);
  EXPECT_EQ(c23.x, 3u);
  EXPECT_EQ(c23.y, 2u);
  EXPECT_EQ(c23.z, 1u);
}

TEST(Launcher, VisitsEveryBlockExactlyOnce) {
  Launcher launcher;
  const Dim3 grid{5, 7, 2};
  std::vector<int> visits(grid.count(), 0);
  launcher.launch("cover", grid,
                  [&](BlockCtx& blk) { ++visits[blk.block.linear]; });
  for (const int v : visits) EXPECT_EQ(v, 1);
}

TEST(Launcher, SmAssignmentIsRoundRobin) {
  Launcher launcher(k20c());
  std::vector<int> sm_of_block(30, -1);
  launcher.launch("sm", Dim3{30, 1, 1}, [&](BlockCtx& blk) {
    sm_of_block[blk.block.linear] = blk.math.sm_id();
  });
  for (std::size_t i = 0; i < sm_of_block.size(); ++i)
    EXPECT_EQ(sm_of_block[i], static_cast<int>(i % 13));
}

TEST(Launcher, AggregatesCountersAcrossBlocks) {
  Launcher launcher;
  const auto stats = launcher.launch("count", Dim3{10, 1, 1}, [](BlockCtx& blk) {
    double x = 1.0;
    for (int i = 0; i < 5; ++i) x = blk.math.add(x, 1.0);
    (void)blk.math.mul(x, 2.0);
    blk.math.load_doubles(3);
    blk.math.store_doubles(1);
  });
  EXPECT_EQ(stats.counters.adds, 50u);
  EXPECT_EQ(stats.counters.muls, 10u);
  EXPECT_EQ(stats.counters.bytes_loaded, 240u);
  EXPECT_EQ(stats.counters.bytes_stored, 80u);
  EXPECT_EQ(stats.blocks, 10u);
}

TEST(Launcher, LaunchLogAccumulates) {
  Launcher launcher;
  launcher.launch("first", Dim3{1, 1, 1}, [](BlockCtx&) {});
  launcher.launch("second", Dim3{2, 1, 1}, [](BlockCtx&) {});
  ASSERT_EQ(launcher.launch_log().size(), 2u);
  EXPECT_EQ(launcher.launch_log()[0].kernel_name, "first");
  EXPECT_EQ(launcher.launch_log()[1].kernel_name, "second");
  launcher.clear_launch_log();
  EXPECT_TRUE(launcher.launch_log().empty());
}

TEST(Launcher, EmptyGridRejected) {
  Launcher launcher;
  EXPECT_THROW(launcher.launch("bad", Dim3{0, 1, 1}, [](BlockCtx&) {}),
               std::invalid_argument);
}

TEST(FaultController, FiresOnlyOnExactCoordinates) {
  FaultController controller;
  FaultConfig config;
  config.site = FaultSite::kInnerMul;
  config.sm_id = 3;
  config.module_id = 2;
  config.k_injection = 7;
  config.error_vec = 1ULL << 50;
  controller.arm(config);

  // Mismatching site / sm / module / k: untouched.
  EXPECT_EQ(controller.maybe_inject(FaultSite::kInnerAdd, 3, 2, 7, 1.0), 1.0);
  EXPECT_EQ(controller.maybe_inject(FaultSite::kInnerMul, 4, 2, 7, 1.0), 1.0);
  EXPECT_EQ(controller.maybe_inject(FaultSite::kInnerMul, 3, 1, 7, 1.0), 1.0);
  EXPECT_EQ(controller.maybe_inject(FaultSite::kInnerMul, 3, 2, 8, 1.0), 1.0);
  EXPECT_FALSE(controller.fired());

  // Exact match: corrupted.
  const double hit = controller.maybe_inject(FaultSite::kInnerMul, 3, 2, 7, 1.0);
  EXPECT_NE(hit, 1.0);
  EXPECT_TRUE(controller.fired());
  EXPECT_EQ(controller.original_value(), 1.0);
  EXPECT_EQ(controller.faulty_value(), hit);

  // One-shot: a second exact match passes through.
  EXPECT_EQ(controller.maybe_inject(FaultSite::kInnerMul, 3, 2, 7, 2.0), 2.0);
}

TEST(FaultController, DisarmedPassesThrough) {
  FaultController controller;
  EXPECT_EQ(controller.maybe_inject(FaultSite::kInnerMul, 0, 0, 0, 5.0), 5.0);
  EXPECT_FALSE(controller.armed());
}

TEST(FaultController, RearmResetsFiredFlag) {
  FaultController controller;
  FaultConfig config;
  config.error_vec = 1;
  controller.arm(config);
  (void)controller.maybe_inject(config.site, 0, 0, 0, 1.0);
  EXPECT_TRUE(controller.fired());
  controller.arm(config);
  EXPECT_FALSE(controller.fired());
}

TEST(MathCtx, FaultyOpsComputeCorrectlyWithoutController) {
  MathCtx math(0, nullptr);
  EXPECT_EQ(math.faulty_mul(3.0, 4.0, FaultSite::kInnerMul, 0, 0), 12.0);
  EXPECT_EQ(math.faulty_add(3.0, 4.0, FaultSite::kInnerAdd, 0, 0), 7.0);
  EXPECT_EQ(math.faulty_fma(2.0, 3.0, 1.0, FaultSite::kInnerAdd, 0, 0), 7.0);
  EXPECT_EQ(math.counters().muls, 1u);
  EXPECT_EQ(math.counters().adds, 1u);
  EXPECT_EQ(math.counters().fmas, 1u);
}

// The fenced panel helper must equal the per-op chain of every element, bit
// for bit and counter for counter: both precisions, both accumulation modes,
// every row and column remainder modulo the 4x4 register tile, one-step
// (k = 1) panels, panels longer than one 64-step broadcast chunk, and special
// values. Staged values past k_count are NaN, so
// reading them would show.
TEST(MathCtx, AccumulatePanelMatchesPerOpChain) {
  struct Shape {
    std::size_t rows, cols, bk, k_count;
  };
  std::vector<Shape> shapes = {{4, 4, 8, 8},   {9, 7, 5, 5},   {6, 10, 3, 1},
                               {33, 33, 32, 17}, {1, 1, 1, 1}, {5, 3, 4, 1},
                               {2, 13, 6, 4},  {5, 6, 130, 130},
                               {1, 1, 300, 300}};
  for (std::size_t rows = 1; rows <= 8; ++rows)
    for (std::size_t cols = 1; cols <= 8; ++cols)
      shapes.push_back({rows, cols, 4, 3});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t seed = 1;
  const auto draw = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return seed >> 11;
  };
  // Spread magnitudes over 2^-20..2^20 so the roundings differ per op.
  const auto ordinary = [&draw] {
    const std::uint64_t bits = draw();
    const double unit = static_cast<double>(bits) * 0x1.0p-53;
    return std::ldexp(unit - 0.5, static_cast<int>(bits % 41) - 20);
  };
  // Special values per precision: signed zeros, subnormals, products that
  // underflow, and in binary32 ones that underflow only when rounded to
  // float. A product of two `huge` values overflows to Inf (in binary32
  // only when rounded to float); with any other value it stays finite, and
  // so do sums of those. Huge A entries take the sign s_i t_k and huge B
  // entries t_k u_j, so an element's chain only ever overflows to the one
  // Inf of sign s_i u_j, and no input is Inf: no Inf * 0 or Inf - Inf, whose
  // NaN payloads are not part of the contract.
  struct Specials {
    std::vector<double> finite, huge;
  };
  const Specials double_specials{
      {0.0, -0.0, 0x1p-1074, -0x1p-1060, 0x1.8p-1030, 0x1p-600, -0x1p-530,
       1.0, -0.75},
      {0x1p600, 0x1.8p700}};
  const Specials single_specials{
      {0.0, -0.0, 0x1p-149, -0x1p-140, 0x1.8p-130, 0x1p-70, -0x1p-80, 1.0,
       -0.75},
      {0x1p100, 0x1.8p110}};
  const auto sign = [&draw] { return draw() % 2 == 0 ? 1.0 : -1.0; };

  for (const bool special : {false, true}) {
    for (const auto precision : {Precision::kDouble, Precision::kSingle}) {
      const Specials& sp =
          precision == Precision::kDouble ? double_specials : single_specials;
      const auto pick = [&](double huge_sign) {
        if (!special) return ordinary();
        const std::uint64_t bits = draw();
        if (bits % 8 == 0) return huge_sign * sp.huge[(bits / 8) % sp.huge.size()];
        return sp.finite[(bits / 8) % sp.finite.size()];
      };
      for (const bool use_fma : {false, true}) {
        for (const Shape& s : shapes) {
          std::vector<double> row_sign(s.rows), k_sign(s.k_count),
              col_sign(s.cols);
          for (double& v : row_sign) v = sign();
          for (double& v : k_sign) v = sign();
          for (double& v : col_sign) v = sign();
          std::vector<double> a(s.rows * s.bk, nan);
          std::vector<double> b(s.bk * s.cols, nan);
          std::vector<double> acc(s.rows * s.cols);
          for (std::size_t i = 0; i < s.rows; ++i)
            for (std::size_t kk = 0; kk < s.k_count; ++kk)
              a[i * s.bk + kk] = pick(row_sign[i] * k_sign[kk]);
          for (std::size_t kk = 0; kk < s.k_count; ++kk)
            for (std::size_t j = 0; j < s.cols; ++j)
              b[kk * s.cols + j] = pick(k_sign[kk] * col_sign[j]);
          MathCtx ref(0, nullptr, precision);
          for (double& v : acc) {
            v = special ? sp.finite[draw() % sp.finite.size()] : ordinary();
            v = ref.canonical(v);
          }
          std::vector<double> want = acc;
          for (std::size_t i = 0; i < s.rows; ++i) {
            for (std::size_t j = 0; j < s.cols; ++j) {
              double& e = want[i * s.cols + j];
              for (std::size_t kk = 0; kk < s.k_count; ++kk) {
                const double av = a[i * s.bk + kk];
                const double bv = b[kk * s.cols + j];
                e = use_fma ? ref.fma(av, bv, e) : ref.add(e, ref.mul(av, bv));
              }
              ASSERT_FALSE(std::isnan(e));
            }
          }
          MathCtx fast(0, nullptr, precision);
          fast.accumulate_panel(a.data(), b.data(), acc.data(), s.rows, s.cols,
                                s.bk, s.k_count, use_fma);
          for (std::size_t e = 0; e < acc.size(); ++e)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(acc[e]),
                      std::bit_cast<std::uint64_t>(want[e]))
                << "element " << e << " of " << s.rows << "x" << s.cols
                << " k=" << s.k_count << " fma=" << use_fma
                << " special=" << special;
          EXPECT_EQ(ref.counters().fmas, fast.counters().fmas);
          EXPECT_EQ(ref.counters().muls, fast.counters().muls);
          EXPECT_EQ(ref.counters().adds, fast.counters().adds);
        }
      }
    }
  }
}

TEST(PerfCounters, FlopAccounting) {
  PerfCounters c;
  c.adds = 10;
  c.muls = 5;
  c.fmas = 3;
  EXPECT_EQ(c.flops(), 21u);  // fma counts twice
  PerfCounters d;
  d.adds = 1;
  c += d;
  EXPECT_EQ(c.adds, 11u);
}

TEST(PerfModel, MoreWorkTakesLonger) {
  const DeviceSpec device = k20c();
  PerfCounters small;
  small.muls = 1'000'000;
  PerfCounters large;
  large.muls = 100'000'000;
  const auto profile = gemm_profile();
  EXPECT_LT(kernel_seconds(device, small, profile),
            kernel_seconds(device, large, profile));
}

TEST(PerfModel, GemmEfficiencyCalibration) {
  // The calibrated curve must hit the paper's anchor: ~1048 GFLOPS
  // unprotected at n = 8192, and far less at n = 512.
  const DeviceSpec device = k20c();
  auto gemm_gflops = [&](std::size_t n) {
    PerfCounters c;
    c.muls = n * n * n;
    c.adds = n * n * n;
    c.bytes_loaded = 16 * n * n;
    const double t = kernel_seconds(device, c, gemm_profile());
    return gflops(2 * n * n * n, t);
  };
  EXPECT_NEAR(gemm_gflops(8192), 1048.0, 60.0);
  EXPECT_LT(gemm_gflops(512), 600.0);
  EXPECT_GT(gemm_gflops(512), 300.0);
  EXPECT_LT(gemm_gflops(512), gemm_gflops(1024));
  EXPECT_LT(gemm_gflops(1024), gemm_gflops(4096));
}

TEST(PerfModel, MemoryBoundKernelIsBandwidthLimited) {
  const DeviceSpec device = k20c();
  PerfCounters c;
  c.adds = 1000;                    // negligible compute
  c.bytes_loaded = 1'000'000'000;   // 1 GB
  const double t = kernel_seconds(device, c, streaming_profile());
  // 1 GB at 208 GB/s * 0.5 efficiency ~= 9.6 ms.
  EXPECT_NEAR(t, 1e9 / (208e9 * 0.5), 1e-3);
}

TEST(MathCtx, SharedMemoryBudgetEnforced) {
  MathCtx math(0, nullptr);
  math.set_shared_limit(48 * 1024);
  math.use_shared_doubles(1024);  // 8 KB — fine
  EXPECT_EQ(math.shared_bytes(), 8192u);
  EXPECT_THROW(math.use_shared_doubles(6 * 1024), std::invalid_argument);
}

TEST(MathCtx, SharedMemoryUncheckedWithoutLimit) {
  MathCtx math(0, nullptr);
  EXPECT_NO_THROW(math.use_shared_doubles(1 << 20));
}

TEST(Launcher, OversizedKernelSharedMemoryRejected) {
  // A GEMM blocking whose tiles exceed the K20C's 48 KB per-block shared
  // memory must refuse to "launch" — like the real device.
  Launcher launcher;
  EXPECT_THROW(
      launcher.launch("fat", Dim3{1, 1, 1},
                      [](BlockCtx& blk) {
                        blk.math.use_shared_doubles(64 * 64 * 2);  // 64 KB
                      }),
      std::invalid_argument);
}

TEST(Launcher, OversizedSharedMemoryFailsDeterministicallyOnPool) {
  // Multi-block launches on the worker pool must surface the budget
  // violation as the same exception on the calling thread — never a dead
  // worker or a terminate — every single time.
  for (int attempt = 0; attempt < 3; ++attempt) {
    Launcher launcher(k20c(), 2);
    EXPECT_THROW(
        launcher.launch("fat", Dim3{4, 2, 1},
                        [](BlockCtx& blk) {
                          blk.math.use_shared_doubles(64 * 64 * 2);  // 64 KB
                        }),
        std::invalid_argument);
    // The pool survives the failed launch: a follow-up launch still works.
    std::atomic<int> blocks{0};
    launcher.launch("ok", Dim3{4, 1, 1},
                    [&](BlockCtx&) { blocks.fetch_add(1); });
    EXPECT_EQ(blocks.load(), 4);
  }
}

TEST(Launcher, OversizedSharedMemoryAsyncRethrownAtSynchronize) {
  Launcher launcher(k20c(), 2);
  Stream stream = launcher.create_stream();
  launcher.launch_async(stream, "fat", Dim3{2, 1, 1}, [](BlockCtx& blk) {
    blk.math.use_shared_doubles(64 * 64 * 2);  // 64 KB
  });
  EXPECT_THROW(launcher.synchronize(), std::invalid_argument);
  // The stored error is consumed; the launcher is usable again.
  launcher.synchronize();
  std::atomic<int> blocks{0};
  launcher.launch_async(stream, "ok", Dim3{3, 1, 1},
                        [&](BlockCtx&) { blocks.fetch_add(1); });
  launcher.synchronize();
  EXPECT_EQ(blocks.load(), 3);
}

TEST(Launcher, ReconfiguringDuringSyncLaunchThrows) {
  // The header contract: set_fault_controller / set_precision /
  // set_hazard_mode while a synchronous launch is in flight is misuse, and
  // the launcher enforces it instead of racing.
  Launcher launcher(k20c(), 1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::thread worker([&] {
    launcher.launch("gate", Dim3{1, 1, 1}, [&](BlockCtx&) {
      started.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!started.load()) std::this_thread::yield();
  EXPECT_THROW(launcher.set_fault_controller(nullptr), std::invalid_argument);
  EXPECT_THROW(launcher.set_precision(Precision::kDouble),
               std::invalid_argument);
  EXPECT_THROW(launcher.set_hazard_mode(HazardMode::kRecord),
               std::invalid_argument);
  release.store(true);
  worker.join();
  // With the launch retired the setters work again.
  launcher.set_precision(Precision::kDouble);
  launcher.set_hazard_mode(HazardMode::kOff);
  launcher.set_fault_controller(nullptr);
}

TEST(PerfModel, RejectsNonPositiveProfiles) {
  PerfCounters c;
  EfficiencyProfile bad;
  bad.compute_fraction = 0.0;
  EXPECT_THROW((void)kernel_seconds(k20c(), c, bad), std::invalid_argument);
  EXPECT_THROW((void)gflops(100, 0.0), std::invalid_argument);
}

}  // namespace
