// Fault-fence fast-path A/B tests.
//
// The fenced fast path (FaultController::may_fire + MathCtx span helpers)
// must be *observationally identical* to the per-op instrumented path: same
// C bits, same PerfCounters aggregates, same fired/original/faulty fault
// bookkeeping. gpusim::set_force_instrumented(true) disables every fence,
// giving the per-op reference side of each A/B pair. Single-worker launchers
// keep multi-block fault firing deterministic (a one-shot fault whose
// coordinates exist in several blocks fires in the first block reached).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "abft/aabft.hpp"
#include "abft/encoder.hpp"
#include "abft/gemv.hpp"
#include "baselines/op.hpp"
#include "baselines/schemes.hpp"
#include "baselines/sea_abft.hpp"
#include "core/rng.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace {

using namespace aabft;
using gpusim::FaultConfig;
using gpusim::FaultController;
using gpusim::FaultSite;
using gpusim::PerfCounters;
using linalg::Matrix;

/// RAII reset so a failing test cannot leak the global switch.
struct ForceInstrumentedGuard {
  ~ForceInstrumentedGuard() { gpusim::set_force_instrumented(false); }
};

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  return linalg::uniform_matrix(rows, cols, -1.0, 1.0, rng);
}

/// Bitwise matrix equality: faulty products legitimately contain NaNs, which
/// compare unequal to themselves under operator==.
bool bits_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

std::uint64_t dbits(double v) { return std::bit_cast<std::uint64_t>(v); }

PerfCounters log_total(const gpusim::Launcher& launcher) {
  PerfCounters total;
  for (const auto& entry : launcher.launch_log()) total += entry.counters;
  return total;
}

void expect_counters_eq(const PerfCounters& a, const PerfCounters& b) {
  EXPECT_EQ(a.adds, b.adds);
  EXPECT_EQ(a.muls, b.muls);
  EXPECT_EQ(a.fmas, b.fmas);
  EXPECT_EQ(a.compares, b.compares);
  EXPECT_EQ(a.bytes_loaded, b.bytes_loaded);
  EXPECT_EQ(a.bytes_stored, b.bytes_stored);
}

TEST(FaultFence, MayFireIntersectsOnlyMatchingRegions) {
  FaultController controller;
  FaultConfig config;
  config.site = FaultSite::kInnerAdd;
  config.sm_id = 3;
  config.module_id = 7;
  config.k_injection = 100;
  config.error_vec = 1ULL << 52;
  controller.arm(config);

  const auto inner_lo = FaultSite::kInnerMul;
  const auto inner_hi = FaultSite::kInnerAdd;
  EXPECT_TRUE(controller.may_fire(inner_lo, inner_hi, 3, 0, 15, 96, 103));
  // Each coordinate dimension individually excludes the fault.
  EXPECT_FALSE(controller.may_fire(FaultSite::kFinalAdd, FaultSite::kFinalAdd,
                                   3, 0, 15, 96, 103));
  EXPECT_FALSE(controller.may_fire(inner_lo, inner_hi, 2, 0, 15, 96, 103));
  EXPECT_FALSE(controller.may_fire(inner_lo, inner_hi, 3, 8, 15, 96, 103));
  EXPECT_FALSE(controller.may_fire(inner_lo, inner_hi, 3, 0, 6, 96, 103));
  EXPECT_FALSE(controller.may_fire(inner_lo, inner_hi, 3, 0, 15, 101, 200));
  EXPECT_FALSE(controller.may_fire(inner_lo, inner_hi, 3, 0, 15, 0, 99));

  // A fired fault can never fire again: the fence goes negative.
  (void)controller.maybe_inject(FaultSite::kInnerAdd, 3, 7, 100, 1.0);
  EXPECT_EQ(controller.fired_count(), 1u);
  EXPECT_FALSE(controller.may_fire(inner_lo, inner_hi, 3, 0, 15, 96, 103));

  controller.disarm();
  EXPECT_FALSE(controller.may_fire(inner_lo, inner_hi, 3, 0, 15, 96, 103));
}

struct MatmulRun {
  Matrix c;
  PerfCounters counters;
  std::size_t fired = 0;
  std::vector<double> originals;
  std::vector<double> faultys;
};

MatmulRun run_blocked(const Matrix& a, const Matrix& b,
                      const linalg::GemmConfig& config,
                      std::span<const FaultConfig> faults,
                      gpusim::Precision precision, bool force_instrumented) {
  gpusim::set_force_instrumented(force_instrumented);
  gpusim::Launcher launcher(gpusim::k20c(), /*workers=*/1);
  launcher.set_precision(precision);
  FaultController controller;
  if (!faults.empty()) {
    controller.arm_many(faults);
    launcher.set_fault_controller(&controller);
  }
  MatmulRun run;
  run.c = linalg::blocked_matmul(launcher, a, b, config);
  run.counters = log_total(launcher);
  run.fired = controller.fired_count();
  for (std::size_t i = 0; i < controller.armed_count(); ++i) {
    run.originals.push_back(controller.original_value(i));
    run.faultys.push_back(controller.faulty_value(i));
  }
  gpusim::set_force_instrumented(false);
  return run;
}

void expect_runs_identical(const MatmulRun& fast, const MatmulRun& ref) {
  EXPECT_TRUE(bits_equal(fast.c, ref.c));
  expect_counters_eq(fast.counters, ref.counters);
  EXPECT_EQ(fast.fired, ref.fired);
  ASSERT_EQ(fast.originals.size(), ref.originals.size());
  for (std::size_t i = 0; i < fast.originals.size(); ++i) {
    EXPECT_EQ(dbits(fast.originals[i]), dbits(ref.originals[i])) << "fault " << i;
    EXPECT_EQ(dbits(fast.faultys[i]), dbits(ref.faultys[i])) << "fault " << i;
  }
}

TEST(FastPath, FaultFreeBlockedMatmulBitIdentical) {
  ForceInstrumentedGuard guard;
  // Ragged dimensions exercise both the memcpy and the padded staging path.
  const Matrix a = random_matrix(100, 83, 11);
  const Matrix b = random_matrix(83, 97, 12);
  for (const bool use_fma : {false, true}) {
    for (const auto precision :
         {gpusim::Precision::kDouble, gpusim::Precision::kSingle}) {
      linalg::GemmConfig config;
      config.use_fma = use_fma;
      const auto fast = run_blocked(a, b, config, {}, precision, false);
      const auto ref = run_blocked(a, b, config, {}, precision, true);
      expect_runs_identical(fast, ref);
    }
  }
}

TEST(FastPath, RandomFaultCampaignsBitIdentical) {
  ForceInstrumentedGuard guard;
  Rng rng(2027);
  const auto num_sms = static_cast<std::uint64_t>(gpusim::k20c().num_sms);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 32 + 16 * rng.below(4);  // 32..80
    const Matrix a = random_matrix(n, n, 1000 + trial);
    const Matrix b = random_matrix(n, n, 2000 + trial);
    linalg::GemmConfig config;
    config.use_fma = (trial % 2) == 1;

    const std::size_t num_faults = 1 + rng.below(FaultController::kMaxFaults);
    std::vector<FaultConfig> faults(num_faults);
    for (auto& fault : faults) {
      const std::uint64_t site = rng.below(3);
      fault.site = site == 0   ? FaultSite::kInnerMul
                   : site == 1 ? FaultSite::kInnerAdd
                               : FaultSite::kFinalAdd;
      fault.sm_id = static_cast<int>(rng.below(num_sms));
      fault.module_id = static_cast<int>(rng.below(16));  // rx*ry = 16
      fault.k_injection = fault.site == FaultSite::kFinalAdd
                              ? 0
                              : static_cast<std::int64_t>(rng.below(n));
      fault.error_vec = 1ULL << rng.below(63);
    }
    // Inner-mul faults can never hit an FMA kernel (the mul is fused);
    // that is part of what the A/B comparison must preserve.
    const auto fast = run_blocked(a, b, config, faults,
                                  gpusim::Precision::kDouble, false);
    const auto ref = run_blocked(a, b, config, faults,
                                 gpusim::Precision::kDouble, true);
    expect_runs_identical(fast, ref);
  }
}

TEST(FastPath, FiredFaultMatchesInstrumentedValue) {
  ForceInstrumentedGuard guard;
  const Matrix a = random_matrix(64, 64, 21);
  const Matrix b = random_matrix(64, 64, 22);
  FaultConfig fault;
  fault.site = FaultSite::kInnerAdd;
  fault.sm_id = 1;
  fault.module_id = 5;
  fault.k_injection = 17;
  fault.error_vec = 1ULL << 61;
  const auto fast = run_blocked(a, b, {}, {&fault, 1},
                                gpusim::Precision::kDouble, false);
  const auto ref = run_blocked(a, b, {}, {&fault, 1},
                               gpusim::Precision::kDouble, true);
  EXPECT_EQ(fast.fired, 1u);
  expect_runs_identical(fast, ref);
  // The fault must actually corrupt the product (the fence did not skip it).
  const auto clean = run_blocked(a, b, {}, {}, gpusim::Precision::kDouble,
                                 false);
  EXPECT_FALSE(bits_equal(fast.c, clean.c));
}

TEST(FastPath, PairwiseMatmulBitIdentical) {
  ForceInstrumentedGuard guard;
  const Matrix a = random_matrix(70, 45, 31);
  const Matrix b = random_matrix(45, 66, 32);
  gpusim::Launcher fast_launcher(gpusim::k20c(), 1);
  const Matrix fast = linalg::pairwise_matmul(fast_launcher, a, b);
  gpusim::set_force_instrumented(true);
  gpusim::Launcher ref_launcher(gpusim::k20c(), 1);
  const Matrix ref = linalg::pairwise_matmul(ref_launcher, a, b);
  gpusim::set_force_instrumented(false);
  EXPECT_TRUE(fast == ref);
  expect_counters_eq(log_total(fast_launcher), log_total(ref_launcher));
}

TEST(FastPath, EncoderBitIdentical) {
  ForceInstrumentedGuard guard;
  const Matrix a = random_matrix(96, 80, 41);  // ragged 80 % 32 != 0 chunks
  const abft::PartitionedCodec codec(32);
  gpusim::Launcher fast_launcher(gpusim::k20c(), 1);
  const auto fast_cols = abft::encode_columns(fast_launcher, a, codec, 2);
  const auto fast_rows = abft::encode_rows(fast_launcher, a.transposed(),
                                           codec, 2);
  gpusim::set_force_instrumented(true);
  gpusim::Launcher ref_launcher(gpusim::k20c(), 1);
  const auto ref_cols = abft::encode_columns(ref_launcher, a, codec, 2);
  const auto ref_rows = abft::encode_rows(ref_launcher, a.transposed(),
                                          codec, 2);
  gpusim::set_force_instrumented(false);
  EXPECT_TRUE(fast_cols.data == ref_cols.data);
  EXPECT_TRUE(fast_rows.data == ref_rows.data);
  expect_counters_eq(log_total(fast_launcher), log_total(ref_launcher));
  ASSERT_EQ(fast_cols.pmax.size(), ref_cols.pmax.size());
  for (std::size_t v = 0; v < fast_cols.pmax.size(); ++v)
    EXPECT_EQ(fast_cols.pmax[v].max_value(), ref_cols.pmax[v].max_value());
}

TEST(FastPath, ProtectedGemvBitIdenticalUnderFaults) {
  ForceInstrumentedGuard guard;
  const Matrix a = random_matrix(96, 64, 51);
  Rng rng(52);
  std::vector<double> x(64);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);

  FaultConfig fault;
  fault.site = FaultSite::kInnerAdd;
  fault.sm_id = 2;
  fault.module_id = 0;
  fault.k_injection = 30;
  fault.error_vec = 1ULL << 60;

  auto run = [&](bool force) {
    gpusim::set_force_instrumented(force);
    gpusim::Launcher launcher(gpusim::k20c(), 1);
    FaultController controller;
    controller.arm(fault);
    launcher.set_fault_controller(&controller);
    abft::ProtectedGemv gemv(launcher, a, {});
    auto result = gemv.multiply(x);
    gpusim::set_force_instrumented(false);
    return std::tuple(std::move(result), log_total(launcher),
                      controller.fired_count());
  };
  const auto [fast, fast_counters, fast_fired] = run(false);
  const auto [ref, ref_counters, ref_fired] = run(true);
  EXPECT_EQ(fast.y, ref.y);
  EXPECT_EQ(fast.ok, ref.ok);
  EXPECT_EQ(fast.mismatches.size(), ref.mismatches.size());
  EXPECT_EQ(fast.recomputations, ref.recomputations);
  EXPECT_EQ(fast_fired, ref_fired);
  expect_counters_eq(fast_counters, ref_counters);
}

TEST(FastPath, ProtectedBlas3GemmPathBitIdentical) {
  // The ProtectedBlas3 redesign regression: AabftScheme::execute on a GEMM
  // descriptor must be byte-identical to the direct AabftMultiplier it wraps
  // — same product bits, same fault bookkeeping — across 1..8-fault
  // campaigns. Any divergence means the adapter grew its own math.
  ForceInstrumentedGuard guard;
  Rng rng(7027);
  const auto num_sms = static_cast<std::uint64_t>(gpusim::k20c().num_sms);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 32 + 16 * rng.below(3);  // 32..64
    const Matrix a = random_matrix(n, n, 5000 + trial);
    const Matrix b = random_matrix(n, n, 6000 + trial);

    const std::size_t num_faults = 1 + rng.below(FaultController::kMaxFaults);
    std::vector<FaultConfig> faults(num_faults);
    for (auto& fault : faults) {
      const std::uint64_t site = rng.below(3);
      fault.site = site == 0   ? FaultSite::kInnerMul
                   : site == 1 ? FaultSite::kInnerAdd
                               : FaultSite::kFinalAdd;
      fault.sm_id = static_cast<int>(rng.below(num_sms));
      fault.module_id = static_cast<int>(rng.below(16));
      fault.k_injection = fault.site == FaultSite::kFinalAdd
                              ? 0
                              : static_cast<std::int64_t>(rng.below(n));
      fault.error_vec = 1ULL << (52 + rng.below(10));
    }

    abft::AabftConfig config;
    config.bs = 16;

    auto via_scheme = [&] {
      gpusim::Launcher launcher(gpusim::k20c(), 1);
      FaultController controller;
      controller.arm_many(faults);
      launcher.set_fault_controller(&controller);
      baselines::AabftScheme scheme(launcher, config);
      auto result = scheme.execute(
          baselines::OpDescriptor::gemm(n, n, n), a, b);
      launcher.set_fault_controller(nullptr);
      return std::pair(std::move(result), controller.fired_count());
    }();
    auto via_mult = [&] {
      gpusim::Launcher launcher(gpusim::k20c(), 1);
      FaultController controller;
      controller.arm_many(faults);
      launcher.set_fault_controller(&controller);
      abft::AabftMultiplier mult(launcher, config);
      auto result = mult.multiply(a, b);
      launcher.set_fault_controller(nullptr);
      return std::pair(std::move(result), controller.fired_count());
    }();

    EXPECT_EQ(via_scheme.second, via_mult.second) << "trial " << trial;
    ASSERT_EQ(via_scheme.first.ok(), via_mult.first.ok()) << "trial " << trial;
    if (!via_scheme.first.ok()) continue;  // both refused identically
    const baselines::OpOutcome& s = *via_scheme.first;
    const abft::AabftResult& m = *via_mult.first;
    EXPECT_TRUE(bits_equal(s.c, m.c)) << "trial " << trial;
    EXPECT_EQ(s.detected, m.error_detected()) << "trial " << trial;
    EXPECT_EQ(s.corrections, m.corrections.size()) << "trial " << trial;
    EXPECT_EQ(s.block_recomputes, m.block_recomputes) << "trial " << trial;
    EXPECT_EQ(s.recomputed, m.recomputations) << "trial " << trial;
  }
}

TEST(FastPath, SeaSchemeBitIdentical) {
  ForceInstrumentedGuard guard;
  const Matrix a = random_matrix(64, 64, 61);
  const Matrix b = random_matrix(64, 64, 62);
  auto run = [&](bool force) {
    gpusim::set_force_instrumented(force);
    gpusim::Launcher launcher(gpusim::k20c(), 1);
    baselines::SeaAbftMultiplier mult(launcher, {});
    auto result = mult.multiply(a, b);
    gpusim::set_force_instrumented(false);
    return std::pair(std::move(result), log_total(launcher));
  };
  const auto [fast, fast_counters] = run(false);
  const auto [ref, ref_counters] = run(true);
  EXPECT_TRUE(fast.c == ref.c);
  EXPECT_EQ(fast.report.mismatches.size(), ref.report.mismatches.size());
  expect_counters_eq(fast_counters, ref_counters);
}

}  // namespace
