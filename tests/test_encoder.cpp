// Encode kernel tests (Algorithm 1): kernel checksums equal the host codec's,
// and the fused p-max collection equals a brute-force top-p per vector —
// including the checksum vectors' own lists. The second half covers the
// fused online-checking path (fused_gemm.hpp): light encodes must reproduce
// the standalone encoders' bits, the fused product must be bit-identical to
// blocked_matmul over the materialised encoded operands, and the fenced
// fused kernel must be observationally identical to its instrumented twin
// across 1..8-fault campaigns.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "abft/aabft.hpp"
#include "abft/encoder.hpp"
#include "abft/fused_gemm.hpp"
#include "baselines/schemes.hpp"
#include "core/rng.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace {

using aabft::Rng;
using namespace aabft::abft;
using aabft::gpusim::FaultConfig;
using aabft::gpusim::FaultController;
using aabft::gpusim::FaultSite;
using aabft::gpusim::PerfCounters;
using aabft::linalg::Matrix;
using aabft::linalg::uniform_matrix;

/// Brute-force descending top-p |values| of a vector.
std::vector<std::pair<double, std::size_t>> brute_top_p(
    const std::vector<double>& v, std::size_t p) {
  std::vector<std::pair<double, std::size_t>> entries;
  for (std::size_t i = 0; i < v.size(); ++i)
    entries.emplace_back(std::fabs(v[i]), i);
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  entries.resize(std::min(p, entries.size()));
  return entries;
}

TEST(Encoder, ColumnsMatchHostCodec) {
  Rng rng(1);
  const PartitionedCodec codec(8);
  const Matrix a = uniform_matrix(24, 16, -1.0, 1.0, rng);
  aabft::gpusim::Launcher launcher;
  const EncodedMatrix enc = encode_columns(launcher, a, codec, 2);
  EXPECT_EQ(enc.data, codec.encode_columns_host(a));  // bitwise: same order
}

TEST(Encoder, RowsMatchHostCodec) {
  Rng rng(2);
  const PartitionedCodec codec(8);
  const Matrix b = uniform_matrix(16, 24, -1.0, 1.0, rng);
  aabft::gpusim::Launcher launcher;
  const EncodedMatrix enc = encode_rows(launcher, b, codec, 2);
  EXPECT_EQ(enc.data, codec.encode_rows_host(b));
}

class EncoderPMaxSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t, std::size_t>> {};

TEST_P(EncoderPMaxSweep, ColumnEncodePMaxEqualsBruteForce) {
  const auto [m, n, bs, p] = GetParam();
  Rng rng(m * 7 + n * 3 + p);
  const PartitionedCodec codec(bs);
  const Matrix a = uniform_matrix(m, n, -5.0, 5.0, rng);
  aabft::gpusim::Launcher launcher;
  const EncodedMatrix enc = encode_columns(launcher, a, codec, p);

  ASSERT_EQ(enc.pmax.size(), codec.encoded_dim(m));
  for (std::size_t er = 0; er < enc.pmax.size(); ++er) {
    std::vector<double> row(enc.data.row(er).begin(), enc.data.row(er).end());
    const auto expected = brute_top_p(row, p);
    const PMaxList& got = enc.pmax[er];
    ASSERT_EQ(got.size(), expected.size()) << "row " << er;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i].value, expected[i].first) << "row " << er << " i " << i;
      EXPECT_EQ(std::fabs(row[got[i].index]), got[i].value);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EncoderPMaxSweep,
    ::testing::Values(std::make_tuple(16, 16, 8, 2),
                      std::make_tuple(16, 16, 8, 1),
                      std::make_tuple(32, 24, 8, 4),
                      std::make_tuple(8, 40, 4, 3),
                      std::make_tuple(64, 10, 16, 2),  // ragged column chunk
                      std::make_tuple(24, 7, 8, 2)));  // chunk smaller than bs

TEST(Encoder, RowEncodePMaxEqualsBruteForce) {
  Rng rng(9);
  const PartitionedCodec codec(8);
  const std::size_t p = 2;
  const Matrix b = uniform_matrix(20, 24, -5.0, 5.0, rng);  // ragged row chunk
  aabft::gpusim::Launcher launcher;
  const EncodedMatrix enc = encode_rows(launcher, b, codec, p);

  ASSERT_EQ(enc.pmax.size(), codec.encoded_dim(24));
  for (std::size_t ec = 0; ec < enc.pmax.size(); ++ec) {
    const auto col = enc.data.col(ec);
    const auto expected = brute_top_p(col, p);
    const PMaxList& got = enc.pmax[ec];
    ASSERT_EQ(got.size(), expected.size()) << "col " << ec;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i].value, expected[i].first) << "col " << ec << " i " << i;
      EXPECT_EQ(std::fabs(col[got[i].index]), got[i].value);
    }
  }
}

TEST(Encoder, ChecksumRowsHaveOwnPMax) {
  // The localSums / maxSum path of Algorithm 1: the checksum vector's p-max
  // must reflect the checksum values, not the data.
  Rng rng(10);
  const PartitionedCodec codec(4);
  Matrix a(4, 8, 1.0);   // every column checksum is exactly 4.0
  a(2, 5) = 100.0;       // data row 2 has a dominant value
  aabft::gpusim::Launcher launcher;
  const EncodedMatrix enc = encode_columns(launcher, a, codec, 1);
  const PMaxList& cs = enc.pmax[codec.checksum_index(0)];
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].value, 103.0);  // checksum of column 5: 3*1 + 100
  EXPECT_EQ(cs[0].index, 5u);
  const PMaxList& row2 = enc.pmax[codec.enc_index(2)];
  EXPECT_EQ(row2[0].value, 100.0);
  EXPECT_EQ(row2[0].index, 5u);
}

TEST(Encoder, LaunchesEncodeAndReduceKernels) {
  Rng rng(11);
  const PartitionedCodec codec(8);
  const Matrix a = uniform_matrix(16, 16, -1.0, 1.0, rng);
  aabft::gpusim::Launcher launcher;
  (void)encode_columns(launcher, a, codec, 2);
  ASSERT_EQ(launcher.launch_log().size(), 2u);
  EXPECT_EQ(launcher.launch_log()[0].kernel_name, "encode_a");
  EXPECT_EQ(launcher.launch_log()[1].kernel_name, "reduce_pmax_a");
  // Checksum adds: one add per element of A.
  EXPECT_EQ(launcher.launch_log()[0].counters.adds, 16u * 16u);
  EXPECT_GT(launcher.launch_log()[0].counters.compares, 0u);
}

TEST(Encoder, RejectsIndivisibleDimensions) {
  const PartitionedCodec codec(8);
  aabft::gpusim::Launcher launcher;
  Matrix a(12, 16);
  EXPECT_THROW((void)encode_columns(launcher, a, codec, 2),
               std::invalid_argument);
  Matrix b(16, 12);
  EXPECT_THROW((void)encode_rows(launcher, b, codec, 2),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fused online-checking path (fused_gemm.hpp)
// ---------------------------------------------------------------------------

/// RAII reset so a failing test cannot leak the global switch.
struct ForceInstrumentedGuard {
  ~ForceInstrumentedGuard() { aabft::gpusim::set_force_instrumented(false); }
};

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  return uniform_matrix(rows, cols, -1.0, 1.0, rng);
}

/// Bitwise matrix equality: faulty products legitimately contain NaNs, which
/// compare unequal to themselves under operator==.
bool bits_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

PerfCounters log_total(const aabft::gpusim::Launcher& launcher) {
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

TEST(FusedEncoder, LightColumnsMatchStandaloneEncoder) {
  Rng rng(101);
  const PartitionedCodec codec(16);
  const Matrix a = uniform_matrix(48, 40, -5.0, 5.0, rng);
  aabft::gpusim::Launcher launcher;
  const EncodedMatrix full = encode_columns(launcher, a, codec, 2);
  const LightEncoded light = encode_columns_light(launcher, a, codec, 2);

  // The compact sums rows hold exactly the bits of the encoded checksum rows.
  ASSERT_EQ(light.sums.rows(), 3u);
  ASSERT_EQ(light.sums.cols(), 40u);
  for (std::size_t br = 0; br < light.sums.rows(); ++br)
    for (std::size_t c = 0; c < light.sums.cols(); ++c)
      EXPECT_EQ(light.sums(br, c), full.data(codec.checksum_index(br), c));

  // Materialisation reproduces the standalone encoder's data bitwise.
  EXPECT_EQ(materialize_columns(a, light.sums, codec), full.data);

  // The screened single-sweep p-max equals the scan-and-reduce one (random
  // data: no bit-equal-magnitude ties, so indices agree too).
  ASSERT_EQ(light.pmax.size(), full.pmax.size());
  for (std::size_t v = 0; v < light.pmax.size(); ++v) {
    ASSERT_EQ(light.pmax[v].size(), full.pmax[v].size()) << "vector " << v;
    for (std::size_t i = 0; i < light.pmax[v].size(); ++i) {
      EXPECT_EQ(light.pmax[v][i].value, full.pmax[v][i].value) << v << "," << i;
      EXPECT_EQ(light.pmax[v][i].index, full.pmax[v][i].index) << v << "," << i;
    }
  }
}

TEST(FusedEncoder, LightRowsMatchStandaloneEncoder) {
  Rng rng(102);
  const PartitionedCodec codec(16);
  const Matrix b = uniform_matrix(40, 48, -5.0, 5.0, rng);
  aabft::gpusim::Launcher launcher;
  const EncodedMatrix full = encode_rows(launcher, b, codec, 3);
  const LightEncoded light = encode_rows_light(launcher, b, codec, 3);

  ASSERT_EQ(light.sums.rows(), 40u);
  ASSERT_EQ(light.sums.cols(), 3u);
  for (std::size_t r = 0; r < light.sums.rows(); ++r)
    for (std::size_t bc = 0; bc < light.sums.cols(); ++bc)
      EXPECT_EQ(light.sums(r, bc), full.data(r, codec.checksum_index(bc)));
  EXPECT_EQ(materialize_rows(b, light.sums, codec), full.data);

  ASSERT_EQ(light.pmax.size(), full.pmax.size());
  for (std::size_t v = 0; v < light.pmax.size(); ++v) {
    ASSERT_EQ(light.pmax[v].size(), full.pmax[v].size()) << "vector " << v;
    for (std::size_t i = 0; i < light.pmax[v].size(); ++i) {
      EXPECT_EQ(light.pmax[v][i].value, full.pmax[v][i].value) << v << "," << i;
      EXPECT_EQ(light.pmax[v][i].index, full.pmax[v][i].index) << v << "," << i;
    }
  }
}

TEST(FusedEncoder, LightEncodersFencedBitIdentical) {
  ForceInstrumentedGuard guard;
  const Matrix a = random_matrix(96, 80, 103);
  const PartitionedCodec codec(32);
  aabft::gpusim::Launcher fast_launcher(aabft::gpusim::k20c(), 1);
  const auto fast_a = encode_columns_light(fast_launcher, a, codec, 2);
  const auto fast_b = encode_rows_light(fast_launcher, a.transposed(), codec, 2);
  aabft::gpusim::set_force_instrumented(true);
  aabft::gpusim::Launcher ref_launcher(aabft::gpusim::k20c(), 1);
  const auto ref_a = encode_columns_light(ref_launcher, a, codec, 2);
  const auto ref_b = encode_rows_light(ref_launcher, a.transposed(), codec, 2);
  aabft::gpusim::set_force_instrumented(false);
  EXPECT_TRUE(fast_a.sums == ref_a.sums);
  EXPECT_TRUE(fast_b.sums == ref_b.sums);
  expect_counters_eq(log_total(fast_launcher), log_total(ref_launcher));
  for (std::size_t v = 0; v < fast_a.pmax.size(); ++v)
    EXPECT_EQ(fast_a.pmax[v].max_value(), ref_a.pmax[v].max_value());
}

// The cornerstone of the fused design: the fused product, which never
// materialises A_cc / B_rc, is bit-identical to blocked_matmul over the
// materialised encoded operands — for any blocking, because the per-element
// accumulation order (ascending k + single final merge) is blocking-
// independent.
TEST(FusedGemm, MatchesBlockedMatmulOverEncodedOperands) {
  Rng rng(104);
  const PartitionedCodec codec(16);
  for (const bool use_fma : {false, true}) {
    const Matrix a = uniform_matrix(48, 56, -2.0, 2.0, rng);
    const Matrix b = uniform_matrix(56, 32, -2.0, 2.0, rng);
    aabft::gpusim::Launcher launcher;
    const EncodedMatrix a_cc = encode_columns(launcher, a, codec, 2);
    const EncodedMatrix b_rc = encode_rows(launcher, b, codec, 2);
    aabft::linalg::GemmConfig gemm;
    gemm.use_fma = use_fma;
    const Matrix ref = aabft::linalg::blocked_matmul(launcher, a_cc.data,
                                                     b_rc.data, gemm);

    const LightEncoded a_light = encode_columns_light(launcher, a, codec, 2);
    const LightEncoded b_light = encode_rows_light(launcher, b, codec, 2);
    FusedGemmConfig fused;
    fused.use_fma = use_fma;
    const FusedProduct prod = fused_encode_matmul(
        launcher, a, b, a_light.sums, b_light.sums, codec, fused);
    EXPECT_TRUE(bits_equal(prod.c_fc, ref)) << "use_fma " << use_fma;
    EXPECT_EQ(prod.panel_detections, 0u);
    EXPECT_EQ(prod.panel_recomputes, 0u);
  }
}

// The library pipeline against the paper's kernels (Table I's contender):
// same product and full-checksum bits.
TEST(FusedGemm, PipelineMatchesClassicBits) {
  Rng rng(105);
  const Matrix a = uniform_matrix(64, 48, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(48, 64, -1.0, 1.0, rng);
  AabftConfig config;
  config.bs = 16;

  aabft::gpusim::Launcher launcher;
  aabft::baselines::PaperAabftScheme classic(launcher, config);
  const auto classic_result = classic.multiply(a, b);
  ASSERT_TRUE(classic_result.ok());

  AabftMultiplier fused(launcher, config);
  const auto fused_result = fused.multiply(a, b);
  ASSERT_TRUE(fused_result.ok());

  EXPECT_FALSE(classic_result->error_detected());
  EXPECT_TRUE(bits_equal(fused_result->c, classic_result->c));
  EXPECT_TRUE(bits_equal(fused_result->c_fc, classic_result->c_fc));
  EXPECT_FALSE(fused_result->error_detected());
  EXPECT_EQ(fused_result->panel_detections, 0u);
}

struct FusedRun {
  Matrix c;
  PerfCounters counters;
  std::size_t fired = 0;
  std::size_t detections = 0;
  std::size_t replays = 0;
  std::vector<double> originals;
  std::vector<double> faultys;
};

FusedRun run_fused_kernel(const Matrix& a, const Matrix& b, std::size_t bs,
                          const FusedGemmConfig& config,
                          std::span<const FaultConfig> faults,
                          bool force_instrumented) {
  aabft::gpusim::set_force_instrumented(force_instrumented);
  aabft::gpusim::Launcher launcher(aabft::gpusim::k20c(), /*workers=*/1);
  FaultController controller;
  if (!faults.empty()) {
    controller.arm_many(faults);
    launcher.set_fault_controller(&controller);
  }
  const PartitionedCodec codec(bs);
  const LightEncoded a_light = encode_columns_light(launcher, a, codec, 2);
  const LightEncoded b_light = encode_rows_light(launcher, b, codec, 2);
  FusedProduct product = fused_encode_matmul(launcher, a, b, a_light.sums,
                                             b_light.sums, codec, config);
  FusedRun run;
  run.c = std::move(product.c_fc);
  run.detections = product.panel_detections;
  run.replays = product.panel_recomputes;
  run.counters = log_total(launcher);
  run.fired = controller.fired_count();
  for (std::size_t i = 0; i < controller.armed_count(); ++i) {
    run.originals.push_back(controller.original_value(i));
    run.faultys.push_back(controller.faulty_value(i));
  }
  aabft::gpusim::set_force_instrumented(false);
  return run;
}

// 1..8-fault campaigns: the fenced fused kernel (raw-span accumulation +
// online screen + panel replay) must be observationally identical to the
// force-instrumented per-op one — same product bits, counters, fault
// bookkeeping, and screen/replay counts.
TEST(FusedGemm, RandomFaultCampaignsBitIdentical) {
  ForceInstrumentedGuard guard;
  Rng rng(3037);
  const auto num_sms =
      static_cast<std::uint64_t>(aabft::gpusim::k20c().num_sms);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 32 + 16 * rng.below(4);  // 32..80
    const Matrix a = random_matrix(n, n, 7000 + trial);
    const Matrix b = random_matrix(n, n, 8000 + trial);
    FusedGemmConfig config;
    config.use_fma = (trial % 2) == 1;
    config.check_stride = 1 + trial % 2;

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
    const auto fast = run_fused_kernel(a, b, 16, config, faults, false);
    const auto ref = run_fused_kernel(a, b, 16, config, faults, true);
    EXPECT_TRUE(bits_equal(fast.c, ref.c)) << "trial " << trial;
    expect_counters_eq(fast.counters, ref.counters);
    EXPECT_EQ(fast.fired, ref.fired) << "trial " << trial;
    EXPECT_EQ(fast.detections, ref.detections) << "trial " << trial;
    EXPECT_EQ(fast.replays, ref.replays) << "trial " << trial;
    ASSERT_EQ(fast.originals.size(), ref.originals.size());
    for (std::size_t i = 0; i < fast.originals.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.originals[i]),
                std::bit_cast<std::uint64_t>(ref.originals[i]));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.faultys[i]),
                std::bit_cast<std::uint64_t>(ref.faultys[i]));
    }
  }
}

// A corrupted k-panel is caught by the online screen and repaired by a tile
// replay (the consumed one-shot fault cannot refire), so the full pipeline
// ends with a clean report, rung-0 bookkeeping, and the clean product's bits.
TEST(FusedGemm, PanelDetectionRepairsInnerFault) {
  const Matrix a = random_matrix(64, 64, 106);
  const Matrix b = random_matrix(64, 64, 107);
  AabftConfig config;
  config.bs = 32;
  config.fused.check_stride = 1;

  aabft::gpusim::Launcher clean_launcher(aabft::gpusim::k20c(), 1);
  AabftMultiplier clean_mult(clean_launcher, config);
  const auto clean = clean_mult.multiply(a, b);
  ASSERT_TRUE(clean.ok());

  FaultConfig fault;
  fault.site = FaultSite::kInnerAdd;
  fault.sm_id = 0;
  fault.module_id = 3;
  fault.k_injection = 7;
  fault.error_vec = 1ULL << 62;  // exponent-scale corruption

  aabft::gpusim::Launcher launcher(aabft::gpusim::k20c(), 1);
  FaultController controller;
  controller.arm(fault);
  launcher.set_fault_controller(&controller);
  AabftMultiplier mult(launcher, config);
  const auto result = mult.multiply(a, b);
  launcher.set_fault_controller(nullptr);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(controller.fired_count(), 1u);
  EXPECT_GE(result->panel_detections, 1u);
  EXPECT_GE(result->panel_recomputes, 1u);
  // Repaired online: the end-of-product check never saw the corruption,
  // yet the result still reports the screen's detection.
  EXPECT_TRUE(result->report.clean());
  EXPECT_TRUE(result->error_detected());
  EXPECT_TRUE(result->corrections.empty());
  EXPECT_EQ(result->recomputations, 0u);
  EXPECT_TRUE(bits_equal(result->c, clean->c));
  EXPECT_TRUE(bits_equal(result->c_fc, clean->c_fc));
}

TEST(FusedGemm, LaunchesLightEncodeAndFusedKernels) {
  Rng rng(108);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  AabftConfig config;
  config.bs = 16;
  aabft::gpusim::Launcher launcher;
  AabftMultiplier mult(launcher, config);
  ASSERT_TRUE(mult.multiply(a, a).ok());
  std::vector<std::string> names;
  for (const auto& entry : launcher.launch_log())
    names.push_back(entry.kernel_name);
  // The whole log of a clean multiply: two light encodes, the fused product
  // and the check; no standalone encode, p-max reduction or plain product.
  const std::vector<std::string> expected = {"encode_a_light", "encode_b_light",
                                             "gemm_fused", "check"};
  EXPECT_EQ(names, expected);
}

}  // namespace
