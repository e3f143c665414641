#include "abft/fused_gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "core/require.hpp"
#include "gpusim/hazard.hpp"
#include "linalg/matmul.hpp"

namespace aabft::abft {

using gpusim::BlockCtx;
using gpusim::Dim3;
using linalg::Matrix;

namespace {

/// Slack factor of the online panel screen. The screen is a coarse
/// detector, not the paper's bound: it must never fire on pure rounding
/// (which would cost spurious replays) while still catching the sign/
/// exponent-scale corruption ABFT targets; the end-of-product check keeps
/// the authoritative autonomous bounds.
constexpr double kPanelScreenSlack = 16.0;

/// Offer |v[i]|, i in [0, n), into `list` with indices index0 + i. The
/// current p-th maximum screens the common case down to one comparison.
/// Returns the comparison count (>= n), charged by the caller.
std::size_t offer_span(PMaxList& list, const double* __restrict v,
                       std::size_t n, std::size_t index0) {
  std::size_t comparisons = 0;
  double cut = list.saturated() ? list.min_value() : -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double av = std::fabs(v[i]);
    if (av <= cut) {
      ++comparisons;
      continue;
    }
    comparisons += list.offer(av, index0 + i);
    if (list.saturated()) cut = list.min_value();
  }
  return comparisons;
}

}  // namespace

LightEncoded encode_columns_light(gpusim::Launcher& launcher, const Matrix& a,
                                  const PartitionedCodec& codec,
                                  std::size_t p) {
  AABFT_REQUIRE(p >= 1, "p must be at least 1");
  AABFT_REQUIRE(codec.divides(a.rows()),
                "rows of A must be a multiple of the checksum block size");
  const std::size_t bs = codec.bs();
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t block_rows = m / bs;

  LightEncoded out;
  out.sums = Matrix(block_rows, n, 0.0);
  out.pmax = PMaxTable(codec.encoded_dim(m), PMaxList(p));

  // One block per block row of A; each owns a disjoint slice of the p-max
  // table (its bs data rows plus its checksum row), so no reduction launch
  // is needed.
  launcher.launch("encode_a_light", Dim3{block_rows, 1, 1}, [&](BlockCtx& blk) {
    auto& math = blk.math;
    const std::size_t br = blk.block.x;
    const std::size_t row0 = br * bs;
    math.load_doubles(bs * n);

    // Checksum accumulation straight into the compact sums row — the same
    // ascending-row per-column rounding chains as encode_columns, so the
    // bits equal the materialised checksum row.
    double* __restrict srow = out.sums.data() + br * n;
    if (!gpusim::force_instrumented()) {
      for (std::size_t r = 0; r < bs; ++r)
        math.add_rows(srow, a.data() + (row0 + r) * n, n);
    } else {
      for (std::size_t c = 0; c < n; ++c) {
        double sum = 0.0;
        for (std::size_t r = 0; r < bs; ++r) sum = math.add(sum, a(row0 + r, c));
        srow[c] = sum;
      }
    }

    // p-max determination fused into the same pass: one screened sweep per
    // vector instead of p max-scan-and-zero passes over an abs scratch
    // matrix. Shared by both paths (identical results and counts).
    std::size_t comparisons = 0;
    for (std::size_t r = 0; r < bs; ++r)
      comparisons += offer_span(out.pmax[codec.enc_index(row0 + r)],
                                a.data() + (row0 + r) * n, n, 0);
    comparisons += offer_span(out.pmax[codec.checksum_index(br)], srow, n, 0);
    math.count_compares(comparisons);
    math.store_doubles(n + (bs + 1) * p * 2);
  });
  return out;
}

LightEncoded encode_rows_light(gpusim::Launcher& launcher, const Matrix& b,
                               const PartitionedCodec& codec, std::size_t p) {
  AABFT_REQUIRE(p >= 1, "p must be at least 1");
  AABFT_REQUIRE(codec.divides(b.cols()),
                "columns of B must be a multiple of the checksum block size");
  const std::size_t bs = codec.bs();
  const std::size_t n = b.rows();
  const std::size_t q = b.cols();
  const std::size_t block_cols = q / bs;

  LightEncoded out;
  out.sums = Matrix(n, block_cols, 0.0);
  out.pmax = PMaxTable(codec.encoded_dim(q), PMaxList(p));

  // One block per block column of B, owning that block's p-max slice.
  launcher.launch("encode_b_light", Dim3{block_cols, 1, 1}, [&](BlockCtx& blk) {
    auto& math = blk.math;
    const std::size_t bc = blk.block.x;
    const std::size_t col0 = bc * bs;
    math.load_doubles(n * bs);

    PMaxList& cs_list = out.pmax[codec.checksum_index(bc)];
    std::vector<double> cuts(bs, -1.0);
    double cs_cut = -1.0;
    std::size_t comparisons = 0;
    const bool instrumented = gpusim::force_instrumented();
    for (std::size_t r = 0; r < n; ++r) {
      const double* __restrict b_row = b.data() + r * q + col0;
      double sum = 0.0;
      if (!instrumented) {
        sum = math.sum_strided(b_row, bs, 1);
      } else {
        for (std::size_t c = 0; c < bs; ++c) sum = math.add(sum, b_row[c]);
      }
      out.sums(r, bc) = sum;

      // Column-direction offers, visited in ascending r like the standalone
      // encoder's merge order; the checksum column tracks |row sum|.
      for (std::size_t c = 0; c < bs; ++c) {
        const double av = std::fabs(b_row[c]);
        if (av <= cuts[c]) {
          ++comparisons;
          continue;
        }
        PMaxList& list = out.pmax[codec.enc_index(col0 + c)];
        comparisons += list.offer(av, r);
        if (list.saturated()) cuts[c] = list.min_value();
      }
      const double asum = std::fabs(sum);
      if (asum <= cs_cut) {
        ++comparisons;
      } else {
        comparisons += cs_list.offer(asum, r);
        if (cs_list.saturated()) cs_cut = cs_list.min_value();
      }
    }
    math.count_compares(comparisons);
    math.store_doubles(n + (bs + 1) * p * 2);
  });
  return out;
}

FusedProduct fused_encode_matmul(gpusim::Launcher& launcher, const Matrix& a,
                                 const Matrix& b, const Matrix& a_sums,
                                 const Matrix& b_sums,
                                 const PartitionedCodec& codec,
                                 const FusedGemmConfig& config) {
  AABFT_REQUIRE(config.valid(), "invalid fused-GEMM configuration");
  AABFT_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  const std::size_t bs = codec.bs();
  const std::size_t m = a.rows();
  const std::size_t k_dim = a.cols();
  const std::size_t q = b.cols();
  AABFT_REQUIRE(codec.divides(m) && codec.divides(q),
                "operand extents must be multiples of the checksum block size");
  AABFT_REQUIRE(a_sums.rows() == m / bs && a_sums.cols() == k_dim,
                "a_sums must be (m / bs) x k");
  AABFT_REQUIRE(b_sums.rows() == k_dim && b_sums.cols() == q / bs,
                "b_sums must be k x (q / bs)");

  // One thread block per (BS+1) x (BS+1) checksum block of C_fc: the tile
  // then holds complete checksum columns, which is what makes the per-panel
  // online screen possible. The per-element accumulation order is identical
  // to blocked_matmul's (ascending k, merge into zero-initialised C), so the
  // product is bit-identical to the unfused kernel regardless of blocking.
  const std::size_t bm = bs + 1;
  const std::size_t bn = bs + 1;
  const std::size_t bk = config.bk;
  const linalg::GemmConfig tile{bm, bn, bk, config.rx, config.ry,
                                config.use_fma};
  const int t_bits =
      launcher.precision() == gpusim::Precision::kSingle ? 23 : 52;

  FusedProduct out;
  out.c_fc = Matrix(codec.encoded_dim(m), codec.encoded_dim(q), 0.0);
  Matrix& c = out.c_fc;
  std::atomic<std::size_t> detections{0};
  std::atomic<std::size_t> replays{0};

  const Dim3 grid{q / bs, m / bs, 1};
  launcher.launch("gemm_fused", grid, [&](BlockCtx& blk) {
    auto& math = blk.math;
    const std::size_t tile_row = blk.block.y;
    const std::size_t tile_col = blk.block.x;
    const std::size_t row0 = tile_row * bs;  // data-row base in A
    const std::size_t col0 = tile_col * bs;  // data-column base in B
    const std::size_t er0 = tile_row * bm;   // encoded bases in C_fc
    const std::size_t ec0 = tile_col * bn;

    std::vector<double> accum(bm * bn, 0.0);
    gpusim::SharedArray<double> sm_a(blk, bm * bk, "sm_a");
    gpusim::SharedArray<double> sm_b(blk, bk * bn, "sm_b");

    // Hazard model: one logical thread per encoded column, owning that
    // column of the accumulator tile; staging is strided over all threads.
    const int num_threads = static_cast<int>(bn);
    blk.hazard.set_thread_count(num_threads);

    const std::size_t num_panels = (k_dim + bk - 1) / bk;

    // Stage and accumulate one K panel through the blocked kernel's panel
    // step. The encoded operands are staged virtually: data rows/columns
    // from a and b, checksum rows/columns from the compact light-encode
    // sums. Returns k progressed so far.
    const auto stage_and_accumulate = [&](std::size_t panel) {
      const std::size_t kbase = panel * bk;
      const std::size_t k_count = std::min(bk, k_dim - kbase);

      for (std::size_t i = 0; i < bm; ++i) {
        const double* src = i < bs
                                ? a.data() + (row0 + i) * k_dim + kbase
                                : a_sums.data() + tile_row * k_dim + kbase;
        std::copy_n(src, k_count, sm_a.data() + i * bk);
        std::fill_n(sm_a.data() + i * bk + k_count, bk - k_count, 0.0);
      }
      for (std::size_t kk = 0; kk < k_count; ++kk) {
        const std::size_t gk = kbase + kk;
        std::copy_n(b.data() + gk * q + col0, bs, sm_b.data() + kk * bn);
        sm_b[kk * bn + bs] = b_sums(gk, tile_col);
      }
      if (k_count < bk)
        std::fill_n(sm_b.data() + k_count * bn, (bk - k_count) * bn, 0.0);
      math.load_doubles(bm * k_count + k_count * bn);

      if (blk.hazard.enabled()) {
        for (std::size_t e = 0; e < bm * bk; ++e)
          sm_a.note_write(
              static_cast<int>(e % static_cast<std::size_t>(num_threads)), e);
        for (std::size_t e = 0; e < bk * bn; ++e)
          sm_b.note_write(
              static_cast<int>(e % static_cast<std::size_t>(num_threads)), e);
        blk.hazard.sync_threads();
      }

      linalg::panel_step(math, tile, sm_a.data(), sm_b.data(), accum.data(),
                         kbase, k_count);

      if (blk.hazard.enabled()) {
        for (std::size_t i = 0; i < bm; ++i)
          for (std::size_t kk = 0; kk < k_count; ++kk)
            for (int tj = 0; tj < num_threads; ++tj)
              sm_a.note_read(tj, i * bk + kk);
        for (std::size_t kk = 0; kk < k_count; ++kk)
          for (std::size_t j = 0; j < bn; ++j)
            sm_b.note_read(static_cast<int>(j), kk * bn + j);
        blk.hazard.sync_threads();
      }
      return kbase + k_count;
    };

    // Online screen: after k terms every tile column must satisfy the
    // column-checksum identity — the checksum-row accumulator equals the sum
    // of the bs data-row accumulators — up to rounding. Deterministic on the
    // bit-identical accumulators, so fenced and instrumented runs agree.
    // Row-major sweeps (add_rows per data row) keep the screen vectorizable;
    // the per-column rounding chains still ascend i, as before.
    std::vector<double> refs(bn);
    std::vector<double> mags(bn);
    const auto screen = [&](std::size_t k_so_far) {
      std::fill(refs.begin(), refs.end(), 0.0);
      std::fill(mags.begin(), mags.end(), 0.0);
      for (std::size_t i = 0; i < bs; ++i) {
        const double* __restrict row = accum.data() + i * bn;
        math.add_rows(refs.data(), row, bn);
        double* __restrict mrow = mags.data();
        for (std::size_t j = 0; j < bn; ++j)
          mrow[j] += std::fabs(row[j]);  // aabft-lint: allow (screen scale, bulk-counted)
      }
      bool ok = true;
      for (std::size_t j = 0; j < bn; ++j) {
        const double via = accum[bs * bn + j];
        const double scale = mags[j] + std::fabs(via);  // aabft-lint: allow (screen scale, bulk-counted)
        const double eps =  // aabft-lint: allow (coarse screen bound, bulk-counted)
            kPanelScreenSlack * static_cast<double>(k_so_far + bs) *
            std::ldexp(scale, -t_bits);
        const double diff = std::fabs(refs[j] - via);  // aabft-lint: allow (screen compare, bulk-counted)
        if (!(diff <= eps)) ok = false;  // NaN-aware
      }
      math.count_adds((bs + 2) * bn);  // add_rows counted the ref chains
      math.count_muls(3 * bn);
      math.count_compares((bs + 2) * bn);
      return ok;
    };

    std::size_t tile_detections = 0;
    std::size_t tile_replays = 0;
    for (std::size_t panel = 0; panel < num_panels; ++panel) {
      const std::size_t k_so_far = stage_and_accumulate(panel);
      const bool check_due = (panel + 1) % config.check_stride == 0 ||
                             panel + 1 == num_panels;
      if (!check_due || screen(k_so_far)) continue;
      ++tile_detections;
      // Panel-granular repair, the recovery ladder's earliest rung: replay
      // this tile's panels from k = 0. A one-shot fault that caused the
      // mismatch has fired and been consumed, so the replay re-executes the
      // identical op sequence cleanly — bit-exact, no checksum patching.
      for (std::size_t attempt = 0; attempt < config.max_panel_recomputes;
           ++attempt) {
        std::fill(accum.begin(), accum.end(), 0.0);
        ++tile_replays;
        std::size_t replayed_k = 0;
        for (std::size_t p2 = 0; p2 <= panel; ++p2)
          replayed_k = stage_and_accumulate(p2);
        if (screen(replayed_k)) break;
        ++tile_detections;  // the replay itself was hit (or damage persists)
      }
    }

    // Final merge into the zero-initialised C_fc (tiles are always interior:
    // encoded extents are multiples of BS+1).
    linalg::merge_tile(math, tile, accum.data(),
                       c.data() + er0 * c.cols() + ec0, c.cols(), bm, bn);

    if (tile_detections > 0)
      detections.fetch_add(tile_detections, std::memory_order_relaxed);
    if (tile_replays > 0)
      replays.fetch_add(tile_replays, std::memory_order_relaxed);
  });

  out.panel_detections = detections.load();
  out.panel_recomputes = replays.load();
  return out;
}

Matrix materialize_columns(const Matrix& a, const Matrix& a_sums,
                           const PartitionedCodec& codec) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  AABFT_REQUIRE(codec.divides(m), "rows of A must be a block multiple");
  AABFT_REQUIRE(a_sums.rows() == m / codec.bs() && a_sums.cols() == n,
                "a_sums must be (m / bs) x n");
  Matrix enc(codec.encoded_dim(m), n, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    std::copy_n(a.data() + i * n, n, enc.data() + codec.enc_index(i) * n);
  for (std::size_t br = 0; br < a_sums.rows(); ++br)
    std::copy_n(a_sums.data() + br * n, n,
                enc.data() + codec.checksum_index(br) * n);
  return enc;
}

Matrix materialize_rows(const Matrix& b, const Matrix& b_sums,
                        const PartitionedCodec& codec) {
  const std::size_t n = b.rows();
  const std::size_t q = b.cols();
  AABFT_REQUIRE(codec.divides(q), "columns of B must be a block multiple");
  AABFT_REQUIRE(b_sums.rows() == n && b_sums.cols() == q / codec.bs(),
                "b_sums must be n x (q / bs)");
  Matrix enc(n, codec.encoded_dim(q), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < q; ++j)
      enc(i, codec.enc_index(j)) = b(i, j);
    for (std::size_t bc = 0; bc < b_sums.cols(); ++bc)
      enc(i, codec.checksum_index(bc)) = b_sums(i, bc);
  }
  return enc;
}

}  // namespace aabft::abft
