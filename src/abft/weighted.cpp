#include "core/sync.hpp"
#include "abft/weighted.hpp"

#include <cmath>

#include "abft/pmax_scan.hpp"
#include "abft/upper_bound.hpp"
#include "core/require.hpp"

namespace aabft::abft {

using gpusim::BlockCtx;
using gpusim::Dim3;
using linalg::Matrix;

linalg::Matrix WeightedCodec::encode_columns_host(const Matrix& a) const {
  AABFT_REQUIRE(divides(a.rows()), "rows of A must be a multiple of BS");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix enc(encoded_dim(m), n, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) enc(enc_index(i), j) = a(i, j);
  for (std::size_t blk = 0; blk < num_blocks(m); ++blk) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      double wsum = 0.0;
      for (std::size_t i = 0; i < bs_; ++i) {
        const double v = a(blk * bs_ + i, j);
        sum += v;
        wsum += weight(i) * v;
      }
      enc(sum_index(blk), j) = sum;
      enc(weighted_index(blk), j) = wsum;
    }
  }
  return enc;
}

linalg::Matrix WeightedCodec::encode_rows_host(const Matrix& b) const {
  AABFT_REQUIRE(divides(b.cols()), "columns of B must be a multiple of BS");
  const std::size_t n = b.rows();
  const std::size_t q = b.cols();
  Matrix enc(n, encoded_dim(q), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < q; ++j) enc(i, enc_index(j)) = b(i, j);
    for (std::size_t blk = 0; blk < num_blocks(q); ++blk) {
      double sum = 0.0;
      double wsum = 0.0;
      for (std::size_t j = 0; j < bs_; ++j) {
        const double v = b(i, blk * bs_ + j);
        sum += v;
        wsum += weight(j) * v;
      }
      enc(i, sum_index(blk)) = sum;
      enc(i, weighted_index(blk)) = wsum;
    }
  }
  return enc;
}

linalg::Matrix WeightedCodec::strip(const Matrix& c_fc) const {
  AABFT_REQUIRE(c_fc.rows() % (bs_ + 2) == 0 && c_fc.cols() % (bs_ + 2) == 0,
                "full-checksum matrix dimensions must be multiples of BS+2");
  const std::size_t m = c_fc.rows() / (bs_ + 2) * bs_;
  const std::size_t q = c_fc.cols() / (bs_ + 2) * bs_;
  Matrix out(m, q, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < q; ++j)
      out(i, j) = c_fc(enc_index(i), enc_index(j));
  return out;
}

namespace {

/// Scan-and-zero p-max search over a strided value array, offering results
/// with a global index offset (Algorithm 1, Figure 3 style).
void pmax_scan_into(std::vector<double>& values, std::size_t p,
                    std::size_t index_offset, PMaxList& out,
                    gpusim::MathCtx& math) {
  for (std::size_t pass = 0; pass < p; ++pass) {
    double max_val = 0.0;
    std::size_t max_id = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      math.count_compares(1);
      if (values[i] > max_val) {
        max_val = values[i];
        max_id = i;
      }
    }
    out.offer(max_val, index_offset + max_id);
    values[max_id] = 0.0;
  }
}

}  // namespace

WeightedEncoded weighted_encode_columns(gpusim::Launcher& launcher,
                                        const Matrix& a,
                                        const WeightedCodec& codec,
                                        std::size_t p) {
  AABFT_REQUIRE(p >= 1, "p must be at least 1");
  AABFT_REQUIRE(codec.divides(a.rows()), "rows of A must be a multiple of BS");
  const std::size_t bs = codec.bs();
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t block_rows = m / bs;
  const std::size_t col_chunks = (n + bs - 1) / bs;
  const std::size_t enc_rows = codec.encoded_dim(m);

  Matrix enc(enc_rows, n, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) enc(codec.enc_index(i), j) = a(i, j);

  std::vector<PMaxList> candidates(enc_rows * col_chunks, PMaxList(p));

  launcher.launch("encode_a_weighted", Dim3{col_chunks, block_rows, 1},
                  [&](BlockCtx& blk) {
    auto& math = blk.math;
    const std::size_t br = blk.block.y;
    const std::size_t bc = blk.block.x;
    const std::size_t row0 = br * bs;
    const std::size_t col0 = bc * bs;
    const std::size_t width = std::min(bs, n - col0);

    std::vector<double> asub(bs * width);
    std::vector<double> sums(width, 0.0);
    std::vector<double> wsums(width, 0.0);

    math.load_doubles(bs * width);
    for (std::size_t c = 0; c < width; ++c) {
      double sum = 0.0;
      double wsum = 0.0;
      for (std::size_t r = 0; r < bs; ++r) {
        const double v = a(row0 + r, col0 + c);
        sum = math.add(sum, v);
        wsum = math.add(wsum, math.mul(codec.weight(r), v));
        asub[r * width + c] = math.abs(v);
      }
      enc(codec.sum_index(br), col0 + c) = sum;
      enc(codec.weighted_index(br), col0 + c) = wsum;
      sums[c] = math.abs(sum);
      wsums[c] = math.abs(wsum);
    }
    math.store_doubles(2 * width);

    // p-max per data row, then for both checksum vectors.
    for (std::size_t r = 0; r < bs; ++r) {
      std::vector<double> row(width);
      for (std::size_t c = 0; c < width; ++c) row[c] = asub[r * width + c];
      pmax_scan_into(row, p, col0,
                     candidates[codec.enc_index(row0 + r) * col_chunks + bc],
                     math);
    }
    pmax_scan_into(sums, p, col0,
                   candidates[codec.sum_index(br) * col_chunks + bc], math);
    pmax_scan_into(wsums, p, col0,
                   candidates[codec.weighted_index(br) * col_chunks + bc], math);
    math.store_doubles((bs + 2) * p * 2);
  });

  WeightedEncoded out;
  out.data = std::move(enc);
  out.pmax = reduce_pmax(launcher, "reduce_pmax_aw", candidates, enc_rows,
                         col_chunks, p);
  return out;
}

WeightedEncoded weighted_encode_rows(gpusim::Launcher& launcher, const Matrix& b,
                                     const WeightedCodec& codec, std::size_t p) {
  AABFT_REQUIRE(p >= 1, "p must be at least 1");
  AABFT_REQUIRE(codec.divides(b.cols()),
                "columns of B must be a multiple of BS");
  const std::size_t bs = codec.bs();
  const std::size_t n = b.rows();
  const std::size_t q = b.cols();
  const std::size_t block_cols = q / bs;
  const std::size_t row_chunks = (n + bs - 1) / bs;
  const std::size_t enc_cols = codec.encoded_dim(q);

  Matrix enc(n, enc_cols, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < q; ++j) enc(i, codec.enc_index(j)) = b(i, j);

  std::vector<PMaxList> candidates(enc_cols * row_chunks, PMaxList(p));

  launcher.launch("encode_b_weighted", Dim3{block_cols, row_chunks, 1},
                  [&](BlockCtx& blk) {
    auto& math = blk.math;
    const std::size_t br = blk.block.y;
    const std::size_t bc = blk.block.x;
    const std::size_t row0 = br * bs;
    const std::size_t col0 = bc * bs;
    const std::size_t height = std::min(bs, n - row0);

    std::vector<double> bsub(height * bs);
    std::vector<double> sums(height, 0.0);
    std::vector<double> wsums(height, 0.0);

    math.load_doubles(height * bs);
    for (std::size_t r = 0; r < height; ++r) {
      double sum = 0.0;
      double wsum = 0.0;
      for (std::size_t c = 0; c < bs; ++c) {
        const double v = b(row0 + r, col0 + c);
        sum = math.add(sum, v);
        wsum = math.add(wsum, math.mul(codec.weight(c), v));
        bsub[r * bs + c] = math.abs(v);
      }
      enc(row0 + r, codec.sum_index(bc)) = sum;
      enc(row0 + r, codec.weighted_index(bc)) = wsum;
      sums[r] = math.abs(sum);
      wsums[r] = math.abs(wsum);
    }
    math.store_doubles(2 * height);

    for (std::size_t c = 0; c < bs; ++c) {
      std::vector<double> col(height);
      for (std::size_t r = 0; r < height; ++r) col[r] = bsub[r * bs + c];
      pmax_scan_into(col, p, row0,
                     candidates[codec.enc_index(col0 + c) * row_chunks + br],
                     math);
    }
    pmax_scan_into(sums, p, row0,
                   candidates[codec.sum_index(bc) * row_chunks + br], math);
    pmax_scan_into(wsums, p, row0,
                   candidates[codec.weighted_index(bc) * row_chunks + br], math);
    math.store_doubles((bs + 2) * p * 2);
  });

  WeightedEncoded out;
  out.data = std::move(enc);
  out.pmax = reduce_pmax(launcher, "reduce_pmax_bw", candidates, enc_cols,
                         row_chunks, p);
  return out;
}

WeightedCheckReport weighted_check_product(
    gpusim::Launcher& launcher, const Matrix& c_fc, const WeightedCodec& codec,
    const PMaxTable& a_pmax, const PMaxTable& b_pmax, std::size_t inner_dim,
    const BoundParams& params) {
  const std::size_t bs = codec.bs();
  AABFT_REQUIRE(c_fc.rows() % (bs + 2) == 0 && c_fc.cols() % (bs + 2) == 0,
                "C_fc dimensions must be multiples of BS+2");
  AABFT_REQUIRE(a_pmax.size() == c_fc.rows(),
                "a_pmax must cover every row of C_fc");
  AABFT_REQUIRE(b_pmax.size() == c_fc.cols(),
                "b_pmax must cover every column of C_fc");
  const std::size_t grid_rows = c_fc.rows() / (bs + 2);
  const std::size_t grid_cols = c_fc.cols() / (bs + 2);

  // Data maxima per block row (compositional policy term).
  std::vector<double> a_block_max(grid_rows, 0.0);
  for (std::size_t br = 0; br < grid_rows; ++br)
    for (std::size_t i = 0; i < bs; ++i)
      a_block_max[br] = std::max(a_block_max[br],
                                 a_pmax[br * (bs + 2) + i].max_value());

  WeightedCheckReport report;
  core::Mutex report_mutex{core::LockRank::kKernelReduction,
                           "kernel.weighted_merge"};

  launcher.launch("check_weighted", Dim3{grid_cols, grid_rows, 1},
                  [&](BlockCtx& blk) {
    auto& math = blk.math;
    const std::size_t gbr = blk.block.y;
    const std::size_t gbc = blk.block.x;
    const std::size_t row0 = gbr * (bs + 2);
    const std::size_t col0 = gbc * (bs + 2);
    math.load_doubles((bs + 2) * (bs + 2));

    const PMaxList& a_sum = a_pmax[codec.sum_index(gbr)];
    const PMaxList& a_weighted = a_pmax[codec.weighted_index(gbr)];

    std::vector<WeightedMismatch> local;
    for (std::size_t j = 0; j < bs + 2; ++j) {
      const std::size_t gc = col0 + j;
      double ref_s = 0.0;
      double ref_w = 0.0;
      for (std::size_t i = 0; i < bs; ++i) {
        const double v = c_fc(row0 + i, gc);
        ref_s = math.add(ref_s, v);
        ref_w = math.add(ref_w, math.mul(codec.weight(i), v));
      }
      const double stored_s = c_fc(row0 + bs, gc);
      const double stored_w = c_fc(row0 + bs + 1, gc);

      const double y_s = determine_upper_bound(a_sum, b_pmax[gc]);
      const double y_w = determine_upper_bound(a_weighted, b_pmax[gc]);
      // aabft-lint: allow (bound estimate, bulk-counted below)
      const double y_data = a_block_max[gbr] * b_pmax[gc].max_value();
      math.count_compares(2 * (a_sum.size() + a_weighted.size()) *
                          b_pmax[gc].size());
      const double eps_s = checksum_epsilon(inner_dim, bs, y_s, y_data, params);
      // The weighted reference multiplies data by weights up to BS: its own
      // rounding contribution is bounded with the scaled data magnitude.
      const double eps_w = checksum_epsilon(
          // aabft-lint: allow (bound scaling, bulk-counted below)
          inner_dim, bs, y_w, static_cast<double>(bs) * y_data, params);
      math.count_muls(14);
      math.count_adds(12);

      // Checksum deltas, counted as the two adds below.
      const double delta_s = ref_s - stored_s;  // aabft-lint: allow
      const double delta_w = ref_w - stored_w;  // aabft-lint: allow
      math.count_adds(2);
      math.count_compares(2);
      const bool sum_bad = !(std::fabs(delta_s) <= eps_s);
      const bool weighted_bad = !(std::fabs(delta_w) <= eps_w);
      if (!sum_bad && !weighted_bad) continue;

      WeightedMismatch mismatch;
      mismatch.block_row = gbr;
      mismatch.block_col = gbc;
      mismatch.local_col = j;
      mismatch.delta_sum = delta_s;
      mismatch.delta_weighted = delta_w;
      mismatch.epsilon_sum = eps_s;
      mismatch.epsilon_weighted = eps_w;

      if (sum_bad && weighted_bad) {
        // Data element: w = delta_w / delta_s must be (close to) an integer
        // weight in [1, BS]. Demand a clear sum signal so the ratio is
        // meaningful.
        // Locator arithmetic on already-detected deltas (report path, not an
        // injection or accumulation site).
        if (std::isfinite(delta_s) && std::isfinite(delta_w) &&
            std::fabs(delta_s) > 2.0 * eps_s) {  // aabft-lint: allow
          const double ratio = delta_w / delta_s;  // aabft-lint: allow
          const double rounded = std::round(ratio);
          if (rounded >= 1.0 && rounded <= static_cast<double>(bs) &&
              std::fabs(ratio - rounded) < 0.25) {  // aabft-lint: allow
            mismatch.local_row = static_cast<std::size_t>(rounded) - 1;
          }
        }
      } else if (sum_bad) {
        mismatch.local_row = bs;  // the plain checksum element itself
      } else {
        mismatch.local_row = bs + 1;  // the weighted checksum element
      }
      local.push_back(mismatch);
    }

    if (!local.empty()) {
      const core::MutexLock lock(report_mutex);
      report.mismatches.insert(report.mismatches.end(), local.begin(),
                               local.end());
    }
  });

  return report;
}

WeightedAabftMultiplier::WeightedAabftMultiplier(gpusim::Launcher& launcher,
                                                 WeightedAabftConfig config)
    : launcher_(launcher), config_(config), codec_(config.bs) {
  AABFT_REQUIRE(config_.p >= 1 && config_.gemm.valid() &&
                    config_.bounds.fma == config_.gemm.use_fma,
                "invalid weighted A-ABFT configuration");
}

WeightedAabftResult WeightedAabftMultiplier::multiply(const Matrix& a,
                                                      const Matrix& b) {
  AABFT_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  const WeightedEncoded a_cc =
      weighted_encode_columns(launcher_, a, codec_, config_.p);
  const WeightedEncoded b_rc =
      weighted_encode_rows(launcher_, b, codec_, config_.p);
  Matrix c_fc =
      linalg::blocked_matmul(launcher_, a_cc.data, b_rc.data, config_.gemm);

  WeightedAabftResult result;
  result.report = weighted_check_product(launcher_, c_fc, codec_, a_cc.pmax,
                                         b_rc.pmax, a.cols(), config_.bounds);

  if (!result.report.clean() && config_.correct_errors) {
    const std::size_t bs = codec_.bs();
    for (const auto& m : result.report.mismatches) {
      if (!m.local_row.has_value()) {
        result.uncorrectable = true;
        continue;
      }
      const std::size_t row0 = m.block_row * (bs + 2);
      const std::size_t gc = m.block_col * (bs + 2) + m.local_col;
      const std::size_t i = *m.local_row;
      // Rebuild from intact values only: subtracting delta_sum from the
      // corrupted element would be algebraically equivalent, but when the
      // corruption is huge the small terms are absorbed in ref/delta and the
      // reconstruction loses them (catastrophic cancellation). Summing the
      // intact elements avoids the corrupted magnitude entirely.
      if (i < bs) {
        double others = 0.0;
        for (std::size_t ii = 0; ii < bs; ++ii)
          if (ii != i) others += c_fc(row0 + ii, gc);
        c_fc(row0 + i, gc) = c_fc(row0 + bs, gc) - others;
      } else if (i == bs) {
        double ref = 0.0;
        for (std::size_t ii = 0; ii < bs; ++ii) ref += c_fc(row0 + ii, gc);
        c_fc(row0 + bs, gc) = ref;
      } else {
        double ref = 0.0;
        for (std::size_t ii = 0; ii < bs; ++ii)
          ref += codec_.weight(ii) * c_fc(row0 + ii, gc);
        c_fc(row0 + bs + 1, gc) = ref;
      }
      ++result.corrected;
    }
    if (result.corrected > 0) {
      const WeightedCheckReport recheck = weighted_check_product(
          launcher_, c_fc, codec_, a_cc.pmax, b_rc.pmax, a.cols(),
          config_.bounds);
      result.recheck_clean = recheck.clean();
    }
  } else if (!result.report.clean()) {
    result.uncorrectable = true;
    result.recheck_clean = false;
  }

  result.c = codec_.strip(c_fc);
  return result;
}

}  // namespace aabft::abft
