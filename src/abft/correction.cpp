#include "abft/correction.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "core/require.hpp"

namespace aabft::abft {

using linalg::Matrix;

CorrectionOutcome locate_and_correct(Matrix& c_fc, const CheckReport& report,
                                     const PartitionedCodec& codec) {
  const std::size_t bs = codec.bs();
  AABFT_REQUIRE(c_fc.rows() % (bs + 1) == 0 && c_fc.cols() % (bs + 1) == 0,
                "C_fc dimensions must be multiples of BS+1");

  // Group mismatches per block.
  struct BlockMismatches {
    std::vector<const Mismatch*> columns;
    std::vector<const Mismatch*> rows;
  };
  std::map<std::pair<std::size_t, std::size_t>, BlockMismatches> blocks;
  for (const auto& m : report.mismatches) {
    auto& entry = blocks[{m.block_row, m.block_col}];
    (m.kind == CheckKind::kColumn ? entry.columns : entry.rows).push_back(&m);
  }

  CorrectionOutcome outcome;
  for (const auto& [coords, mm] : blocks) {
    const auto [gbr, gbc] = coords;
    const std::size_t row0 = gbr * (bs + 1);
    const std::size_t col0 = gbc * (bs + 1);

    // A single corrupted element produces exactly one column and one row
    // mismatch; anything else cannot be localised within this block.
    if (mm.columns.size() != 1 || mm.rows.size() != 1) {
      outcome.uncorrectable = true;
      continue;
    }
    const std::size_t j = mm.columns.front()->local;
    const std::size_t i = mm.rows.front()->local;

    Correction corr;
    corr.block_row = gbr;
    corr.block_col = gbc;
    corr.local_row = i;
    corr.local_col = j;
    corr.old_value = c_fc(row0 + i, col0 + j);

    if (i == bs && j == bs) {
      // Corner (checksum of checksums): recompute from the checksum row.
      double sum = 0.0;
      for (std::size_t jj = 0; jj < bs; ++jj) sum += c_fc(row0 + bs, col0 + jj);
      corr.new_value = sum;
    } else if (i == bs) {
      // Column-checksum element: recompute from the data column.
      double sum = 0.0;
      for (std::size_t ii = 0; ii < bs; ++ii) sum += c_fc(row0 + ii, col0 + j);
      corr.new_value = sum;
    } else if (j == bs) {
      // Row-checksum element: recompute from the data row.
      double sum = 0.0;
      for (std::size_t jj = 0; jj < bs; ++jj) sum += c_fc(row0 + i, col0 + jj);
      corr.new_value = sum;
    } else {
      // Data element: rebuild it from the column checksum that went through
      // the multiplication minus the remaining (intact) column elements.
      double others = 0.0;
      for (std::size_t ii = 0; ii < bs; ++ii)
        if (ii != i) others += c_fc(row0 + ii, col0 + j);
      corr.new_value = c_fc(row0 + bs, col0 + j) - others;
    }

    c_fc(row0 + i, col0 + j) = corr.new_value;
    outcome.corrections.push_back(corr);
  }
  return outcome;
}

std::vector<std::pair<std::size_t, std::size_t>> flagged_blocks(
    const CheckReport& report) {
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  for (const auto& m : report.mismatches) {
    const std::pair<std::size_t, std::size_t> coords{m.block_row, m.block_col};
    if (std::find(blocks.begin(), blocks.end(), coords) == blocks.end())
      blocks.push_back(coords);
  }
  return blocks;
}

void recompute_blocks(gpusim::Launcher& launcher, Matrix& c_fc,
                      const Matrix& a_cc, const Matrix& b_rc,
                      std::span<const std::pair<std::size_t, std::size_t>> blocks,
                      const PartitionedCodec& codec,
                      const linalg::GemmConfig& gemm) {
  if (blocks.empty()) return;
  const std::size_t bs = codec.bs();
  const std::size_t k_dim = a_cc.cols();
  AABFT_REQUIRE(k_dim == b_rc.rows(), "encoded operand inner dims must agree");
  AABFT_REQUIRE(c_fc.rows() % (bs + 1) == 0 && c_fc.cols() % (bs + 1) == 0,
                "C_fc dimensions must be multiples of BS+1");

  const gpusim::Dim3 grid{blocks.size(), 1, 1};
  (void)launcher.launch("recompute_blocks", grid, [&](gpusim::BlockCtx& ctx) {
    const auto [gbr, gbc] = blocks[ctx.block.x];
    const std::size_t row0 = gbr * (bs + 1);
    const std::size_t col0 = gbc * (bs + 1);
    // Stage one B column at a time (strided gather, reused across the
    // block's BS+1 rows), then re-derive each element as an ascending-k
    // inner product from acc = 0 — the product kernel's exact operation
    // order and rounding, so the recomputed values are bit-identical to a
    // fault-free blocked_matmul.
    std::vector<double> b_col(k_dim);
    for (std::size_t j = 0; j <= bs; ++j) {
      for (std::size_t t = 0; t < k_dim; ++t) b_col[t] = b_rc(t, col0 + j);
      ctx.math.load_doubles(k_dim);
      for (std::size_t i = 0; i <= bs; ++i) {
        ctx.math.load_doubles(k_dim);
        double value = 0.0;
        ctx.math.accumulate_panel(a_cc.row(row0 + i).data(), b_col.data(),
                                  &value, 1, 1, k_dim, k_dim, gemm.use_fma);
        c_fc(row0 + i, col0 + j) = value;
        ctx.math.store_doubles(1);
      }
    }
  });
}

}  // namespace aabft::abft
