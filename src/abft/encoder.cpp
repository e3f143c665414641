#include "abft/encoder.hpp"

#include <cmath>
#include <vector>

#include "abft/pmax_scan.hpp"
#include "core/require.hpp"
#include "gpusim/hazard.hpp"

namespace aabft::abft {

using gpusim::BlockCtx;
using gpusim::Dim3;
using linalg::Matrix;

EncodedMatrix encode_columns(gpusim::Launcher& launcher, const Matrix& a,
                             const PartitionedCodec& codec, std::size_t p) {
  AABFT_REQUIRE(p >= 1, "p must be at least 1");
  AABFT_REQUIRE(codec.divides(a.rows()),
                "rows of A must be a multiple of the checksum block size");
  const std::size_t bs = codec.bs();
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t block_rows = m / bs;
  const std::size_t col_chunks = (n + bs - 1) / bs;
  const std::size_t enc_rows = codec.encoded_dim(m);

  Matrix enc(enc_rows, n, 0.0);
  // Data rows are laid out in encoded positions up front: on the GPU the
  // matrix lives in the padded encoded buffer to begin with, so this copy is
  // host-side layout preparation, not device work.
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t ei = codec.enc_index(i);
    for (std::size_t j = 0; j < n; ++j) enc(ei, j) = a(i, j);
  }

  // Per-block candidate lists: one per (encoded row, column chunk).
  std::vector<PMaxList> candidates(enc_rows * col_chunks, PMaxList(p));

  launcher.launch("encode_a", Dim3{col_chunks, block_rows, 1}, [&](BlockCtx& blk) {
    auto& math = blk.math;
    const std::size_t br = blk.block.y;       // block row of A
    const std::size_t bc = blk.block.x;       // column chunk
    const std::size_t row0 = br * bs;
    const std::size_t col0 = bc * bs;
    const std::size_t width = std::min(bs, n - col0);  // ragged last chunk

    // Shared memory: the sub-matrix (replaced by absolute values during the
    // checksum pass, as in Algorithm 1 / Figure 2) and the per-thread
    // column checksums (localSums). Hazard model: one logical thread per
    // column in phase 1; phase 2 assigns row r to thread r % width and the
    // checksum-row scan to thread 0, separated by a barrier.
    gpusim::SharedArray<double> asub(blk, bs * width, "asub");
    gpusim::SharedArray<double> local_sums(blk, width, "local_sums");
    blk.hazard.set_thread_count(static_cast<int>(width));

    math.load_doubles(bs * width);
    // Phase 1: each thread (one per column) accumulates its column checksum
    // top-to-bottom and replaces the element by its absolute value. The
    // checksum adds are not injection sites, so the fast path only needs the
    // force-instrumented switch off; it walks the rows of A contiguously
    // (same per-column rounding chains, bulk-counted ops).
    if (!gpusim::force_instrumented()) {
      // local_sums doubles as the checksum accumulator until the final abs.
      // __restrict raw spans (the source row, the abs tile row and the sum
      // accumulator never alias) keep the loop on the vectorizable fast path;
      // going through SharedArray::operator[] defeated that and left the
      // fenced branch slower than the instrumented one.
      double* __restrict sums = local_sums.data();
      for (std::size_t r = 0; r < bs; ++r) {
        const double* __restrict a_row = a.data() + (row0 + r) * n + col0;
        double* __restrict abs_row = asub.data() + r * width;
        math.add_rows(sums, a_row, width);  // per-column chains ascend r
        for (std::size_t c = 0; c < width; ++c)
          abs_row[c] = std::fabs(a_row[c]);
      }
      math.count_compares(bs * width);  // the per-element abs
      double* __restrict cs_row =
          enc.data() + codec.checksum_index(br) * n + col0;
      for (std::size_t c = 0; c < width; ++c) {
        cs_row[c] = sums[c];
        sums[c] = std::fabs(sums[c]);
      }
      math.count_compares(width);  // abs of each checksum
    } else {
      for (std::size_t c = 0; c < width; ++c) {
        double sum = 0.0;
        for (std::size_t r = 0; r < bs; ++r) {
          const double v = a(row0 + r, col0 + c);
          sum = math.add(sum, v);
          asub[r * width + c] = math.abs(v);
        }
        enc(codec.checksum_index(br), col0 + c) = sum;
        local_sums[c] = math.abs(sum);
      }
    }
    math.store_doubles(width);

    if (blk.hazard.enabled()) {
      // Phase-1 accesses: thread c owns column c of asub and its checksum
      // cell; then the inter-phase __syncthreads; then the phase-2 reads
      // (row r scanned by thread r % width, checksum row by thread 0).
      for (std::size_t r = 0; r < bs; ++r)
        for (std::size_t c = 0; c < width; ++c)
          asub.note_write(static_cast<int>(c), r * width + c);
      for (std::size_t c = 0; c < width; ++c)
        local_sums.note_write(static_cast<int>(c), c);
      blk.hazard.sync_threads();
      for (std::size_t r = 0; r < bs; ++r)
        for (std::size_t c = 0; c < width; ++c)
          asub.note_read(static_cast<int>(r % width), r * width + c);
      for (std::size_t c = 0; c < width; ++c) local_sums.note_read(0, c);
    }

    // Phase 2: numMax passes of max-scan-and-zero per row (Figure 3), plus
    // the reduction over the checksum entries (maxSum path).
    for (std::size_t pass = 0; pass < p; ++pass) {
      for (std::size_t r = 0; r < bs; ++r) {
        const double* __restrict abs_row = asub.data() + r * width;
        double max_val = 0.0;
        std::size_t max_id = 0;
        for (std::size_t c = 0; c < width; ++c) {
          const double v = abs_row[c];
          if (v > max_val) {
            max_val = v;
            max_id = c;
          }
        }
        math.count_compares(width);
        const std::size_t enc_row = codec.enc_index(row0 + r);
        candidates[enc_row * col_chunks + bc].offer(max_val, col0 + max_id);
        asub.note_write(static_cast<int>(r % width), r * width + max_id);
        asub[r * width + max_id] = 0.0;  // exclude from the next pass
      }
      {
        double max_sum = 0.0;
        std::size_t max_id = 0;
        for (std::size_t c = 0; c < width; ++c) {
          if (local_sums[c] > max_sum) {
            max_sum = local_sums[c];
            max_id = c;
          }
        }
        math.count_compares(width);
        const std::size_t cs_row = codec.checksum_index(br);
        candidates[cs_row * col_chunks + bc].offer(max_sum, col0 + max_id);
        local_sums.note_write(0, max_id);
        local_sums[max_id] = 0.0;
      }
    }
    math.store_doubles((bs + 1) * p * 2);  // maxValues + maxValueIDs
  });

  EncodedMatrix out;
  out.data = std::move(enc);
  out.pmax = reduce_pmax(launcher, "reduce_pmax_a", candidates, enc_rows,
                         col_chunks, p);
  return out;
}

EncodedMatrix encode_rows(gpusim::Launcher& launcher, const Matrix& b,
                          const PartitionedCodec& codec, std::size_t p) {
  AABFT_REQUIRE(p >= 1, "p must be at least 1");
  AABFT_REQUIRE(codec.divides(b.cols()),
                "columns of B must be a multiple of the checksum block size");
  const std::size_t bs = codec.bs();
  const std::size_t n = b.rows();
  const std::size_t q = b.cols();
  const std::size_t block_cols = q / bs;
  const std::size_t row_chunks = (n + bs - 1) / bs;
  const std::size_t enc_cols = codec.encoded_dim(q);

  Matrix enc(n, enc_cols, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < q; ++j) enc(i, codec.enc_index(j)) = b(i, j);
  }

  std::vector<PMaxList> candidates(enc_cols * row_chunks, PMaxList(p));

  launcher.launch("encode_b", Dim3{block_cols, row_chunks, 1}, [&](BlockCtx& blk) {
    auto& math = blk.math;
    const std::size_t br = blk.block.y;       // row chunk of B
    const std::size_t bc = blk.block.x;       // block column of B
    const std::size_t row0 = br * bs;
    const std::size_t col0 = bc * bs;
    const std::size_t height = std::min(bs, n - row0);  // ragged last chunk

    // Hazard model mirrors encode_a: one logical thread per row in phase 1;
    // phase 2 assigns column c to thread c % height and the checksum-column
    // scan to thread 0, separated by a barrier.
    gpusim::SharedArray<double> bsub(blk, height * bs, "bsub");
    gpusim::SharedArray<double> local_sums(blk, height, "local_sums");
    blk.hazard.set_thread_count(static_cast<int>(height));

    math.load_doubles(height * bs);
    // Phase 1: each thread (one per row) accumulates its row checksum
    // left-to-right and replaces the element by its absolute value. Not an
    // injection site — raw bulk-counted loop unless force-instrumented.
    if (!gpusim::force_instrumented()) {
      // Same __restrict raw-span structure as encode_a's fenced branch.
      for (std::size_t r = 0; r < height; ++r) {
        const double* __restrict b_row = b.data() + (row0 + r) * b.cols() + col0;
        double* __restrict abs_row = bsub.data() + r * bs;
        const double sum = math.sum_strided(b_row, bs, 1);
        for (std::size_t c = 0; c < bs; ++c)
          abs_row[c] = std::fabs(b_row[c]);
        enc(row0 + r, codec.checksum_index(bc)) = sum;
        local_sums[r] = std::fabs(sum);
      }
      math.count_compares(height * bs + height);
    } else {
      for (std::size_t r = 0; r < height; ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < bs; ++c) {
          const double v = b(row0 + r, col0 + c);
          sum = math.add(sum, v);
          bsub[r * bs + c] = math.abs(v);
        }
        enc(row0 + r, codec.checksum_index(bc)) = sum;
        local_sums[r] = math.abs(sum);
      }
    }
    math.store_doubles(height);

    if (blk.hazard.enabled()) {
      for (std::size_t r = 0; r < height; ++r) {
        for (std::size_t c = 0; c < bs; ++c)
          bsub.note_write(static_cast<int>(r), r * bs + c);
        local_sums.note_write(static_cast<int>(r), r);
      }
      blk.hazard.sync_threads();
      for (std::size_t c = 0; c < bs; ++c)
        for (std::size_t r = 0; r < height; ++r)
          bsub.note_read(static_cast<int>(c % height), r * bs + c);
      for (std::size_t r = 0; r < height; ++r) local_sums.note_read(0, r);
    }

    // Phase 2: p passes of max-scan-and-zero per column, plus the checksum
    // column's own maxima.
    for (std::size_t pass = 0; pass < p; ++pass) {
      for (std::size_t c = 0; c < bs; ++c) {
        double max_val = 0.0;
        std::size_t max_id = 0;
        for (std::size_t r = 0; r < height; ++r) {
          const double v = bsub[r * bs + c];
          if (v > max_val) {
            max_val = v;
            max_id = r;
          }
        }
        math.count_compares(height);
        const std::size_t enc_col = codec.enc_index(col0 + c);
        candidates[enc_col * row_chunks + br].offer(max_val, row0 + max_id);
        bsub.note_write(static_cast<int>(c % height), max_id * bs + c);
        bsub[max_id * bs + c] = 0.0;
      }
      {
        double max_sum = 0.0;
        std::size_t max_id = 0;
        for (std::size_t r = 0; r < height; ++r) {
          if (local_sums[r] > max_sum) {
            max_sum = local_sums[r];
            max_id = r;
          }
        }
        math.count_compares(height);
        const std::size_t cs_col = codec.checksum_index(bc);
        candidates[cs_col * row_chunks + br].offer(max_sum, row0 + max_id);
        local_sums.note_write(0, max_id);
        local_sums[max_id] = 0.0;
      }
    }
    math.store_doubles((bs + 1) * p * 2);
  });

  EncodedMatrix out;
  out.data = std::move(enc);
  out.pmax = reduce_pmax(launcher, "reduce_pmax_b", candidates, enc_cols,
                         row_chunks, p);
  return out;
}

}  // namespace aabft::abft
