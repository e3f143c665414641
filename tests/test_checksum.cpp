// Partitioned checksum codec tests: index arithmetic, host encode
// invariants, strip round-trips, and the algebraic checksum-preservation
// property of block products.
#include <gtest/gtest.h>

#include "abft/checksum.hpp"
#include "core/rng.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace {

using aabft::Rng;
using aabft::abft::PartitionedCodec;
using namespace aabft::linalg;

TEST(Codec, IndexArithmetic) {
  const PartitionedCodec codec(4);
  EXPECT_EQ(codec.encoded_dim(8), 10u);
  EXPECT_EQ(codec.num_blocks(8), 2u);
  // Data rows 0..3 map to 0..3, checksum of block 0 at 4, rows 4..7 at 5..8,
  // checksum of block 1 at 9.
  EXPECT_EQ(codec.enc_index(0), 0u);
  EXPECT_EQ(codec.enc_index(3), 3u);
  EXPECT_EQ(codec.enc_index(4), 5u);
  EXPECT_EQ(codec.enc_index(7), 8u);
  EXPECT_EQ(codec.checksum_index(0), 4u);
  EXPECT_EQ(codec.checksum_index(1), 9u);
}

TEST(Codec, IndexMapsAreInverse) {
  const PartitionedCodec codec(16);
  for (std::size_t i = 0; i < 200; ++i) {
    const std::size_t e = codec.enc_index(i);
    EXPECT_FALSE(codec.is_checksum_index(e));
    EXPECT_EQ(codec.data_index(e), i);
    EXPECT_EQ(codec.block_of(e), i / 16);
  }
  for (std::size_t b = 0; b < 12; ++b) {
    EXPECT_TRUE(codec.is_checksum_index(codec.checksum_index(b)));
    EXPECT_EQ(codec.block_of(codec.checksum_index(b)), b);
  }
}

TEST(Codec, DataIndexRejectsChecksumPositions) {
  const PartitionedCodec codec(8);
  EXPECT_THROW((void)codec.data_index(codec.checksum_index(0)),
               std::invalid_argument);
}

TEST(Codec, RejectsTinyBlockSize) {
  EXPECT_THROW(PartitionedCodec(1), std::invalid_argument);
}

TEST(Codec, DividesChecks) {
  const PartitionedCodec codec(8);
  EXPECT_TRUE(codec.divides(16));
  EXPECT_FALSE(codec.divides(12));
  EXPECT_FALSE(codec.divides(0));
  EXPECT_THROW((void)codec.num_blocks(12), std::invalid_argument);
}

TEST(Codec, EncodeColumnsHostBuildsBlockChecksums) {
  Rng rng(1);
  const PartitionedCodec codec(4);
  const Matrix a = uniform_matrix(8, 6, -1.0, 1.0, rng);
  const Matrix enc = codec.encode_columns_host(a);
  EXPECT_EQ(enc.rows(), 10u);
  EXPECT_EQ(enc.cols(), 6u);
  EXPECT_TRUE(codec.column_checksums_consistent(enc));
  // Data preserved.
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      EXPECT_EQ(enc(codec.enc_index(i), j), a(i, j));
}

TEST(Codec, EncodeRowsHostBuildsBlockChecksums) {
  Rng rng(2);
  const PartitionedCodec codec(4);
  const Matrix b = uniform_matrix(6, 8, -1.0, 1.0, rng);
  const Matrix enc = codec.encode_rows_host(b);
  EXPECT_EQ(enc.rows(), 6u);
  EXPECT_EQ(enc.cols(), 10u);
  EXPECT_TRUE(codec.row_checksums_consistent(enc));
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      EXPECT_EQ(enc(i, codec.enc_index(j)), b(i, j));
}

TEST(Codec, ConsistencyCheckersDetectCorruption) {
  Rng rng(3);
  const PartitionedCodec codec(4);
  Matrix enc_a = codec.encode_columns_host(uniform_matrix(8, 4, -1.0, 1.0, rng));
  EXPECT_TRUE(codec.column_checksums_consistent(enc_a));
  enc_a(2, 1) += 1.0;
  EXPECT_FALSE(codec.column_checksums_consistent(enc_a));

  Matrix enc_b = codec.encode_rows_host(uniform_matrix(4, 8, -1.0, 1.0, rng));
  EXPECT_TRUE(codec.row_checksums_consistent(enc_b));
  enc_b(1, 7) += 1.0;
  EXPECT_FALSE(codec.row_checksums_consistent(enc_b));
}

TEST(Codec, StripInvertsEncodeLayout) {
  Rng rng(4);
  const PartitionedCodec codec(4);
  const Matrix a = uniform_matrix(8, 8, -1.0, 1.0, rng);
  // Build a full-checksum-layout matrix by encoding twice (columns then the
  // transpose trick): here simply encode rows of the column-encoded matrix.
  const Matrix a_cc = codec.encode_columns_host(a);
  const Matrix full = codec.encode_rows_host(a_cc);
  EXPECT_EQ(full.rows(), 10u);
  EXPECT_EQ(full.cols(), 10u);
  const Matrix stripped = codec.strip(full);
  EXPECT_EQ(stripped, a);

  const PartitionedCodec codec3(3);
  const Matrix wide = uniform_matrix(6, 9, -1.0, 1.0, rng);
  const Matrix wide_full =
      codec3.encode_rows_host(codec3.encode_columns_host(wide));
  EXPECT_EQ(wide_full.rows(), 8u);
  EXPECT_EQ(wide_full.cols(), 12u);
  EXPECT_EQ(codec3.strip(wide_full), wide);
}

TEST(Codec, StripRejectsWrongShape) {
  const PartitionedCodec codec(4);
  Matrix bad(9, 10);
  EXPECT_THROW((void)codec.strip(bad), std::invalid_argument);
}

// The key ABFT algebra: the product of a column-encoded A and a row-encoded
// B is a full-checksum matrix whose checksum rows/columns equal (up to
// rounding) the sums of the corresponding data elements.
TEST(Codec, BlockProductPreservesChecksumsUpToRounding) {
  Rng rng(5);
  const std::size_t bs = 8;
  const PartitionedCodec codec(bs);
  const Matrix a = uniform_matrix(16, 24, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(24, 16, -1.0, 1.0, rng);
  const Matrix a_cc = codec.encode_columns_host(a);
  const Matrix b_rc = codec.encode_rows_host(b);
  const Matrix c_fc = naive_matmul(a_cc, b_rc, false);

  // Column checksums: c[cs_I][j] ~= sum_i c[i in block I][j].
  for (std::size_t blk = 0; blk < 2; ++blk) {
    for (std::size_t j = 0; j < c_fc.cols(); ++j) {
      double sum = 0.0;
      for (std::size_t i = 0; i < bs; ++i)
        sum += c_fc(blk * (bs + 1) + i, j);
      EXPECT_NEAR(c_fc(codec.checksum_index(blk), j), sum, 1e-11);
    }
  }
  // Row checksums: c[i][cs_J] ~= sum_j c[i][j in block J].
  for (std::size_t i = 0; i < c_fc.rows(); ++i) {
    for (std::size_t blk = 0; blk < 2; ++blk) {
      double sum = 0.0;
      for (std::size_t j = 0; j < bs; ++j)
        sum += c_fc(i, blk * (bs + 1) + j);
      EXPECT_NEAR(c_fc(i, codec.checksum_index(blk)), sum, 1e-11);
    }
  }
}

}  // namespace
