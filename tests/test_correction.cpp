// Localisation and correction tests: every element class (data, column
// checksum, row checksum, corner), the edges of a block, multiple blocks,
// corruption magnitudes from 1e-3 to 1e3, non-localisable patterns, and
// end-to-end value restoration.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

#include "abft/checker.hpp"
#include "abft/correction.hpp"
#include "abft/encoder.hpp"
#include "core/rng.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace {

using aabft::Rng;
using namespace aabft::abft;
using aabft::linalg::Matrix;
using aabft::linalg::uniform_matrix;

/// A clean full-checksum product plus everything needed to check it.
struct Product {
  PartitionedCodec codec;
  aabft::gpusim::Launcher launcher;
  EncodedMatrix a_cc;
  EncodedMatrix b_rc;
  Matrix c_fc;
  std::size_t n;

  explicit Product(std::size_t bs = 8, std::size_t n_in = 32)
      : codec(bs), n(n_in) {
    Rng rng(5);
    const Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
    const Matrix b = uniform_matrix(n, n, -1.0, 1.0, rng);
    a_cc = encode_columns(launcher, a, codec, 2);
    b_rc = encode_rows(launcher, b, codec, 2);
    c_fc = aabft::linalg::blocked_matmul(launcher, a_cc.data, b_rc.data,
                                         aabft::linalg::GemmConfig{});
  }

  CheckReport check() {
    BoundParams params;
    return check_product(launcher, c_fc, codec, a_cc.pmax, b_rc.pmax, n,
                         params, nullptr);
  }
};

/// Corrupt one element by `delta`, run the check + correction, and verify
/// that exactly the element's row and column are flagged and that the patch
/// restores the original value to within BS-sum rounding.
void corrupt_and_verify(Product& p, std::size_t row, std::size_t col,
                        double delta = 7.5) {
  const double original = p.c_fc(row, col);
  p.c_fc(row, col) = original + delta;

  const std::size_t stride = p.codec.bs() + 1;
  const CheckReport report = p.check();
  ASSERT_EQ(report.count(CheckKind::kColumn), 1u);
  ASSERT_EQ(report.count(CheckKind::kRow), 1u);
  for (const auto& m : report.mismatches) {
    EXPECT_EQ(m.block_row, row / stride);
    EXPECT_EQ(m.block_col, col / stride);
    EXPECT_EQ(m.local, m.kind == CheckKind::kColumn ? col % stride
                                                    : row % stride);
  }
  const CorrectionOutcome outcome =
      locate_and_correct(p.c_fc, report, p.codec);
  EXPECT_FALSE(outcome.uncorrectable);
  ASSERT_EQ(outcome.corrections.size(), 1u);

  const auto& corr = outcome.corrections.front();
  EXPECT_EQ(corr.block_row * stride + corr.local_row, row);
  EXPECT_EQ(corr.block_col * stride + corr.local_col, col);
  EXPECT_EQ(corr.old_value, original + delta);
  EXPECT_NEAR(p.c_fc(row, col), original, 1e-12);

  // The patched matrix passes a clean re-check.
  EXPECT_TRUE(p.check().clean());
}

TEST(Correction, DataElement) {
  Product p;
  corrupt_and_verify(p, 2, 4);  // block (0,0), data
}

TEST(Correction, DataElementInInnerBlock) {
  Product p;
  corrupt_and_verify(p, 12, 21);  // block (1,2), locals (3,3)
}

TEST(Correction, ColumnChecksumElement) {
  Product p;
  corrupt_and_verify(p, 8, 4);  // checksum row of block row 0
}

TEST(Correction, RowChecksumElement) {
  Product p;
  corrupt_and_verify(p, 4, 17);  // checksum column of block col 1
}

TEST(Correction, CornerElement) {
  Product p;
  corrupt_and_verify(p, 17, 26);  // corner of block (1,2)
}

// The edges of a block, where an off-by-one in the block or line arithmetic
// would show: the four data corners, the first data element after a checksum
// row and after a checksum column, both ends of both checksum lines, and the
// corner of the first and of the last block. bs = 16, n = 32: a 2 x 2 grid
// of 17 x 17 blocks.
struct EdgePosition {
  const char* name;
  std::size_t row;
  std::size_t col;
};

// Printed into each case's ctest name; gtest's default byte dump would
// include the name pointer, which differs from build to build.
void PrintTo(const EdgePosition& pos, std::ostream* os) {
  *os << "(" << pos.row << ", " << pos.col << ")";
}

class EdgeLocalisation : public ::testing::TestWithParam<EdgePosition> {};

TEST_P(EdgeLocalisation, FlagsItsLinesAndIsRepaired) {
  Product p(16);
  corrupt_and_verify(p, GetParam().row, GetParam().col);
}

INSTANTIATE_TEST_SUITE_P(
    Positions, EdgeLocalisation,
    ::testing::Values(EdgePosition{"DataTopLeft", 0, 0},
                      EdgePosition{"DataTopRight", 0, 15},
                      EdgePosition{"DataBottomLeft", 15, 0},
                      EdgePosition{"DataBottomRight", 15, 15},
                      EdgePosition{"DataAfterChecksumRow", 17, 0},
                      EdgePosition{"DataAfterChecksumColumn", 0, 17},
                      EdgePosition{"ColumnChecksumFirst", 16, 0},
                      EdgePosition{"ColumnChecksumLast", 16, 15},
                      EdgePosition{"RowChecksumFirst", 0, 16},
                      EdgePosition{"RowChecksumLast", 15, 16},
                      EdgePosition{"Corner", 16, 16},
                      EdgePosition{"LastBlockCorner", 33, 33}),
    [](const auto& info) { return std::string(info.param.name); });

// Random elements of a 4 x 4 block grid, checksum lines included, corrupted
// by +-1e-3 .. +-1e3: each is flagged at its own row and column and rebuilt.
TEST(Correction, LocalisationSweepAcrossBlocksAndMagnitudes) {
  Product p(16, 64);
  const Matrix clean = p.c_fc;
  Rng rng(77);
  for (int rep = 0; rep < 30; ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    p.c_fc = clean;
    // One draw per statement, so the sequence of draws is fixed.
    const std::size_t block_row = rng.below(4);
    const std::size_t row = block_row * 17 + rng.below(17);
    const std::size_t block_col = rng.below(4);
    const std::size_t col = block_col * 17 + rng.below(17);
    const double sign = rng.next_bool() ? 1.0 : -1.0;
    const double magnitude =
        std::pow(10.0, static_cast<double>(rng.between(-3, 3)));
    corrupt_and_verify(p, row, col, sign * magnitude);
  }
}

TEST(Correction, TwoErrorsInDifferentBlocksBothCorrected) {
  Product p;
  const double v1 = p.c_fc(1, 1);
  const double v2 = p.c_fc(30, 33);
  p.c_fc(1, 1) = v1 + 3.0;
  p.c_fc(30, 33) = v2 - 4.0;

  const CheckReport report = p.check();
  const CorrectionOutcome outcome = locate_and_correct(p.c_fc, report, p.codec);
  EXPECT_FALSE(outcome.uncorrectable);
  ASSERT_EQ(outcome.corrections.size(), 2u);
  EXPECT_NEAR(p.c_fc(1, 1), v1, 1e-12);
  EXPECT_NEAR(p.c_fc(30, 33), v2, 1e-12);
  EXPECT_TRUE(p.check().clean());
}

TEST(Correction, TwoErrorsInOneBlockAreUncorrectable) {
  Product p;
  p.c_fc(1, 1) += 3.0;
  p.c_fc(2, 3) += 3.0;  // same block (0,0)
  const CheckReport report = p.check();
  const CorrectionOutcome outcome = locate_and_correct(p.c_fc, report, p.codec);
  EXPECT_TRUE(outcome.uncorrectable);
}

TEST(Correction, SameRowPairInOneBlockUncorrectable) {
  Product p;
  // Two errors in the same row of one block: one row mismatch, two column
  // mismatches -> cannot localise.
  p.c_fc(1, 1) += 3.0;
  p.c_fc(1, 5) += 3.0;
  const CheckReport report = p.check();
  EXPECT_EQ(report.count(CheckKind::kColumn), 2u);
  const CorrectionOutcome outcome = locate_and_correct(p.c_fc, report, p.codec);
  EXPECT_TRUE(outcome.uncorrectable);
  EXPECT_TRUE(outcome.corrections.empty());
}

TEST(Correction, CleanReportDoesNothing) {
  Product p;
  const Matrix before = p.c_fc;
  const CheckReport report = p.check();
  ASSERT_TRUE(report.clean());
  const CorrectionOutcome outcome = locate_and_correct(p.c_fc, report, p.codec);
  EXPECT_FALSE(outcome.uncorrectable);
  EXPECT_TRUE(outcome.corrections.empty());
  EXPECT_EQ(p.c_fc, before);
}

TEST(Correction, ShapeValidated) {
  Product p;
  Matrix bad(10, 9);
  CheckReport report;
  EXPECT_THROW((void)locate_and_correct(bad, report, p.codec),
               std::invalid_argument);
}

}  // namespace
