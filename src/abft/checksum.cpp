#include "abft/checksum.hpp"

#include <algorithm>

namespace aabft::abft {

using linalg::Matrix;

Matrix PartitionedCodec::encode_columns_host(const Matrix& a) const {
  AABFT_REQUIRE(divides(a.rows()), "rows of A must be a multiple of BS");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix enc(encoded_dim(m), n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t ei = enc_index(i);
    for (std::size_t j = 0; j < n; ++j) enc(ei, j) = a(i, j);
  }
  for (std::size_t blk = 0; blk < num_blocks(m); ++blk) {
    const std::size_t cs = checksum_index(blk);
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t i = 0; i < bs_; ++i) sum += a(blk * bs_ + i, j);
      enc(cs, j) = sum;
    }
  }
  return enc;
}

Matrix PartitionedCodec::encode_rows_host(const Matrix& b) const {
  AABFT_REQUIRE(divides(b.cols()), "columns of B must be a multiple of BS");
  const std::size_t n = b.rows();
  const std::size_t q = b.cols();
  Matrix enc(n, encoded_dim(q), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < q; ++j) enc(i, enc_index(j)) = b(i, j);
    for (std::size_t blk = 0; blk < num_blocks(q); ++blk) {
      double sum = 0.0;
      for (std::size_t j = 0; j < bs_; ++j) sum += b(i, blk * bs_ + j);
      enc(i, checksum_index(blk)) = sum;
    }
  }
  return enc;
}

Matrix PartitionedCodec::strip(const Matrix& c_fc) const {
  AABFT_REQUIRE(c_fc.rows() % (bs_ + 1) == 0 && c_fc.cols() % (bs_ + 1) == 0,
                "full-checksum matrix dimensions must be multiples of BS+1");
  const std::size_t m = c_fc.rows() / (bs_ + 1) * bs_;
  const std::size_t q = c_fc.cols() / (bs_ + 1) * bs_;
  Matrix out(m, q, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* src = c_fc.data() + enc_index(i) * c_fc.cols();
    for (std::size_t j = 0; j < q; j += bs_, src += bs_ + 1)
      std::copy_n(src, bs_, out.data() + i * q + j);
  }
  return out;
}

bool PartitionedCodec::column_checksums_consistent(const Matrix& enc) const {
  AABFT_REQUIRE(enc.rows() % (bs_ + 1) == 0,
                "encoded rows must be a multiple of BS+1");
  for (std::size_t blk = 0; blk < enc.rows() / (bs_ + 1); ++blk) {
    const std::size_t cs = checksum_index(blk);
    for (std::size_t j = 0; j < enc.cols(); ++j) {
      double sum = 0.0;
      for (std::size_t i = 0; i < bs_; ++i) sum += enc(blk * (bs_ + 1) + i, j);
      if (sum != enc(cs, j)) return false;
    }
  }
  return true;
}

bool PartitionedCodec::row_checksums_consistent(const Matrix& enc) const {
  AABFT_REQUIRE(enc.cols() % (bs_ + 1) == 0,
                "encoded columns must be a multiple of BS+1");
  for (std::size_t i = 0; i < enc.rows(); ++i) {
    for (std::size_t blk = 0; blk < enc.cols() / (bs_ + 1); ++blk) {
      double sum = 0.0;
      for (std::size_t j = 0; j < bs_; ++j) sum += enc(i, blk * (bs_ + 1) + j);
      if (sum != enc(i, checksum_index(blk))) return false;
    }
  }
  return true;
}

}  // namespace aabft::abft
