// Fused online-checking GEMM: checksum encoding folded into the product.
//
// The paper's pipeline materialises A_cc / B_rc with standalone encode
// kernels (Algorithm 1) before the product runs — an O(n^2) pass whose cost
// (BENCH_fastpath.json) dominated small/medium protected GEMMs. Following
// the FT-GEMM / "online fault tolerance" fusion idea, this module splits the
// encode into
//
//   1. a *light* encode pass per operand (encode_columns_light /
//      encode_rows_light): the compact checksum side-buffer (one block-sum
//      row/column per checksum block, O(n^2 / bs) storage) plus the p-max
//      tables — no encoded-matrix materialisation, no abs-matrix scratch,
//      single screened sweep instead of p max-scan passes;
//   2. a fused product kernel (fused_encode_matmul) whose tiles are aligned
//      to whole (BS+1) x (BS+1) checksum blocks and which stages encoded
//      rows/columns virtually — data rows from A itself, checksum rows from
//      the compact sums — so the product consumes the encoding without it
//      ever existing in memory.
//
// Because the per-element accumulation order (ascending k, final merge into
// a zero-initialised C) is independent of the blocking, the fused product is
// bit-identical to blocked_matmul over the materialised encoded operands.
//
// The fused kernel additionally *screens* its own column checksums at
// k-panel boundaries: each tile holds complete checksum blocks, so after a
// panel the partial accumulators must satisfy the column-checksum identity
// up to rounding. A violation is detected mid-product — panels, not whole
// operations, become the recompute blast radius (the serve ladder's earliest
// rung) — and repaired by replaying the tile's panels from k = 0. One-shot
// faults have been consumed by then, so the replay is clean and bit-exact.
#pragma once

#include <cstddef>

#include "abft/checksum.hpp"
#include "abft/pmax.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matrix.hpp"

namespace aabft::abft {

/// Blocking and online-screen parameters of the fused kernel. Tile extents
/// are implied: BM = BN = BS + 1 (one checksum block per thread block), so
/// only the K-panel depth is free. rx/ry are the module-grid labels for
/// fault sites, mirroring GemmConfig's (i % rx) * ry + (j % ry) mapping.
struct FusedGemmConfig {
  std::size_t bk = 32;            ///< K-panel depth
  std::size_t rx = 4;             ///< module grid rows (fault-site labels)
  std::size_t ry = 4;             ///< module grid columns
  /// Screen the tile's column checksums every `check_stride` panels (and
  /// always after the last panel). 1 = screen every panel.
  std::size_t check_stride = 2;
  /// Panel-replay budget per tile: a screened mismatch replays the tile's
  /// panels from k = 0 at most this many times before deferring to the
  /// end-of-product check (which owns the authoritative bounds).
  std::size_t max_panel_recomputes = 2;
  bool use_fma = false;           ///< inner-loop FMA (must match the bounds)

  [[nodiscard]] bool valid() const noexcept {
    return bk >= 1 && rx >= 1 && ry >= 1 && check_stride >= 1;
  }
};

/// The light encode of one operand: the compact checksum buffer and the
/// per-vector p-max table.
///
/// For A (encode_columns_light): sums is (m / bs) x k — row br holds the
/// column checksums of A's block row br, i.e. exactly the bits
/// encode_columns writes into encoded row checksum_index(br).
/// For B (encode_rows_light): sums is k x (q / bs) — column bc holds the row
/// checksums of B's block column bc.
///
/// The p-max table is indexed by *encoded* row (A) / column (B), like
/// EncodedMatrix::pmax. Values and ordering match the standalone encoders
/// (largest first, ties kept in first-seen order); exact tie index choices
/// can differ from the max-scan-and-zero kernel when distinct positions hold
/// bit-equal magnitudes.
struct LightEncoded {
  linalg::Matrix sums;
  PMaxTable pmax;
};

LightEncoded encode_columns_light(gpusim::Launcher& launcher,
                                  const linalg::Matrix& a,
                                  const PartitionedCodec& codec,
                                  std::size_t p);

LightEncoded encode_rows_light(gpusim::Launcher& launcher,
                               const linalg::Matrix& b,
                               const PartitionedCodec& codec, std::size_t p);

/// Result of the fused product: the full-checksum C plus the online-screen
/// bookkeeping (how many panel-level mismatches were observed, and how many
/// tile replays ran to repair them).
struct FusedProduct {
  linalg::Matrix c_fc;
  std::size_t panel_detections = 0;
  std::size_t panel_recomputes = 0;
};

/// C_fc = A_cc * B_rc without materialising A_cc / B_rc: data rows/columns
/// stream from a and b, checksum rows/columns from the light-encode sums.
/// Bit-identical to blocked_matmul over the materialised encoded operands.
/// Requires a.rows() and b.cols() to be multiples of codec.bs() and the sums
/// buffers to have the shapes documented on LightEncoded.
FusedProduct fused_encode_matmul(gpusim::Launcher& launcher,
                                 const linalg::Matrix& a,
                                 const linalg::Matrix& b,
                                 const linalg::Matrix& a_sums,
                                 const linalg::Matrix& b_sums,
                                 const PartitionedCodec& codec,
                                 const FusedGemmConfig& config);

/// Materialise the encoded operands A_cc / B_rc from a light encode — the rare
/// path (correction / block recompute / full recompute all operate on the
/// encoded operands). Pure layout copies: bit-identical to the data matrices
/// encode_columns / encode_rows produce.
linalg::Matrix materialize_columns(const linalg::Matrix& a,
                                   const linalg::Matrix& a_sums,
                                   const PartitionedCodec& codec);

linalg::Matrix materialize_rows(const linalg::Matrix& b,
                                const linalg::Matrix& b_sums,
                                const PartitionedCodec& codec);

}  // namespace aabft::abft
