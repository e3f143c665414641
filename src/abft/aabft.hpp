// A-ABFT: the autonomously bounded, ABFT-protected matrix multiplication —
// the paper's primary contribution, assembled from the pieces of Section V:
//
//   1. encode: column checksums of A and row checksums of B, with the
//      block-wise maxima that feed the bounds (Algorithm 1);
//   2. the block-based matrix product (Algorithm 3 kernel);
//   3. global reduction of block-wise maxima to p per vector;
//   4. check kernel: autonomous rounding-error bounds, reference checksums,
//      comparison (Algorithm 2);
//   5. error localisation at row/column mismatch intersections and
//      single-error correction from the checksum information.
//
// No calibration runs, no user-provided bounds: everything the check needs
// is collected while encoding.
//
// The library runs the fused form of this pipeline (fused_gemm.hpp): a light
// encode (steps 1 and 3 into compact side-buffers), then a product that
// accumulates the checksums inside its k-panel loop and screens them per
// panel, then steps 4-5. The paper's own kernels (Algorithm 1 encode and the
// product over the materialised encoded operands) run as Table I's and
// Figure 4's "a-abft" contender in baselines/schemes.hpp; both share the
// recovery ladder below (settle).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "abft/bounds.hpp"
#include "abft/checker.hpp"
#include "abft/checksum.hpp"
#include "abft/correction.hpp"
#include "abft/encoder.hpp"
#include "abft/fused_gemm.hpp"
#include "abft/padding.hpp"
#include "core/result.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/matrix.hpp"

namespace aabft::abft {

struct AabftConfig {
  std::size_t bs = 32;        ///< checksum block size (partitioned encoding)
  std::size_t p = 2;          ///< tracked maxima per vector (paper uses p = 2)
  BoundParams bounds;         ///< omega, FMA mode, bound policy
  /// Blocking of the product over materialised encoded operands: the repair
  /// rungs' recomputes and the paper's kernels (baselines' contender).
  linalg::GemmConfig gemm;
  bool correct_errors = true; ///< attempt single-error correction
  /// Fused-kernel blocking and screen parameters. use_fma is kept in sync
  /// with gemm.use_fma by set_fma() / the pipeline.
  FusedGemmConfig fused;
  /// When correction alone does not yield a clean product, re-derive only
  /// the still-flagged (BS+1)x(BS+1) blocks from the encoded operands (see
  /// abft::recompute_blocks) up to this many rounds before falling back to a
  /// full re-execution. Bit-exact repair at O(blocks * BS^2 * K) cost; 0
  /// (the default) preserves the classic correct-then-full-recompute ladder.
  std::size_t max_block_recomputes = 0;
  /// When localisation fails (or the post-correction re-check still flags
  /// errors), re-execute the product and check once more — the standard
  /// recovery for transient faults. 0 disables recomputation.
  std::size_t max_recompute_attempts = 1;
  /// Cache-consistency guard for problems that arrive with A's light encode
  /// (the operand cache's hit path): every N-th such problem re-runs the
  /// light encode of A and requires the supplied side-buffer and p-max values
  /// to be bit-identical, throwing std::invalid_argument on a stale entry so
  /// soaks catch cache bugs instead of serving from them. 0 disables the
  /// check (the production default; the sampled check costs one extra encode
  /// pass per N problems).
  std::size_t cache_verify_every = 0;

  /// Keeps the GEMM kernel's FMA mode and the bound model consistent.
  void set_fma(bool fma) noexcept {
    bounds.fma = fma;
    gemm.use_fma = fma;
    fused.use_fma = fma;
  }

  [[nodiscard]] bool valid() const noexcept {
    return bs >= 2 && p >= 1 && gemm.valid() && fused.valid() &&
           bounds.fma == gemm.use_fma;
  }
};

struct AabftResult {
  linalg::Matrix c;                    ///< stripped m x q result
  linalg::Matrix c_fc;                 ///< full-checksum product (post-correction)
  CheckReport report;                  ///< mismatches of the *first* check pass
  std::vector<Correction> corrections; ///< applied single-error corrections
  bool uncorrectable = false;          ///< mismatches did not localise cleanly
  bool recheck_clean = true;           ///< the post-correction check passed
  std::size_t block_recomputes = 0;    ///< checksum blocks recomputed in place
  std::size_t recomputations = 0;      ///< full re-executions performed
  std::size_t panel_detections = 0;    ///< online panel-screen mismatches
  std::size_t panel_recomputes = 0;    ///< tile panel replays (ladder rung 0)

  /// True when either check saw an error: the end-of-product check, or the
  /// fused product's panel screen (whose replay may have repaired the tile
  /// before the end-of-product check ran, leaving `report` clean).
  [[nodiscard]] bool error_detected() const noexcept {
    return !report.clean() || panel_detections > 0;
  }
};

/// The operands of one protected product: borrowed A and B, read for the
/// duration of the call and never copied, and optionally A's light encode
/// (encode_columns_light of this very A, e.g. the serving operand cache's
/// entry). A supplied encode replaces A's encode pass; results are
/// bit-identical to encoding A afresh.
struct Operands {
  const linalg::Matrix* a = nullptr;
  const linalg::Matrix* b = nullptr;
  const LightEncoded* a_light = nullptr;
};

/// Steps 4-5, shared by the library pipeline and the paper's kernels: check
/// C_fc, then the recovery ladder `config` allows (correction, block
/// recompute, full recompute), then strip. `k` is the unencoded inner
/// dimension. The encoded-operand providers are invoked only by the repair
/// rungs, so a caller may materialise A_cc / B_rc lazily.
[[nodiscard]] AabftResult settle(
    gpusim::Launcher& launcher, const AabftConfig& config,
    const PartitionedCodec& codec, linalg::Matrix c_fc,
    const PMaxTable& a_pmax, const PMaxTable& b_pmax, std::size_t k,
    const std::function<const linalg::Matrix&()>& encoded_a,
    const std::function<const linalg::Matrix&()>& encoded_b);

class AabftMultiplier {
 public:
  AabftMultiplier(gpusim::Launcher& launcher, AabftConfig config);

  /// Protected multiply: C = A * B with autonomous error detection (and, if
  /// configured, correction). `a_light`, when given, is A's light encode
  /// (see Operands). Shape misuse — mismatched inner dimensions, or
  /// a.rows() / b.cols() not multiples of bs (pad beforehand, or use
  /// multiply_padded; the paper pads too) — is returned as an error, not
  /// thrown (DESIGN.md §4.7). A stale `a_light` caught by the sampled
  /// consistency guard (cache_verify_every) throws.
  [[nodiscard]] Result<AabftResult> multiply(
      const linalg::Matrix& a, const linalg::Matrix& b,
      const LightEncoded* a_light = nullptr);

  /// Protected multiply of independent problems, pipelined across streams:
  /// the encode of problem i+1 overlaps the product/check of problem i, and
  /// whole problems run concurrently when workers allow. Problems may share
  /// operands (the repeated-weight serving case). Results are bit-identical
  /// to sequential multiply() calls and indexed like `problems`. `streams`
  /// == 0 derives the lane count from the launcher's worker count. Problems
  /// with invalid shapes yield errors in their slot; the rest still run.
  [[nodiscard]] std::vector<Result<AabftResult>> multiply_batch(
      std::span<const Operands> problems, std::size_t streams = 0);

  /// Convenience for arbitrary shapes: zero-pads A's rows and B's columns up
  /// to the next block multiple (checksum-neutral, see padding.hpp), runs the
  /// protected multiply, and returns the unpadded m x q result. The
  /// full-checksum matrix in the result keeps the padded extents.
  [[nodiscard]] AabftResult multiply_padded(const linalg::Matrix& a,
                                            const linalg::Matrix& b);

  [[nodiscard]] const AabftConfig& config() const noexcept { return config_; }
  [[nodiscard]] const PartitionedCodec& codec() const noexcept { return codec_; }

 private:
  AabftResult run(const linalg::Matrix& a, const linalg::Matrix& b,
                  const LightEncoded* a_light);
  /// The sampled cache-consistency guard (config().cache_verify_every):
  /// re-derives A's light encode and requires bit-identity with the
  /// supplied one. Throws std::invalid_argument on a stale entry.
  void maybe_verify_light(const linalg::Matrix& a, const LightEncoded& light);
  /// Recoverable-misuse check shared by multiply and multiply_batch.
  [[nodiscard]] std::optional<Error> validate(const linalg::Matrix& a,
                                              const linalg::Matrix& b) const;

  gpusim::Launcher& launcher_;
  AabftConfig config_;
  PartitionedCodec codec_;
  /// Problems served with a supplied light encode so far (drives the 1-in-N
  /// sampling of the consistency guard); relaxed — exact sampling phase is
  /// irrelevant.
  std::atomic<std::uint64_t> light_served_{0};
};

}  // namespace aabft::abft
