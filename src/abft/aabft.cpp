#include "abft/aabft.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "core/require.hpp"

namespace aabft::abft {

using linalg::Matrix;

AabftMultiplier::AabftMultiplier(gpusim::Launcher& launcher, AabftConfig config)
    : launcher_(launcher), config_(config), codec_(config.bs) {
  AABFT_REQUIRE(config_.valid(),
                "invalid A-ABFT configuration (check bs, p, gemm blocking and "
                "that the FMA flags of bounds and gemm agree)");
  // The bound model's t must match the pipeline's arithmetic precision.
  const int expected_t =
      launcher.precision() == gpusim::Precision::kSingle ? 23 : 52;
  AABFT_REQUIRE(config_.bounds.t == expected_t,
                "bounds.t must match the launcher's arithmetic precision "
                "(52 for double, 23 for single)");
}

std::optional<Error> AabftMultiplier::validate(const Matrix& a,
                                               const Matrix& b) const {
  if (a.cols() != b.rows())
    return shape_error("inner dimensions must agree: A is " +
                       std::to_string(a.rows()) + "x" +
                       std::to_string(a.cols()) + ", B is " +
                       std::to_string(b.rows()) + "x" +
                       std::to_string(b.cols()));
  if (!codec_.divides(a.rows()))
    return shape_error("rows of A (" + std::to_string(a.rows()) +
                       ") must be a multiple of the checksum block size " +
                       std::to_string(config_.bs));
  if (!codec_.divides(b.cols()))
    return shape_error("columns of B (" + std::to_string(b.cols()) +
                       ") must be a multiple of the checksum block size " +
                       std::to_string(config_.bs));
  return std::nullopt;
}

Result<AabftResult> AabftMultiplier::multiply(const Matrix& a, const Matrix& b,
                                              const LightEncoded* a_light) {
  if (auto err = validate(a, b)) return *err;
  return run(a, b, a_light);
}

std::vector<Result<AabftResult>> AabftMultiplier::multiply_batch(
    std::span<const Operands> problems, std::size_t streams) {
  std::vector<Result<AabftResult>> results;
  results.reserve(problems.size());
  for (std::size_t i = 0; i < problems.size(); ++i)
    results.emplace_back(
        Error{ErrorCode::kExecutionFailed, "batch entry did not execute"});
  if (problems.empty()) return results;
  AABFT_REQUIRE(std::all_of(problems.begin(), problems.end(),
                            [](const Operands& p) {
                              return p.a != nullptr && p.b != nullptr;
                            }),
                "batch problems must reference both operands");

  const std::size_t lanes_wanted =
      streams != 0 ? streams : std::max<std::size_t>(1, launcher_.workers());
  const std::size_t num_lanes = std::min(problems.size(), lanes_wanted);

  std::vector<gpusim::Stream> lanes;
  lanes.reserve(num_lanes);
  for (std::size_t s = 0; s < num_lanes; ++s)
    lanes.push_back(launcher_.create_stream());

  // Each problem's whole pipeline runs as one host task on its lane: within
  // a lane problems execute in order, across lanes the encode of one problem
  // overlaps the product/check of another. The nested launch() calls inside
  // run() are drained by the worker executing the host task (caller-help),
  // so this cannot deadlock even with a single worker. Operands are only
  // read, so problems sharing one A (and its light encode) may overlap.
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const Operands& prob = problems[i];
    if (auto err = validate(*prob.a, *prob.b)) {
      results[i] = *err;
      continue;
    }
    launcher_.launch_host_async(
        lanes[i % num_lanes], "aabft_batch", [this, prob, &results, i] {
          try {
            results[i] = run(*prob.a, *prob.b, prob.a_light);
          } catch (const std::exception& e) {
            results[i] = Error{ErrorCode::kExecutionFailed, e.what()};
          }
        });
  }
  for (auto& lane : lanes) lane.synchronize();
  return results;
}

AabftResult AabftMultiplier::multiply_padded(const Matrix& a, const Matrix& b) {
  AABFT_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  const std::size_t padded_m = padded_dim(a.rows(), config_.bs);
  const std::size_t padded_q = padded_dim(b.cols(), config_.bs);
  const Matrix a_padded = pad_to(a, padded_m, a.cols());
  const Matrix b_padded = pad_to(b, b.rows(), padded_q);
  AabftResult result = run(a_padded, b_padded, nullptr);
  result.c = unpad_to(result.c, a.rows(), b.cols());
  return result;
}

void AabftMultiplier::maybe_verify_light(const Matrix& a,
                                         const LightEncoded& light) {
  const std::size_t every = config_.cache_verify_every;
  if (every == 0) return;
  const std::uint64_t n = light_served_.fetch_add(1, std::memory_order_relaxed);
  if (n % every != 0) return;

  // Fresh light encode of the operand the caller actually handed us; the
  // supplied side-buffer must match it bit for bit (the sums feed both the
  // fused product and the materialised repair operands), and the p-max
  // *values* must match (tie index choices are encoder-specific and do not
  // enter the bounds).
  const LightEncoded fresh = encode_columns_light(launcher_, a, codec_,
                                                  config_.p);
  AABFT_REQUIRE(fresh.sums == light.sums,
                "operand-cache consistency check failed: cached checksum "
                "side-buffer is not bit-identical to a fresh encode (stale "
                "or corrupted cache entry)");
  AABFT_REQUIRE(fresh.pmax.size() == light.pmax.size(),
                "operand-cache consistency check failed: p-max table extent "
                "mismatch");
  for (std::size_t v = 0; v < fresh.pmax.size(); ++v) {
    const PMaxList& want = fresh.pmax[v];
    const PMaxList& got = light.pmax[v];
    AABFT_REQUIRE(want.size() == got.size(),
                  "operand-cache consistency check failed: p-max list length "
                  "mismatch");
    for (std::size_t i = 0; i < want.size(); ++i)
      AABFT_REQUIRE(want[i].value == got[i].value,
                    "operand-cache consistency check failed: cached p-max "
                    "value differs from a fresh encode");
  }
}

AabftResult AabftMultiplier::run(const Matrix& a, const Matrix& b,
                                 const LightEncoded* a_light) {
  AABFT_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  AABFT_REQUIRE(codec_.divides(a.rows()),
                "rows of A must be a multiple of the checksum block size");
  AABFT_REQUIRE(codec_.divides(b.cols()),
                "columns of B must be a multiple of the checksum block size");

  // Step 1, light form: compact checksum side-buffers + p-max tables, no
  // encoded-matrix materialisation (fused_gemm.hpp). A supplied encode of A
  // skips A's pass entirely — its sums and p-max table are exactly what
  // encode_columns_light would produce.
  std::optional<LightEncoded> a_own;
  if (a_light != nullptr) {
    maybe_verify_light(a, *a_light);
  } else {
    a_own = encode_columns_light(launcher_, a, codec_, config_.p);
    a_light = &*a_own;
  }
  const LightEncoded b_light = encode_rows_light(launcher_, b, codec_,
                                                 config_.p);

  // Step 2, fused: the product stages the encoding virtually and screens its
  // own column checksums at panel boundaries — the recovery ladder's rung 0.
  // Detection-only mode keeps the screen but not its replay, so nothing is
  // repaired.
  FusedGemmConfig fused = config_.fused;
  fused.use_fma = config_.gemm.use_fma;
  if (!config_.correct_errors) fused.max_panel_recomputes = 0;
  FusedProduct product = fused_encode_matmul(launcher_, a, b, a_light->sums,
                                             b_light.sums, codec_, fused);

  // The repair rungs (correction re-check aside) operate on the encoded
  // operands; materialise them only if one actually engages.
  std::optional<Matrix> a_enc;
  std::optional<Matrix> b_enc;
  const auto encoded_a = [&]() -> const Matrix& {
    if (!a_enc) a_enc = materialize_columns(a, a_light->sums, codec_);
    return *a_enc;
  };
  const auto encoded_b = [&]() -> const Matrix& {
    if (!b_enc) b_enc = materialize_rows(b, b_light.sums, codec_);
    return *b_enc;
  };
  AabftResult result = settle(launcher_, config_, codec_,
                              std::move(product.c_fc), a_light->pmax,
                              b_light.pmax, a.cols(), encoded_a, encoded_b);
  result.panel_detections = product.panel_detections;
  result.panel_recomputes = product.panel_recomputes;
  return result;
}

AabftResult settle(gpusim::Launcher& launcher, const AabftConfig& config,
                   const PartitionedCodec& codec, Matrix c_fc,
                   const PMaxTable& a_pmax, const PMaxTable& b_pmax,
                   std::size_t k,
                   const std::function<const Matrix&()>& encoded_a,
                   const std::function<const Matrix&()>& encoded_b) {
  const auto check = [&](const Matrix& c) {
    return check_product(launcher, c, codec, a_pmax, b_pmax, k, config.bounds,
                         nullptr);
  };
  // Step 4: bounds determination + reference checksums + comparison
  // (Algorithm 2).
  CheckReport report = check(c_fc);

  AabftResult result;
  result.report = report;

  // Step 5: localisation and correction.
  if (!report.clean() && config.correct_errors) {
    CorrectionOutcome outcome = locate_and_correct(c_fc, report, codec);
    result.corrections = std::move(outcome.corrections);
    result.uncorrectable = outcome.uncorrectable;
    // Verify the patch: the corrected matrix must pass a clean re-check.
    result.recheck_clean = !result.corrections.empty() &&
                           !result.uncorrectable && check(c_fc).clean();

    // Per-block recompute rung (opt-in): re-derive only the still-flagged
    // checksum blocks from the encoded operands — bit-exact, unlike the
    // checksum-rebuilt patches above — before resorting to a full re-run.
    std::size_t block_rounds = config.max_block_recomputes;
    if (block_rounds > 0 && (result.uncorrectable || !result.recheck_clean)) {
      // The first report still describes c_fc when nothing was patched;
      // otherwise re-check to see what correction left behind.
      CheckReport current = result.corrections.empty() ? report : check(c_fc);
      while (!current.clean() && block_rounds-- > 0) {
        const auto blocks = flagged_blocks(current);
        recompute_blocks(launcher, c_fc, encoded_a(), encoded_b(), blocks,
                         codec, config.gemm);
        result.block_recomputes += blocks.size();
        current = check(c_fc);
      }
      if (current.clean()) {
        result.uncorrectable = false;
        result.recheck_clean = true;
      }
    }

    // Recovery of last resort for transient faults: re-execute the product.
    // blocked_matmul over the materialised encoded operands is bit-identical
    // to a clean fused product (the accumulation order is blocking-
    // independent), so both pipelines share this rung.
    std::size_t attempts = config.max_recompute_attempts;
    while ((result.uncorrectable || !result.recheck_clean) && attempts-- > 0) {
      c_fc = linalg::blocked_matmul(launcher, encoded_a(), encoded_b(),
                                    config.gemm);
      ++result.recomputations;
      if (check(c_fc).clean()) {
        result.uncorrectable = false;
        result.recheck_clean = true;
      }
    }
  } else if (!report.clean()) {
    result.uncorrectable = true;  // detection-only mode
    result.recheck_clean = false;
  }

  result.c = codec.strip(c_fc);
  result.c_fc = std::move(c_fc);
  return result;
}

}  // namespace aabft::abft
