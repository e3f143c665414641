#include "core/sync.hpp"
#include "abft/gemv.hpp"

#include <cmath>

#include "abft/upper_bound.hpp"
#include "core/require.hpp"
#include "gpusim/fault_site.hpp"

namespace aabft::abft {

using gpusim::BlockCtx;
using gpusim::Dim3;
using gpusim::FaultSite;

ProtectedGemv::ProtectedGemv(gpusim::Launcher& launcher,
                             const linalg::Matrix& a, AabftConfig config)
    : launcher_(launcher),
      config_(config),
      codec_(config.bs),
      a_cc_(encode_columns(launcher, a, codec_, config.p)),
      rows_(a.rows()),
      cols_(a.cols()) {
  AABFT_REQUIRE(config_.valid(), "invalid A-ABFT configuration");
}

GemvResult ProtectedGemv::multiply(const std::vector<double>& x) {
  AABFT_REQUIRE(x.size() == cols_, "vector length must match A's columns");
  const std::size_t bs = codec_.bs();
  const std::size_t enc_rows = a_cc_.data.rows();

  GemvResult result;
  std::size_t attempts = config_.max_recompute_attempts + 1;
  while (attempts-- > 0) {
    // y_enc = A_cc * x: one block per encoded row, ascending-k accumulation
    // (the injectable sites match the GEMM kernel's inner loop).
    std::vector<double> y_enc(enc_rows, 0.0);
    launcher_.launch("gemv", Dim3{enc_rows, 1, 1}, [&](BlockCtx& blk) {
      auto& math = blk.math;
      const std::size_t r = blk.block.x;
      math.load_doubles(cols_ + (r == 0 ? cols_ : 0));  // row + x (once)
      double acc = 0.0;
      // Fault fence over the whole row (all ops use module 0 and the k-index
      // of the column): the fenced row, a 1 x 1 panel, is bit-identical to
      // the per-op chain below.
      const bool row_hot = math.needs_instrumented(
          FaultSite::kInnerMul, FaultSite::kInnerAdd, 0, 0, 0,
          static_cast<std::int64_t>(cols_) - 1);
      if (!row_hot) {
        math.accumulate_panel(a_cc_.data.row(r).data(), x.data(), &acc, 1, 1,
                              cols_, cols_, config_.gemm.use_fma);
      } else {
        for (std::size_t k = 0; k < cols_; ++k) {
          const auto kk = static_cast<std::int64_t>(k);
          if (config_.gemm.use_fma) {
            acc = math.faulty_fma(a_cc_.data(r, k), x[k], acc,
                                  FaultSite::kInnerAdd, 0, kk);
          } else {
            const double prod = math.faulty_mul(a_cc_.data(r, k), x[k],
                                                FaultSite::kInnerMul, 0, kk);
            acc = math.faulty_add(acc, prod, FaultSite::kInnerAdd, 0, kk);
          }
        }
      }
      y_enc[r] = math.faulty_add(0.0, acc, FaultSite::kFinalAdd, 0, 0);
      math.store_doubles(1);
    });

    // Runtime maxima of |x| (the "vector side" of the upper bound).
    PMaxList x_pmax(config_.p);
    launcher_.launch("gemv_pmax_x", Dim3{1, 1, 1}, [&](BlockCtx& blk) {
      auto& math = blk.math;
      math.load_doubles(cols_);
      std::size_t comparisons = 0;
      for (std::size_t k = 0; k < cols_; ++k)
        comparisons += x_pmax.offer(std::fabs(x[k]), k);
      math.count_compares(comparisons);
    });

    // Check every block checksum.
    std::vector<GemvMismatch> current;
    core::Mutex current_mutex{core::LockRank::kKernelReduction,
                              "kernel.gemv_merge"};
    launcher_.launch("gemv_check", Dim3{enc_rows / (bs + 1), 1, 1},
                     [&](BlockCtx& blk) {
      auto& math = blk.math;
      const std::size_t block = blk.block.x;
      const std::size_t row0 = block * (bs + 1);
      math.load_doubles(bs + 1);
      // Fenced span sum (no injection sites in the check kernel): identical
      // rounding chain and add count as the per-op loop it replaces.
      const double ref = math.sum_strided(y_enc.data() + row0, bs, 1);
      const double stored = y_enc[codec_.checksum_index(block)];

      const double y_bound = determine_upper_bound(
          a_cc_.pmax[codec_.checksum_index(block)], x_pmax);
      double y_data = 0.0;
      for (std::size_t i = 0; i < bs; ++i)
        y_data = std::max(y_data,
                          // aabft-lint: allow (bound estimate, bulk-counted)
                          a_cc_.pmax[row0 + i].max_value() * x_pmax.max_value());
      math.count_compares(2 * config_.p * config_.p + bs);
      const double eps = checksum_epsilon(cols_, bs, y_bound, y_data,
                                          config_.bounds);
      math.count_muls(6);
      math.count_adds(6);

      const double diff = math.abs(math.sub(ref, stored));
      math.count_compares(1);
      if (!(diff <= eps)) {  // NaN-aware
        const core::MutexLock lock(current_mutex);
        current.push_back({block, ref, stored, eps});
      }
    });

    // The first failing pass's mismatches are the detection report; a later
    // clean recompute sets ok without erasing what was detected.
    if (!current.empty() && result.mismatches.empty())
      result.mismatches = current;

    if (current.empty() || attempts == 0) {
      result.ok = current.empty();
      result.y.resize(rows_);
      for (std::size_t i = 0; i < rows_; ++i)
        result.y[i] = y_enc[codec_.enc_index(i)];
      return result;
    }
    ++result.recomputations;  // transient fault: re-execute the product
  }
  return result;  // unreachable (loop always returns)
}

}  // namespace aabft::abft
