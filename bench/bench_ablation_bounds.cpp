// Ablation studies for the design choices DESIGN.md calls out:
//
//   1. the p-max parameter p (paper: "quality ... can be improved by
//      increasing p ... also increases the computational overhead"),
//   2. the confidence width omega (paper reports the conservative 3-sigma
//      setting; 2-sigma and 1-sigma "lead to error bounds that are even
//      closer to the actual rounding error"),
//   3. bound policy: the paper's direct Eq.-46 application vs the
//      compositional variant that also covers the reference checksum,
//   4. FMA vs separate multiply+add accumulation (Section IV-D),
//   5. diverse-kernel TMR agreement bounds (extension): clean-run
//      disagreements as omega shrinks.
//
// Each row reports the average bound, its tightness ratio against the exact
// (superaccumulator) rounding error, and clean-run false positives.
#include <iostream>

#include "abft/checker.hpp"
#include "abft/encoder.hpp"
#include "baselines/diverse_tmr.hpp"
#include "bench/bench_common.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "fp/exact_dot.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace {

using namespace aabft;

struct AblationRow {
  double avg_eps = 0.0;
  double avg_exact = 0.0;
  std::size_t false_positives = 0;
  std::uint64_t encode_compares = 0;

  [[nodiscard]] double tightness() const { return avg_eps / avg_exact; }
};

AblationRow measure(std::size_t n, std::size_t bs, std::size_t p,
                    const abft::BoundParams& params, std::uint64_t seed) {
  Rng rng(seed);
  const abft::PartitionedCodec codec(bs);
  gpusim::Launcher launcher;
  const auto a = linalg::uniform_matrix(n, n, -1.0, 1.0, rng);
  const auto b = linalg::uniform_matrix(n, n, -1.0, 1.0, rng);
  const auto a_cc = abft::encode_columns(launcher, a, codec, p);
  const auto b_rc = abft::encode_rows(launcher, b, codec, p);

  AblationRow row;
  for (const auto& entry : launcher.launch_log())
    if (entry.kernel_name.starts_with("encode"))
      row.encode_compares += entry.counters.compares;

  linalg::GemmConfig gemm;
  gemm.use_fma = params.fma;
  const auto c_fc = linalg::blocked_matmul(launcher, a_cc.data, b_rc.data, gemm);

  abft::EpsilonTrace trace;
  const auto report = abft::check_product(launcher, c_fc, codec, a_cc.pmax,
                                          b_rc.pmax, n, params, &trace);
  row.false_positives = report.mismatches.size();
  row.avg_eps = trace.average();

  // Exact rounding error of sampled checksum elements.
  const std::size_t samples = 32;
  double err_sum = 0.0;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto block = static_cast<std::size_t>(
        rng.below(c_fc.rows() / (bs + 1)));
    const auto gc = static_cast<std::size_t>(rng.below(c_fc.cols()));
    const std::size_t cs_row = codec.checksum_index(block);
    const auto col = b_rc.data.col(gc);
    err_sum += std::fabs(
        fp::exact_dot(a_cc.data.row(cs_row), col).round_minus(c_fc(cs_row, gc)));
  }
  row.avg_exact = err_sum / static_cast<double>(samples);
  return row;
}

}  // namespace

int main() {
  const std::size_t n = env_size_or("AABFT_BENCH_MAX_N", 256);
  const std::size_t bs = 32;
  std::cout << "\n=== Ablations (n = " << n << ", BS = " << bs
            << ", inputs U(-1,1)) ===\n\n";

  {
    TablePrinter table({"p", "avg eps", "eps/exact", "false-pos",
                        "encode compares"});
    for (const std::size_t p : {1u, 2u, 4u, 8u}) {
      abft::BoundParams params;
      const AblationRow row = measure(n, bs, p, params, 0xab1 + p);
      table.add_row({std::to_string(p), TablePrinter::sci(row.avg_eps),
                     TablePrinter::fixed(row.tightness(), 0),
                     std::to_string(row.false_positives),
                     std::to_string(row.encode_compares)});
    }
    std::cout << "-- p (tracked maxima): larger p tightens y at higher encode "
                 "cost --\n";
    table.print();
  }

  {
    TablePrinter table({"omega", "avg eps", "eps/exact", "false-pos"});
    for (const double omega : {1.0, 2.0, 3.0}) {
      abft::BoundParams params;
      params.omega = omega;
      const AblationRow row = measure(n, bs, 2, params, 0xab2);
      table.add_row({TablePrinter::fixed(omega, 0),
                     TablePrinter::sci(row.avg_eps),
                     TablePrinter::fixed(row.tightness(), 0),
                     std::to_string(row.false_positives)});
    }
    std::cout << "\n-- omega (confidence width): the paper reports the "
                 "conservative 3-sigma --\n";
    table.print();
  }

  {
    TablePrinter table({"policy", "avg eps", "eps/exact", "false-pos"});
    for (const auto policy : {abft::BoundPolicy::kPaperDirect,
                              abft::BoundPolicy::kCompositional}) {
      abft::BoundParams params;
      params.policy = policy;
      const AblationRow row = measure(n, bs, 2, params, 0xab3);
      table.add_row(
          {policy == abft::BoundPolicy::kPaperDirect ? "paper-direct"
                                                     : "compositional",
           TablePrinter::sci(row.avg_eps),
           TablePrinter::fixed(row.tightness(), 0),
           std::to_string(row.false_positives)});
    }
    std::cout << "\n-- bound policy: compositional additionally covers the "
                 "reference checksum --\n";
    table.print();
  }

  {
    TablePrinter table({"accumulation", "avg eps", "eps/exact", "false-pos"});
    for (const bool fma : {false, true}) {
      abft::BoundParams params;
      params.fma = fma;
      const AblationRow row = measure(n, bs, 2, params, 0xab4);
      table.add_row({fma ? "fma" : "mul+add", TablePrinter::sci(row.avg_eps),
                     TablePrinter::fixed(row.tightness(), 0),
                     std::to_string(row.false_positives)});
    }
    std::cout << "\n-- accumulation mode (Section IV-D): FMA drops the "
                 "product variance term --\n";
    table.print();
  }

  {
    TablePrinter table({"omega", "clean-run disagreements", "unresolved"});
    Rng rng(0xab5);
    const auto a = linalg::uniform_matrix(n, n, -1.0, 1.0, rng);
    const auto b = linalg::uniform_matrix(n, n, -1.0, 1.0, rng);
    for (const double omega : {1.0, 2.0, 3.0}) {
      gpusim::Launcher launcher;
      baselines::DiverseTmrConfig config;
      config.omega = omega;
      baselines::DiverseTmrMultiplier mult(launcher, config);
      const auto result = mult.multiply(a, b);
      table.add_row({TablePrinter::fixed(omega, 0),
                     std::to_string(result.disagreeing_elements),
                     std::to_string(result.unresolved_elements)});
    }
    std::cout << "\n-- diverse-kernel TMR (extension): probabilistic "
                 "agreement bounds across three\n   genuinely different "
                 "kernels; tighter omega risks clean-run disagreement --\n";
    table.print();
  }

  return 0;
}
