// lib_gemm: fault-free A-ABFT GEMMs through the library, one caller, closed
// loop — the paper's Table I setting. Kernel layers (gpusim executor,
// product, encode, check) do nearly all the work; serve and fleet do none.
//
// The mix interleaves eight n=512 problems per n=1024 problem, so each size
// contributes half the flops: an n=512 operand (2 MiB) fits one core's L2,
// an n=1024 operand (8 MiB) does not but stays far below the L3.
#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/schemes.hpp"
#include "common.hpp"
#include "core/rng.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace perfbench {

namespace {

using aabft::linalg::Matrix;

struct Problem {
  Matrix a;
  Matrix b;
  Matrix ref;  ///< fault-free unprotected product (bit-identical target)
};

struct Size {
  std::size_t n;
  const char* tag;          ///< metric suffix
  std::size_t per_cycle;    ///< problems of this size per mix cycle
  std::size_t pool;         ///< distinct operand pairs
  int decomposition_reps;   ///< traced stage-by-stage repetitions
};

constexpr Size kSizes[] = {{512, "n512", 8, 4, 7}, {1024, "n1024", 1, 2, 5}};

struct StageTimes {
  Samples encode, product, check, gemm;
  Samples unattributed;  ///< per repetition: execute minus the three stages
  Samples overhead;      ///< per repetition: execute over the unprotected product
};

/// Traced decomposition of one size. Each repetition times execute() and,
/// on the same operands and configuration, the stages the fused pipeline
/// runs (light encodes, fused product, check) and the unprotected product;
/// differences and ratios are taken within a repetition, so host drift
/// between repetitions does not leak into them.
int decompose(aabft::baselines::AabftScheme& scheme, aabft::gpusim::Launcher& launcher,
              const Problem& p, std::size_t n, int reps, StageTimes& out) {
  const aabft::abft::AabftConfig config;  // the library default
  const aabft::abft::PartitionedCodec codec(config.bs);
  const auto desc = aabft::baselines::OpDescriptor::gemm(n, n, n);
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const auto outcome = scheme.execute(desc, p.a, p.b);
    const auto t1 = Clock::now();
    const auto la = aabft::abft::encode_columns_light(launcher, p.a, codec, config.p);
    const auto lb = aabft::abft::encode_rows_light(launcher, p.b, codec, config.p);
    const auto t2 = Clock::now();
    const auto product = aabft::abft::fused_encode_matmul(
        launcher, p.a, p.b, la.sums, lb.sums, codec, config.fused);
    const auto t3 = Clock::now();
    const auto check = aabft::abft::check_product(
        launcher, product.c_fc, codec, la.pmax, lb.pmax, n, config.bounds);
    const auto t4 = Clock::now();
    const Matrix plain = aabft::linalg::blocked_matmul(launcher, p.a, p.b, config.gemm);
    const auto t5 = Clock::now();
    if (!outcome.ok() || !outcome->clean || !(outcome->c == p.ref) || !check.clean() ||
        !(plain == p.ref)) {
      log("lib_gemm: decomposition at n=%zu disagrees with the reference", n);
      return 1;
    }
    const double execute = ms_between(t0, t1);
    out.encode.add(ms_between(t1, t2));
    out.product.add(ms_between(t2, t3));
    out.check.add(ms_between(t3, t4));
    out.gemm.add(ms_between(t4, t5));
    out.unattributed.add(execute - ms_between(t1, t4));
    out.overhead.add(execute / ms_between(t4, t5));
  }
  return 0;
}

}  // namespace

int run_lib_gemm(const Options& opt, Report& report) {
  const unsigned workers = host_workers();
  aabft::Rng rng(opt.seed);

  // Inputs and references (outside every timed window).
  std::vector<std::vector<Problem>> pools(std::size(kSizes));
  {
    aabft::gpusim::Launcher ref_launcher(aabft::gpusim::k20c(), workers);
    for (std::size_t s = 0; s < std::size(kSizes); ++s)
      for (std::size_t i = 0; i < kSizes[s].pool; ++i) {
        Problem p;
        p.a = aabft::linalg::uniform_matrix(kSizes[s].n, kSizes[s].n, -1.0, 1.0, rng);
        p.b = aabft::linalg::uniform_matrix(kSizes[s].n, kSizes[s].n, -1.0, 1.0, rng);
        p.ref = aabft::linalg::blocked_matmul(ref_launcher, p.a, p.b);
        pools[s].push_back(std::move(p));
      }
  }

  Outcomes outcomes;
  Outcomes warm_outcomes;
  // One verified library call: its span in ms, and whether it succeeded.
  const auto execute = [](aabft::baselines::AabftScheme& scheme, const Problem& p,
                          Outcomes& tally) {
    const auto desc = aabft::baselines::OpDescriptor::gemm(
        p.a.rows(), p.a.cols(), p.b.cols());
    const auto t0 = Clock::now();
    auto outcome = scheme.execute(desc, p.a, p.b);
    const double ms = ms_between(t0, Clock::now());
    Verdict v = Verdict::kError;
    if (outcome.ok() && outcome->clean)
      v = outcome->c == p.ref ? Verdict::kOk : Verdict::kWrong;
    return std::make_pair(ms, tally.count(v));
  };

  // Set-up: launcher + scheme + one warm call per size, several times.
  Samples setup_s;
  std::unique_ptr<aabft::gpusim::Launcher> launcher;
  std::unique_ptr<aabft::baselines::AabftScheme> scheme;
  std::uint64_t calls_on_launcher = 0;
  for (int r = 0; r < kSetupReps; ++r) {
    scheme.reset();
    launcher.reset();
    const auto t0 = Clock::now();
    launcher = std::make_unique<aabft::gpusim::Launcher>(aabft::gpusim::k20c(), workers);
    scheme = std::make_unique<aabft::baselines::AabftScheme>(*launcher);
    for (const auto& pool : pools) (void)execute(*scheme, pool.front(), warm_outcomes);
    setup_s.add(ms_between(t0, Clock::now()) / 1e3);
    calls_on_launcher = std::size(kSizes);
  }

  // Closed loop, whole mix cycles until the time is up.
  std::vector<Samples> spans(std::size(kSizes));
  Samples all_spans;
  SlicedRate flops_rate;
  SlicedRate call_rate;
  double busy_ms = 0.0;
  std::size_t cycles = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opt.seconds);
  std::vector<std::size_t> next(std::size(kSizes), 0);
  // Rates are taken per whole cycle, on the clock of the execute() spans.
  while (Clock::now() < deadline && !outcomes.wrong && !warm_outcomes.wrong) {
    double cycle_flops = 0.0;
    double cycle_calls = 0.0;
    for (std::size_t s = 0; s < std::size(kSizes); ++s)
      for (std::size_t i = 0; i < kSizes[s].per_cycle; ++i) {
        const Problem& p = pools[s][next[s]++ % pools[s].size()];
        const auto [ms, ok] = execute(*scheme, p, outcomes);
        ++calls_on_launcher;
        spans[s].add(ms);
        all_spans.add(ms);
        busy_ms += ms;
        if (!ok) continue;
        cycle_flops += static_cast<double>(
            aabft::baselines::OpDescriptor::gemm(kSizes[s].n, kSizes[s].n, kSizes[s].n)
                .flops());
        cycle_calls += 1.0;
      }
    flops_rate.add(busy_ms / 1e3, cycle_flops);
    call_rate.add(busy_ms / 1e3, cycle_calls);
    ++cycles;
  }
  if (outcomes.wrong || warm_outcomes.wrong) {
    log("lib_gemm: a clean result differs from the fault-free reference");
    return 1;
  }
  log("lib_gemm: %zu cycles, %llu calls, %.1f s busy", cycles,
      static_cast<unsigned long long>(outcomes.attempted), busy_ms / 1e3);

  report.outcome(outcomes.attempted, outcomes.failed);
  report.param("closed_loop_callers", 1.0);
  report.param("workers", static_cast<double>(workers));
  report.param("mix", "8 x n=512 per 1 x n=1024, U(-1,1), default AabftConfig");
  report.param("cycles", static_cast<double>(cycles));
  report.metric("setup_s", setup_s.median(), "s");
  report.metric("gflops", flops_rate.median_rate(kRateSlices) / 1e9, "GFLOP/s");
  report.metric("throughput_rps", call_rate.median_rate(kRateSlices), "1/s");
  report.percentile("latency_p50_ms", all_spans, 0.50, "ms");
  report.percentile("latency_p95_ms", all_spans, 0.95, "ms");
  report.percentile("latency_p99_ms", all_spans, 0.99, "ms");
  report.metric("error_rate", outcomes.error_rate(), "fraction");
  if (!opt.trace) return 0;

  // gpusim: the launch log the loop left behind, per library call.
  report_launch_log(report, *launcher, static_cast<double>(calls_on_launcher));

  for (std::size_t s = 0; s < std::size(kSizes); ++s) {
    StageTimes stages;
    if (decompose(*scheme, *launcher, pools[s].front(), kSizes[s].n,
                  kSizes[s].decomposition_reps, stages) != 0)
      return 1;
    const std::string tag = kSizes[s].tag;
    report.metric("abft.execute_ms." + tag, spans[s].median(), "ms");
    report.metric("abft.encode_ms." + tag, stages.encode.median(), "ms");
    report.metric("abft.product_ms." + tag, stages.product.median(), "ms");
    report.metric("abft.check_ms." + tag, stages.check.median(), "ms");
    report.metric("abft.unattributed_ms." + tag, stages.unattributed.median(), "ms");
    report.metric("linalg.gemm_ms." + tag, stages.gemm.median(), "ms");
    report.metric("abft.overhead_x." + tag, stages.overhead.median(), "ratio");
  }
  return 0;
}

}  // namespace perfbench
