#include "baselines/perf_suite.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "baselines/scheme_timing.hpp"
#include "baselines/schemes.hpp"
#include "core/require.hpp"
#include "core/rng.hpp"
#include "gpusim/perf_model.hpp"
#include "linalg/workload.hpp"

namespace aabft::baselines {

namespace {

void price(SchemePerf& perf, std::size_t n) {
  const SchemeTiming timing = price_launch_log(gpusim::k20c(), perf.log);
  perf.model_seconds = timing.total_seconds();
  const auto payload = static_cast<std::uint64_t>(2) * n * n * n;
  perf.model_gflops = gpusim::gflops(payload, perf.model_seconds);
}

SchemePerf run_one(gpusim::Launcher& launcher, std::size_t n,
                   ProtectedBlas3& scheme, const linalg::Matrix& a,
                   const linalg::Matrix& b) {
  launcher.clear_launch_log();
  const auto t0 = std::chrono::steady_clock::now();
  SchemePerf perf;
  perf.scheme = std::string(scheme.name());
  const auto result =
      scheme.execute(OpDescriptor::gemm(a.rows(), a.cols(), b.cols()), a, b);
  AABFT_ASSERT(result.ok(), "perf-suite multiply refused valid shapes");
  perf.false_positive = result->detected;
  perf.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  perf.log = launcher.launch_log();
  price(perf, n);
  return perf;
}

}  // namespace

const SchemePerf& PerfSuiteResult::scheme(std::string_view name) const {
  for (const auto& perf : schemes)
    if (perf.scheme == name) return perf;
  throw std::logic_error("perf suite has no scheme named '" +
                         std::string(name) + "'");
}

std::vector<gpusim::LaunchStats> project_log(
    const std::vector<gpusim::LaunchStats>& log, std::size_t n0,
    std::size_t n) {
  AABFT_REQUIRE(n0 > 0 && n > 0, "sizes must be positive");
  const double r = static_cast<double>(n) / static_cast<double>(n0);
  const double r2 = r * r;
  const double r3 = r2 * r;
  auto scale = [](std::uint64_t v, double f) {
    return static_cast<std::uint64_t>(static_cast<double>(v) * f);
  };
  std::vector<gpusim::LaunchStats> out = log;
  for (auto& entry : out) {
    const bool cubic = gpusim::classify_kernel(entry.kernel_name) ==
                       gpusim::KernelClass::kGemm;
    const double flop_factor = cubic ? r3 : r2;
    entry.counters.adds = scale(entry.counters.adds, flop_factor);
    entry.counters.muls = scale(entry.counters.muls, flop_factor);
    entry.counters.fmas = scale(entry.counters.fmas, flop_factor);
    entry.counters.compares = scale(entry.counters.compares, flop_factor);
    // GEMM loads are staged per K-panel (O(n^3)); its stores and every
    // other kernel's traffic are O(n^2).
    entry.counters.bytes_loaded =
        scale(entry.counters.bytes_loaded, cubic ? r3 : r2);
    entry.counters.bytes_stored = scale(entry.counters.bytes_stored, r2);
    entry.blocks = scale(entry.blocks, r2);
  }
  return out;
}

PerfSuiteResult project_perf_suite(const PerfSuiteResult& base, std::size_t n0,
                                   std::size_t n) {
  PerfSuiteResult result;
  result.n = n;
  result.schemes.reserve(base.schemes.size());
  for (const auto& perf : base.schemes) {
    SchemePerf projected;
    projected.scheme = perf.scheme;
    projected.log = project_log(perf.log, n0, n);
    price(projected, n);
    result.schemes.push_back(std::move(projected));
  }
  return result;
}

PerfSuiteResult run_perf_suite(std::size_t n, const PerfSuiteConfig& config) {
  Rng rng(config.seed);
  const auto a = linalg::uniform_matrix(n, n, -1.0, 1.0, rng);
  const auto b = linalg::uniform_matrix(n, n, -1.0, 1.0, rng);
  gpusim::Launcher launcher;

  PerfSuiteResult result;
  result.n = n;

  SchemeSuiteConfig suite;
  suite.bs = config.bs;
  suite.p = config.p;
  suite.fixed_epsilon = config.fixed_epsilon;
  suite.include_diverse_tmr = config.include_diverse_tmr;
  for (const auto& scheme : make_schemes(launcher, suite))
    result.schemes.push_back(run_one(launcher, n, *scheme, a, b));

  return result;
}

}  // namespace aabft::baselines
