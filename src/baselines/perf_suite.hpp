// The Table-I experiment as a reusable component: run every scheme's full
// pipeline on the simulator at one matrix size and price the launch logs
// with the analytic K20C model. Used by bench_table1_performance and by the
// integration tests that lock in the paper's performance *shape* (ordering
// and gap trends).
//
// The suite iterates the schemes through the shared ProtectedBlas3
// interface (baselines/scheme.hpp) — adding a contender means adding it to
// make_schemes, not touching this driver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/kernel.hpp"
#include "linalg/matrix.hpp"

namespace aabft::baselines {

struct SchemePerf {
  std::string scheme;          ///< ProtectedBlas3::name() key
  double model_gflops = 0.0;   ///< 2 n^3 / modelled K20C seconds
  double model_seconds = 0.0;
  double host_seconds = 0.0;   ///< wall clock of the simulation itself
  bool false_positive = false; ///< scheme mis-detected on the clean run
  /// Launch log of the pipeline (kept for projection to larger sizes).
  std::vector<gpusim::LaunchStats> log;
};

struct PerfSuiteResult {
  std::size_t n = 0;
  /// One entry per scheme, in make_schemes order.
  std::vector<SchemePerf> schemes;

  /// Lookup by scheme name; throws std::logic_error when absent.
  [[nodiscard]] const SchemePerf& scheme(std::string_view name) const;

  [[nodiscard]] const SchemePerf& unprotected() const { return scheme("unprotected"); }
  [[nodiscard]] const SchemePerf& fixed_abft() const { return scheme("fixed-abft"); }
  [[nodiscard]] const SchemePerf& aabft() const { return scheme("a-abft"); }
  [[nodiscard]] const SchemePerf& sea_abft() const { return scheme("sea-abft"); }
  [[nodiscard]] const SchemePerf& tmr() const { return scheme("tmr"); }

  /// The paper's headline ordering at every size.
  [[nodiscard]] bool ordering_holds() const {
    return fixed_abft().model_gflops > aabft().model_gflops &&
           aabft().model_gflops > sea_abft().model_gflops &&
           sea_abft().model_gflops > tmr().model_gflops;
  }

  /// A-ABFT's fraction of the manual-bound ABFT performance (rises with n).
  [[nodiscard]] double aabft_over_abft() const {
    return aabft().model_gflops / fixed_abft().model_gflops;
  }
};

struct PerfSuiteConfig {
  std::size_t bs = 32;
  std::size_t p = 2;
  double fixed_epsilon = 1e-8;
  std::uint64_t seed = 2014;
  /// Include the diverse-kernel TMR contender (~3 extra GEMMs per run).
  bool include_diverse_tmr = false;
};

/// Run all scheme pipelines on fresh uniform inputs of size n x n.
[[nodiscard]] PerfSuiteResult run_perf_suite(std::size_t n,
                                             const PerfSuiteConfig& config = {});

/// Project a measured launch log from size n0 to size n by scaling each
/// kernel's counters with its asymptotic complexity: GEMM-class kernels are
/// O(n^3) in flops and staged loads (O(n^2) stores); every other kernel in
/// the suite (encode, check, norms, p-max reductions, votes) is O(n^2).
/// This extends the Table-I model to the paper's 8192 without hours of
/// simulated execution — valid because the timing model consumes only the
/// counters, which scale exactly.
[[nodiscard]] std::vector<gpusim::LaunchStats> project_log(
    const std::vector<gpusim::LaunchStats>& log, std::size_t n0,
    std::size_t n);

/// Projected per-scheme GFLOPS at size n from a measured suite at n0.
[[nodiscard]] PerfSuiteResult project_perf_suite(const PerfSuiteResult& base,
                                                 std::size_t n0,
                                                 std::size_t n);

}  // namespace aabft::baselines
