// Shared pieces of the benchmark driver: options, raw-sample percentiles,
// the metric report, timing and response verification.
//
// Every number the driver reports is computed here from raw samples taken in
// the benchmark's own code (spans around public entry points) or from the
// telemetry the library already returns; nothing is read from inside src/.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/kernel.hpp"
#include "linalg/matrix.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Raw samples with nearest-rank percentiles (no bucketing).
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  [[nodiscard]] std::size_t count() const noexcept { return v_.size(); }
  /// Nearest-rank percentile, q in (0, 1]; 0 for an empty set.
  [[nodiscard]] double percentile(double q) const;
  /// Samples strictly above the nearest rank of q.
  [[nodiscard]] std::size_t beyond(double q) const;
  [[nodiscard]] double median() const { return percentile(0.5); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double sum() const;

 private:
  std::vector<double> v_;
};

/// Completions of a closed loop, for a rate no single burst of host
/// interference sets: the median over equal slices (by completion count) of
/// each slice's amount per second. `at_s` is when the completion happened on
/// the phase's clock.
class SlicedRate {
 public:
  void add(double at_s, double amount) { done_.emplace_back(at_s, amount); }
  [[nodiscard]] double median_rate(std::size_t slices) const;

 private:
  std::vector<std::pair<double, double>> done_;
};

/// Slices of a closed-loop phase for SlicedRate::median_rate.
inline constexpr std::size_t kRateSlices = 10;

/// Open-loop samples split into equal windows of scheduled send time. A
/// windowed percentile is the median over windows of each window's
/// percentile, so a stall burst or the fleet's fence transient inside one
/// window does not move it.
class Windows {
 public:
  Windows(double span_s, std::size_t count) : span_s_(span_s), windows_(count) {}
  void add(double at_s, double v);
  [[nodiscard]] const std::vector<Samples>& windows() const { return windows_; }

 private:
  double span_s_;
  std::vector<Samples> windows_;
};

/// The metrics and parameters of one run, emitted as one JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A percentile of `samples`, recorded with its sample count and the
  /// number of samples beyond it (the reader flags fewer than ten).
  void percentile(const std::string& name, const Samples& samples, double q,
                  const std::string& unit);
  /// A windowed percentile, recorded with the total sample count and the
  /// smallest per-window count beyond it.
  void percentile(const std::string& name, const Windows& windows, double q,
                  const std::string& unit);
  /// A workload parameter (provenance).
  void param(const std::string& key, const std::string& value);
  void param(const std::string& key, double value);
  void outcome(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }
  [[nodiscard]] std::string json(const Options& opt) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    long long samples = -1;  ///< -1: not a percentile
    long long beyond = -1;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> params_;  // key, JSON value
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Progress line on stderr (stdout carries only the final JSON record).
void log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

[[nodiscard]] unsigned host_workers();
[[nodiscard]] double peak_rss_mib();

/// Unprotected blocked_matmul throughput of a fixed n=256 problem on a
/// fresh pool of host_workers() workers: the host-drift reference.
[[nodiscard]] double calibrate_gflops();

/// gpusim.* metrics: the launcher's launch log (entries, and PerfCounters
/// flops and computed bytes) per operation run on it.
void report_launch_log(Report& report, const aabft::gpusim::Launcher& launcher,
                       double operations);

/// How a served response compared with its fault-free reference.
enum class Verdict {
  kOk,     ///< bit-identical, or a corrected result within tolerance
  kError,  ///< refused, kFailed or unclean: counts toward error_rate
  kWrong,  ///< vouched clean but wrong: fails the run
};

/// Verified outcomes of a run's measured phases.
struct Outcomes {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< refused, kFailed, unclean (and wrong)
  bool wrong = false;        ///< a clean-but-wrong response was seen

  /// Count one outcome; true when it was served correctly.
  bool count(Verdict v) {
    ++attempted;
    failed += v == Verdict::kOk ? 0 : 1;
    wrong = wrong || v == Verdict::kWrong;
    return v == Verdict::kOk;
  }
  [[nodiscard]] double error_rate() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

/// GEMM/SYRK check: with no checksum patch the result must be bit-identical;
/// patched elements (at most `corrections`) must sit within 1e-9 relative.
[[nodiscard]] bool product_matches(const aabft::linalg::Matrix& got,
                                   const aabft::linalg::Matrix& want,
                                   std::size_t corrections);

/// max |A - L L^T| over the lower-triangular factor L.
[[nodiscard]] double cholesky_residual(const aabft::linalg::Matrix& a,
                                       const aabft::linalg::Matrix& l);

/// max |P A - L U| over packed LU factors (unit-lower L) and the pivot rows.
[[nodiscard]] double lu_residual(const aabft::linalg::Matrix& a,
                                 const aabft::linalg::Matrix& lu,
                                 const std::vector<std::size_t>& perm);

/// The benchmark's three workloads. Each fills `report` and returns the
/// process exit status (0 ok, 1 a wrong result, 3 an invalid run).
int run_lib_gemm(const Options& opt, Report& report);
int run_serve_mixed(const Options& opt, Report& report);
int run_fleet_zipf(const Options& opt, Report& report);

/// Setups per run; the reported setup_s is their median.
inline constexpr int kSetupReps = 11;

}  // namespace perfbench
