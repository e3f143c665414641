#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <numeric>
#include <thread>

#include "core/rng.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

double Samples::percentile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> sorted = v_;
  const std::size_t rank = nearest_rank(sorted.size(), q);
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(rank - 1),
                   sorted.end());
  return sorted[rank - 1];
}

std::size_t Samples::beyond(double q) const {
  return v_.empty() ? 0 : v_.size() - nearest_rank(v_.size(), q);
}

double Samples::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

double Samples::mean() const {
  return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size());
}

double SlicedRate::median_rate(std::size_t slices) const {
  Samples rates;
  const std::size_t n = done_.size();
  slices = std::min(slices, n);
  double from_s = 0.0;
  for (std::size_t k = 0; k < slices; ++k) {
    const std::size_t lo = k * n / slices;
    const std::size_t hi = (k + 1) * n / slices;
    double amount = 0.0;
    for (std::size_t i = lo; i < hi; ++i) amount += done_[i].second;
    const double to_s = done_[hi - 1].first;
    if (to_s > from_s) rates.add(amount / (to_s - from_s));
    from_s = to_s;
  }
  return rates.median();
}

void Windows::add(double at_s, double v) {
  const auto n = windows_.size();
  const auto i = static_cast<std::size_t>(std::max(0.0, at_s / span_s_ * static_cast<double>(n)));
  windows_[std::min(i, n - 1)].add(v);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit, -1, -1});
}

void Report::percentile(const std::string& name, const Samples& samples,
                        double q, const std::string& unit) {
  metrics_.push_back({name, samples.percentile(q), unit,
                      static_cast<long long>(samples.count()),
                      static_cast<long long>(samples.beyond(q))});
}

void Report::percentile(const std::string& name, const Windows& windows,
                        double q, const std::string& unit) {
  Samples per_window;
  std::size_t total = 0;
  std::size_t beyond = SIZE_MAX;
  for (const Samples& w : windows.windows()) {
    per_window.add(w.percentile(q));
    total += w.count();
    beyond = std::min(beyond, w.beyond(q));
  }
  metrics_.push_back({name, per_window.median(), unit, static_cast<long long>(total),
                      static_cast<long long>(beyond)});
}

void Report::param(const std::string& key, const std::string& value) {
  params_.emplace_back(key, json_string(value));
}

void Report::param(const std::string& key, double value) {
  params_.emplace_back(key, json_number(value));
}

std::string Report::json(const Options& opt) const {
  std::string out = "{\"workload\": " + json_string(opt.workload) +
                    ", \"seed\": " + std::to_string(opt.seed) +
                    ", \"trace\": " + (opt.trace ? "1" : "0") +
                    ", \"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                    ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
                    ", \"nproc\": " + std::to_string(host_workers()) +
                    ", \"params\": {";
  for (std::size_t i = 0; i < params_.size(); ++i)
    out += (i ? ", " : "") + json_string(params_[i].first) + ": " +
           params_[i].second;
  out += "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i ? ", " : "") + json_string(m.name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit);
    if (m.samples >= 0)
      out += ", \"samples\": " + std::to_string(m.samples) +
             ", \"beyond\": " + std::to_string(m.beyond);
    out += "}";
  }
  return out + "}}";
}

void log(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

unsigned host_workers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double calibrate_gflops() {
  constexpr std::size_t kN = 256;
  constexpr int kReps = 15;
  aabft::Rng rng(0xca11b);
  const auto a = aabft::linalg::uniform_matrix(kN, kN, -1.0, 1.0, rng);
  const auto b = aabft::linalg::uniform_matrix(kN, kN, -1.0, 1.0, rng);
  aabft::gpusim::Launcher launcher(aabft::gpusim::k20c(), host_workers());
  (void)aabft::linalg::blocked_matmul(launcher, a, b);  // pool start-up
  Samples seconds;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    const auto c = aabft::linalg::blocked_matmul(launcher, a, b);
    seconds.add(ms_between(t0, Clock::now()) / 1e3);
  }
  return 2.0 * kN * kN * kN / seconds.median() / 1e9;
}

bool product_matches(const aabft::linalg::Matrix& got,
                     const aabft::linalg::Matrix& want,
                     std::size_t corrections) {
  if (!got.same_shape(want)) return false;
  if (corrections == 0) return got == want;
  std::size_t diffs = 0;
  for (std::size_t r = 0; r < got.rows(); ++r)
    for (std::size_t c = 0; c < got.cols(); ++c) {
      const double g = got(r, c);
      const double w = want(r, c);
      if (g == w) continue;
      ++diffs;
      if (std::abs(g - w) > 1e-9 * std::max(1e-300, std::abs(w))) return false;
    }
  return diffs <= corrections;
}

double cholesky_residual(const aabft::linalg::Matrix& a,
                         const aabft::linalg::Matrix& l) {
  double residual = 0.0;
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t x = 0; x <= std::min(i, j); ++x) s += l(i, x) * l(j, x);
      residual = std::max(residual, std::abs(a(i, j) - s));
    }
  return residual;
}

double lu_residual(const aabft::linalg::Matrix& a,
                   const aabft::linalg::Matrix& lu,
                   const std::vector<std::size_t>& perm) {
  const std::size_t n = a.rows();
  if (perm.size() != n) return INFINITY;
  double residual = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      // (L U)_ij with L unit-lower (diagonal 1) and U upper, both packed.
      double s = i <= j ? lu(i, j) : 0.0;
      for (std::size_t x = 0; x < std::min(i, j + 1); ++x)
        s += lu(i, x) * lu(x, j);
      residual = std::max(residual, std::abs(a(perm[i], j) - s));
    }
  return residual;
}

void report_launch_log(Report& report, const aabft::gpusim::Launcher& launcher,
                       double operations) {
  const auto log = launcher.launch_log();
  double flops = 0.0;
  double bytes = 0.0;
  for (const auto& entry : log) {
    flops += static_cast<double>(entry.counters.flops());
    bytes += static_cast<double>(entry.counters.bytes());
  }
  report.metric("gpusim.log_entries", static_cast<double>(log.size()), "count");
  report.metric("gpusim.launches_per_op", static_cast<double>(log.size()) / operations,
                "count");
  report.metric("gpusim.flops_per_op", flops / operations, "count");
  report.metric("gpusim.bytes_per_op", bytes / operations, "count");
}

}  // namespace perfbench
