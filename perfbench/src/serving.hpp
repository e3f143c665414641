// Pieces shared by the two serving workloads: seeded problems with their
// fault-free references, per-request fault plans, the open-loop generator,
// and the tally of what the server's RequestTrace reports.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "abft/aabft.hpp"
#include "common.hpp"
#include "core/rng.hpp"
#include "gpusim/kernel.hpp"
#include "serve/request.hpp"
#include "serve/telemetry.hpp"

namespace perfbench {

/// One servable problem and its fault-free reference.
struct ServedProblem {
  aabft::serve::OpKind kind = aabft::serve::OpKind::kGemm;
  aabft::linalg::Matrix a;
  aabft::linalg::Matrix b;    ///< GEMM only
  aabft::linalg::Matrix ref;  ///< product, or the factors for Cholesky / LU
  std::vector<std::size_t> perm;  ///< LU reference pivots
  std::size_t grid_blocks = 0;    ///< blocks of the kernel a fault targets
  std::size_t fault_k = 0;        ///< inner extent a fault's step is drawn from
  std::uint64_t flops = 0;        ///< nominal OpDescriptor::flops()
};

/// Fill `p.ref` (and `p.perm`) on the fault-free path: the unprotected
/// blocked product for GEMM/SYRK, a clean protected run for the
/// factorizations. Also fills the fault-targeting extents and flops.
/// Returns false when the reference run was not clean.
[[nodiscard]] bool prepare_reference(ServedProblem& p,
                                     aabft::gpusim::Launcher& launcher,
                                     const aabft::abft::AabftConfig& config);

/// One exponent-bit fault aimed at the problem's product kernel (the first
/// trailing update for the factorizations).
[[nodiscard]] std::vector<aabft::gpusim::FaultConfig> one_fault_plan(
    aabft::Rng& rng, const ServedProblem& p,
    const aabft::abft::AabftConfig& config, int num_sms);

/// Compare a response with its problem's reference (see Verdict).
[[nodiscard]] Verdict verify(const ServedProblem& p,
                             const aabft::serve::GemmResponse& r);

/// Poisson arrival offsets in seconds over [0, seconds) at `rate` per second.
[[nodiscard]] std::vector<double> poisson_schedule(aabft::Rng& rng,
                                                   double rate, double seconds);

/// Per-request stage spans and outcome counters from RequestTrace.
struct TraceTally {
  Samples queue_wait_ms;  ///< enqueue -> dispatch
  Samples compute_ms;     ///< dispatch -> compute
  Samples repair_ms;      ///< compute -> repair
  Samples batch_size;
  std::uint64_t batched = 0;  ///< responses from batches of two or more
  std::array<std::uint64_t, 8> rungs{};  ///< by RecoveryRung
  std::uint64_t faults_armed = 0;
  std::uint64_t faults_fired = 0;

  void add(const aabft::serve::GemmResponse& r, bool stages);
  /// serve.* metrics: stage percentiles, batching from `batching` (the
  /// closed-loop tally), rungs and fault firing from both.
  void report(Report& report, const TraceTally& batching) const;
};

/// serve.opcache.* metrics from the server counters between two snapshots.
void report_opcache(Report& report, const aabft::serve::ServerStats& before,
                    const aabft::serve::ServerStats& after);

/// Closed loop: keep `window` requests outstanding until `count` were drawn,
/// then drain, collecting responses in send order. `submit(draw)` returns the
/// response future, or nullopt when the request was refused.
template <typename Draw, typename Next, typename Submit, typename Collect>
void closed_loop(std::size_t count, std::size_t window, Next next, Submit submit,
                 Collect collect) {
  using Future = typename std::invoke_result_t<Submit, const Draw&>::value_type;
  std::deque<std::pair<Draw, Future>> pending;
  for (std::size_t drawn = 0;;) {
    for (; pending.size() < window && drawn < count; ++drawn) {
      Draw d = next();
      if (auto fut = submit(d)) pending.emplace_back(std::move(d), std::move(*fut));
    }
    if (pending.empty()) return;
    auto [d, fut] = std::move(pending.front());
    pending.pop_front();
    collect(d, fut.get());
  }
}

/// The open-loop generator: a thread that calls `send(i, due)` at
/// due = start + at[i] and queues the result for the collecting thread. Times are scheduled, so
/// a stall shows up as latency of the requests behind it; how late the
/// generator itself ran is kept in lag_ms().
template <typename Item>
class OpenLoop {
 public:
  template <typename Send>
  OpenLoop(Clock::time_point start, const std::vector<double>& at, Send send)
      : thread_([this, start, &at, send]() mutable {
          for (std::size_t i = 0; i < at.size(); ++i) {
            const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(at[i]));
            std::this_thread::sleep_until(due);
            lag_ms_.add(ms_between(due, Clock::now()));
            Item item = send(i, due);
            std::lock_guard<std::mutex> lk(mu_);
            sent_.push_back(std::move(item));
            cv_.notify_one();
          }
          std::lock_guard<std::mutex> lk(mu_);
          done_ = true;
          cv_.notify_one();
        }) {}

  ~OpenLoop() { thread_.join(); }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Next sent item in send order; nullopt once every item was handed out.
  std::optional<Item> next() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return done_ || !sent_.empty(); });
    if (sent_.empty()) return std::nullopt;
    Item item = std::move(sent_.front());
    sent_.pop_front();
    return item;
  }

  /// Move every item sent so far into `out` without blocking; false once the
  /// generator finished and nothing is left.
  bool take(std::vector<Item>& out) {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& item : sent_) out.push_back(std::move(item));
    const bool more = !(done_ && sent_.empty());
    sent_.clear();
    return more;
  }

  /// How late each send ran against its schedule; read after the last item.
  [[nodiscard]] const Samples& lag_ms() const { return lag_ms_; }

 private:
  Samples lag_ms_;  // generator thread only until done_
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> sent_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

/// Windows of the open-loop phase for the windowed tail percentile.
inline constexpr std::size_t kLatencyWindows = 6;

/// A generator whose p90 send lag exceeds this has fallen behind its
/// schedule (not merely met a transient host stall) and no longer offers the
/// scheduled load; the run is reported invalid instead.
inline constexpr double kMaxGeneratorLagMs = 5.0;

[[nodiscard]] inline bool generator_fell_behind(const Samples& lag_ms) {
  return lag_ms.percentile(0.90) > kMaxGeneratorLagMs;
}

}  // namespace perfbench
