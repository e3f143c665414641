// fleet_zipf: repeated-weight GEMM traffic through a FleetServer — the only
// workload that runs the fleet layers (router, fleet queues and stealing,
// feeder/collector, parity store, per-shard cache map) and the opcache hit,
// evict and re-encode path.
//
// Each request's A is a fleet operand handle drawn zipf(1.1) from a catalogue
// of 256x256 weights about twice one shard's opcache byte budget; B is an
// inline 256x32 activation panel (drawn from a small seeded pool so that
// every (weight, panel) reference can be computed up front). A closed-loop
// saturation phase runs on the healthy fleet; then an open-loop phase at a
// fixed rate the two surviving devices sustain, with force_fail of device 0
// at its midpoint (replay, parity reconstruction, cache invalidation).
#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <thread>

#include "common.hpp"
#include "fleet/fleet_server.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"
#include "serving.hpp"

namespace perfbench {

namespace {

using aabft::linalg::Matrix;

constexpr std::size_t kDevices = 3;
constexpr std::size_t kN = 256;                    // weight extent
constexpr std::size_t kQ = 32;                     // activation panel width
constexpr std::size_t kShardBudget = 8ull << 20;   // opcache bytes per shard
constexpr std::size_t kWeights = 30;               // ~540 KiB entries: ~2x budget
constexpr std::size_t kPanels = 16;
constexpr double kZipfS = 1.1;
constexpr std::size_t kWindow = 24;                // closed-loop outstanding
constexpr std::size_t kWarmDraws = 64;             // zipf warm-up after one pass
constexpr double kClosedPerSecond = 400.0;         // closed-loop requests per --seconds
constexpr double kOpenShare = 0.7;                 // of --seconds
constexpr double kOpenRate = 250.0;                // requests per second
constexpr std::size_t kFailedDevice = 0;

struct Draw {
  std::size_t weight = 0;
  std::size_t panel = 0;
};

using FleetFuture = std::future<aabft::fleet::FleetResponse>;

}  // namespace

int run_fleet_zipf(const Options& opt, Report& report) {
  const unsigned workers_per_device =
      std::max(1u, host_workers() / static_cast<unsigned>(kDevices));
  aabft::fleet::FleetConfig config;
  config.devices = kDevices;
  config.workers_per_device = workers_per_device;
  config.serve.opcache.byte_budget = kShardBudget;

  // Inputs and every (weight, panel) reference, outside the timed windows.
  aabft::Rng rng(opt.seed);
  std::vector<Matrix> weights;
  std::vector<Matrix> panels;
  for (std::size_t w = 0; w < kWeights; ++w)
    weights.push_back(aabft::linalg::uniform_matrix(kN, kN, -1.0, 1.0, rng));
  for (std::size_t p = 0; p < kPanels; ++p)
    panels.push_back(aabft::linalg::uniform_matrix(kN, kQ, -1.0, 1.0, rng));
  std::vector<Matrix> refs;
  {
    aabft::gpusim::Launcher ref_launcher(aabft::gpusim::k20c(), host_workers());
    for (const Matrix& w : weights)
      for (const Matrix& p : panels)
        refs.push_back(aabft::linalg::blocked_matmul(ref_launcher, w, p,
                                                     config.serve.aabft.gemm));
  }
  std::vector<double> zipf_cdf(kWeights);
  double mass = 0.0;
  for (std::size_t w = 0; w < kWeights; ++w)
    zipf_cdf[w] = mass += 1.0 / std::pow(static_cast<double>(w + 1), kZipfS);
  aabft::Rng traffic = rng.fork();
  const auto draw = [&] {
    const double u = traffic.next_unit() * mass;
    Draw d;
    d.weight = std::min<std::size_t>(
        static_cast<std::size_t>(std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
                                 zipf_cdf.begin()),
        kWeights - 1);
    d.panel = traffic.below(kPanels);
    return d;
  };

  std::vector<std::uint64_t> handles(kWeights);
  const auto request_of = [&](const Draw& d) {
    aabft::fleet::FleetRequest req;
    req.request.kind = aabft::serve::OpKind::kGemm;
    req.request.b = panels[d.panel];
    req.a_handle = handles[d.weight];
    return req;
  };
  const std::uint64_t flops_per_request =
      aabft::baselines::OpDescriptor::gemm(kN, kN, kQ).flops();

  const auto verdict_of = [&](const Draw& d, const aabft::serve::GemmResponse& r) {
    if (r.status != aabft::serve::ResponseStatus::kOk || !r.clean) return Verdict::kError;
    return product_matches(r.c, refs[d.weight * kPanels + d.panel], r.trace.corrections)
               ? Verdict::kOk
               : Verdict::kWrong;
  };
  std::unique_ptr<aabft::fleet::FleetServer> fleet;
  Outcomes outcomes;
  const auto submit = [&](const Draw& d) {
    std::optional<FleetFuture> fut;
    if (auto admitted = fleet->submit(request_of(d)); admitted.ok())
      fut = std::move(*admitted);
    else
      outcomes.count(Verdict::kError);
    return fut;
  };

  // Set-up: fleet + catalogue registration + warm-up until every weight has
  // been served once and the zipf head is cached.
  Samples setup_s;
  Samples register_us;
  for (int r = 0; r < kSetupReps; ++r) {
    fleet.reset();
    const auto t0 = Clock::now();
    fleet = std::make_unique<aabft::fleet::FleetServer>(config);
    for (std::size_t w = 0; w < kWeights; ++w) {
      const auto s0 = Clock::now();
      handles[w] = fleet->register_operand(weights[w]);
      register_us.add(ms_between(s0, Clock::now()) * 1e3);
    }
    std::vector<std::pair<Draw, FleetFuture>> warm;
    for (std::size_t i = 0; i < kWeights + kWarmDraws; ++i) {
      const Draw d = i < kWeights ? Draw{i, i % kPanels} : draw();
      auto admitted = fleet->submit(request_of(d));
      if (admitted.ok()) warm.emplace_back(d, std::move(*admitted));
    }
    for (auto& [d, fut] : warm)
      outcomes.wrong = outcomes.wrong || verdict_of(d, fut.get().response) == Verdict::kWrong;
    setup_s.add(ms_between(t0, Clock::now()) / 1e3);
  }
  const auto before = fleet->stats();
  // Closed loop on the healthy fleet: a fixed request count, kWindow outstanding.
  TraceTally closed;
  SlicedRate response_rate;
  const auto closed_count = static_cast<std::size_t>(opt.seconds * kClosedPerSecond);
  const auto closed_start = Clock::now();
  closed_loop<Draw>(closed_count, kWindow, draw, submit,
                    [&](const Draw& d, const aabft::fleet::FleetResponse& resp) {
                      closed.add(resp.response, false);
                      const bool ok = outcomes.count(verdict_of(d, resp.response));
                      response_rate.add(ms_between(closed_start, Clock::now()) / 1e3,
                                        ok ? 1.0 : 0.0);
                    });
  const double closed_s = ms_between(closed_start, Clock::now()) / 1e3;
  const auto healthy = fleet->stats();
  // Open loop with a device loss at the midpoint. Completions are stamped by
  // polling, since the fleet fulfils futures out of submission order.
  const double open_s = opt.seconds * kOpenShare;
  const std::vector<double> at = poisson_schedule(traffic, kOpenRate, open_s);
  std::vector<Draw> draws;
  draws.reserve(at.size());
  for (std::size_t i = 0; i < at.size(); ++i) draws.push_back(draw());
  struct Sent {
    std::size_t index;
    Clock::time_point due;
    Clock::time_point sent;
    std::optional<FleetFuture> fut;
  };
  TraceTally open;
  Samples latency_ms, healthy_ms, degraded_ms, hop_ms, submit_us, lag_ms;
  Windows latency_windows(open_s, kLatencyWindows);
  const auto open_start = Clock::now() + std::chrono::milliseconds(1);
  const auto fence_at = open_start + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(open_s / 2));
  {
    std::thread failer([&] {
      std::this_thread::sleep_until(fence_at);
      fleet->force_fail(kFailedDevice);
    });
    OpenLoop<Sent> loop(open_start, at, [&](std::size_t i, Clock::time_point due) {
      auto req = request_of(draws[i]);
      Sent sent{i, due, Clock::now(), std::nullopt};
      auto admitted = fleet->submit(std::move(req));
      if (opt.trace) submit_us.add(ms_between(sent.sent, Clock::now()) * 1e3);
      if (admitted.ok()) sent.fut = std::move(*admitted);
      return sent;
    });
    std::vector<Sent> pending;
    for (bool more = true; more || !pending.empty();) {
      more = loop.take(pending);
      bool progressed = false;
      for (std::size_t i = 0; i < pending.size();) {
        Sent& s = pending[i];
        const bool refused = !s.fut;
        if (!refused && s.fut->wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++i;
          continue;
        }
        const auto done = Clock::now();
        if (refused) {
          outcomes.count(Verdict::kError);
        } else {
          const auto resp = s.fut->get();
          const auto& t = resp.response.trace;
          open.add(resp.response, true);
          if (outcomes.count(verdict_of(draws[s.index], resp.response))) {
            const double ms = ms_between(s.due, done);
            latency_ms.add(ms);
            latency_windows.add(at[s.index], ms);
            (s.due < fence_at ? healthy_ms : degraded_ms).add(ms);
            hop_ms.add(ms_between(s.sent, done) -
                       static_cast<double>(t.complete_ns - t.enqueue_ns) / 1e6);
          }
        }
        std::swap(s, pending.back());
        pending.pop_back();
        progressed = true;
      }
      if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    lag_ms = loop.lag_ms();
    failer.join();
  }
  if (outcomes.wrong) {
    log("fleet_zipf: a clean response differs from its fault-free reference");
    return 1;
  }
  const auto after = fleet->stats();
  log("fleet_zipf: closed %zu sent in %.2f s, open %zu sent, %zu fenced, p99 lag %.3f ms",
      closed_count, closed_s, at.size(), after.fenced_devices, lag_ms.percentile(0.99));
  if (after.fenced_devices != 1 || generator_fell_behind(lag_ms)) {
    log("fleet_zipf: invalid run (fenced devices %zu, generator p99 lag %.3f ms)",
        after.fenced_devices, lag_ms.percentile(0.99));
    return 3;
  }

  report.outcome(outcomes.attempted, outcomes.failed);
  report.param("devices", static_cast<double>(kDevices));
  report.param("workers_per_device", static_cast<double>(workers_per_device));
  report.param("weights", static_cast<double>(kWeights));
  report.param("shard_opcache_budget_mib", static_cast<double>(kShardBudget >> 20));
  report.param("zipf_s", kZipfS);
  report.param("closed_loop_window", static_cast<double>(kWindow));
  report.param("closed_loop_requests", static_cast<double>(closed_count));
  report.param("open_loop_rate_rps", kOpenRate);
  report.metric("setup_s", setup_s.median(), "s");
  const double rps = response_rate.median_rate(kRateSlices);
  report.metric("gflops", rps * static_cast<double>(flops_per_request) / 1e9, "GFLOP/s");
  report.metric("throughput_rps", rps, "1/s");
  report.percentile("latency_p50_ms", latency_ms, 0.50, "ms");
  report.percentile("latency_p95_ms", latency_windows, 0.95, "ms");
  report.percentile("latency_p99_ms", latency_ms, 0.99, "ms");
  report.metric("error_rate", outcomes.error_rate(), "fraction");
  if (!opt.trace) return 0;

  report.percentile("fleet.submit_us.p50", submit_us, 0.50, "us");
  report.percentile("fleet.submit_us.p99", submit_us, 0.99, "us");
  report.percentile("fleet.hop_ms.p50", hop_ms, 0.50, "ms");
  report.percentile("fleet.hop_ms.p99", hop_ms, 0.99, "ms");
  report.metric("fleet.steal_frac",
                static_cast<double>(after.steals - before.steals) /
                    static_cast<double>(outcomes.attempted),
                "ratio");
  double routed_max = 0.0;
  double routed_sum = 0.0;
  for (std::size_t s = 0; s < kDevices; ++s) {
    const auto routed =
        static_cast<double>(healthy.shards[s].routed - before.shards[s].routed);
    routed_max = std::max(routed_max, routed);
    routed_sum += routed;
  }
  report.metric("fleet.route_imbalance",
                routed_sum == 0 ? 0.0 : routed_max / (routed_sum / kDevices), "ratio");
  report.metric("fleet.replays", static_cast<double>(after.replays - before.replays), "count");
  report.metric("fleet.reconstructions",
                static_cast<double>(after.reconstructions - before.reconstructions), "count");
  report.metric("fleet.fenced_devices", static_cast<double>(after.fenced_devices), "count");
  report.percentile("fleet.latency_p99_ms.healthy", healthy_ms, 0.99, "ms");
  report.percentile("fleet.latency_p99_ms.degraded", degraded_ms, 0.99, "ms");
  report.percentile("fleet.register_us", register_us, 0.50, "us");

  open.report(report, closed);
  report_opcache(report, before.totals, after.totals);
  report.percentile("bench.gen_lag_ms.p99", lag_ms, 0.99, "ms");
  return 0;
}

}  // namespace perfbench
