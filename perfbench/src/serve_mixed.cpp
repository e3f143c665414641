// serve_mixed: small mixed-kind requests through one GemmServer with
// ServeConfig defaults. Each request is at most a few MFLOP, so the serve
// control plane sets latency: admission (padding, fingerprinting), the queue,
// the batcher, the single dispatcher and the recovery ladder. About one
// request in eight carries one exponent-bit fault; one faulted request moves
// its whole GEMM batch off the pipelined batch path, so clean and faulted
// traffic pay for each other. Inline A operands are fingerprinted but never
// registered: every opcache probe misses (fleet_zipf is the hit workload).
//
// Phases: a closed-loop saturation phase of a fixed request count (kWindow
// outstanding), then an open-loop Poisson phase at the fixed rate kOpenRate.
// The count is fixed, not the time, so the launch log and the memory it holds
// reach the same size in every run.
#include <future>
#include <memory>

#include "common.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"
#include "serve/server.hpp"
#include "serving.hpp"

namespace perfbench {

namespace {

using aabft::linalg::Matrix;
using aabft::serve::OpKind;

struct Shape {
  OpKind kind;
  std::size_t m, k, q;
};

// Fixed shapes, seeded contents. Extents 32-128; several are not multiples of
// bs = 32, so admission pads them.
constexpr Shape kShapes[] = {
    {OpKind::kGemm, 32, 32, 32},       {OpKind::kGemm, 64, 64, 64},
    {OpKind::kGemm, 128, 128, 128},    {OpKind::kGemm, 48, 40, 56},
    {OpKind::kGemm, 96, 80, 72},       {OpKind::kGemm, 33, 128, 65},
    {OpKind::kSyrk, 64, 48, 64},       {OpKind::kSyrk, 128, 64, 128},
    {OpKind::kSyrk, 40, 100, 40},      {OpKind::kCholesky, 48, 48, 48},
    {OpKind::kCholesky, 64, 64, 64},   {OpKind::kCholesky, 96, 96, 96},
    {OpKind::kLu, 64, 64, 64},         {OpKind::kLu, 96, 96, 96},
    {OpKind::kLu, 128, 128, 128},
};
constexpr int kCopies = 2;              // operand sets per shape
constexpr std::size_t kWindow = 32;     // closed-loop requests outstanding
constexpr std::uint64_t kFaultOneIn = 8;
constexpr double kClosedPerSecond = 600.0;  // closed-loop requests per --seconds
constexpr double kOpenShare = 0.75;         // of --seconds
constexpr double kOpenRate = 600.0;         // requests per second

std::vector<ServedProblem> make_pool(aabft::Rng& rng, const aabft::abft::AabftConfig& config,
                                     bool& ok) {
  std::vector<ServedProblem> pool;
  aabft::gpusim::Launcher ref_launcher(aabft::gpusim::k20c(), host_workers());
  ok = true;
  for (const Shape& shape : kShapes)
    for (int copy = 0; copy < kCopies; ++copy) {
      ServedProblem p;
      p.kind = shape.kind;
      if (shape.kind == OpKind::kCholesky) {
        const Matrix m = aabft::linalg::uniform_matrix(shape.m, shape.m, -1.0, 1.0, rng);
        p.a = aabft::linalg::blocked_matmul(ref_launcher, m, m.transposed());
        for (std::size_t i = 0; i < shape.m; ++i)
          p.a(i, i) += static_cast<double>(shape.m);  // SPD, well conditioned
      } else {
        p.a = aabft::linalg::uniform_matrix(shape.m, shape.k, -1.0, 1.0, rng);
        if (shape.kind == OpKind::kGemm)
          p.b = aabft::linalg::uniform_matrix(shape.k, shape.q, -1.0, 1.0, rng);
      }
      ok = ok && prepare_reference(p, ref_launcher, config);
      pool.push_back(std::move(p));
    }
  return pool;
}

/// One request of the traffic stream: which problem, and its fault plan.
struct Draw {
  std::size_t problem = 0;
  std::vector<aabft::gpusim::FaultConfig> plan;
};

}  // namespace

int run_serve_mixed(const Options& opt, Report& report) {
  const unsigned workers = host_workers();
  const aabft::serve::ServeConfig config;
  aabft::Rng rng(opt.seed);
  bool refs_ok = false;
  const std::vector<ServedProblem> pool = make_pool(rng, config.aabft, refs_ok);
  if (!refs_ok) {
    log("serve_mixed: a fault-free reference run was not clean");
    return 1;
  }
  const int num_sms = aabft::gpusim::k20c().num_sms;
  aabft::Rng traffic = rng.fork();
  const auto draw = [&] {
    Draw d;
    d.problem = traffic.below(pool.size());
    if (traffic.below(kFaultOneIn) == 0)
      d.plan = one_fault_plan(traffic, pool[d.problem], config.aabft, num_sms);
    return d;
  };
  const auto request_of = [&](const Draw& d) {
    aabft::serve::GemmRequest req;
    req.kind = pool[d.problem].kind;
    req.a = pool[d.problem].a;
    req.b = pool[d.problem].b;
    req.fault_plan = d.plan;
    return req;
  };

  std::unique_ptr<aabft::gpusim::Launcher> launcher;
  std::unique_ptr<aabft::serve::GemmServer> server;
  Outcomes outcomes;
  const auto settle = [&](const Draw& d, const aabft::serve::GemmResponse& r) {
    return outcomes.count(verify(pool[d.problem], r));
  };
  const auto submit = [&](const Draw& d) {
    std::optional<std::future<aabft::serve::GemmResponse>> fut;
    if (auto admitted = server->submit(request_of(d)); admitted.ok())
      fut = std::move(*admitted);
    else
      outcomes.count(Verdict::kError);
    return fut;
  };

  // Set-up: launcher + server + one fault-free pass over the pool.
  Samples setup_s;
  double served_on_launcher = 0;
  for (int r = 0; r < kSetupReps; ++r) {
    server.reset();
    launcher.reset();
    const auto t0 = Clock::now();
    launcher = std::make_unique<aabft::gpusim::Launcher>(aabft::gpusim::k20c(), workers);
    server = std::make_unique<aabft::serve::GemmServer>(*launcher, config);
    std::vector<std::pair<std::size_t, std::future<aabft::serve::GemmResponse>>> warm;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      auto admitted = server->submit(request_of(Draw{i, {}}));
      if (admitted.ok()) warm.emplace_back(i, std::move(*admitted));
    }
    for (auto& [i, fut] : warm)
      outcomes.wrong = outcomes.wrong || verify(pool[i], fut.get()) == Verdict::kWrong;
    setup_s.add(ms_between(t0, Clock::now()) / 1e3);
    served_on_launcher = static_cast<double>(warm.size());
  }
  const auto before = server->stats();
  // Closed loop: a fixed request count, kWindow outstanding.
  TraceTally closed;
  SlicedRate flops_rate;
  SlicedRate response_rate;
  const auto closed_count = static_cast<std::size_t>(opt.seconds * kClosedPerSecond);
  const auto closed_start = Clock::now();
  closed_loop<Draw>(closed_count, kWindow, draw, submit,
                    [&](const Draw& d, const aabft::serve::GemmResponse& r) {
                      closed.add(r, false);
                      const bool ok = settle(d, r);
                      const double at_s = ms_between(closed_start, Clock::now()) / 1e3;
                      flops_rate.add(at_s, ok ? static_cast<double>(pool[d.problem].flops) : 0.0);
                      response_rate.add(at_s, ok ? 1.0 : 0.0);
                    });
  const double closed_s = ms_between(closed_start, Clock::now()) / 1e3;
  // Open loop: Poisson arrivals at kOpenRate, latency from each scheduled send.
  std::vector<double> at = poisson_schedule(traffic, kOpenRate, opt.seconds * kOpenShare);
  std::vector<Draw> draws;
  draws.reserve(at.size());
  for (std::size_t i = 0; i < at.size(); ++i) draws.push_back(draw());
  struct Sent {
    std::size_t index;
    Clock::time_point due;
    std::optional<std::future<aabft::serve::GemmResponse>> fut;
  };
  TraceTally open;
  Samples latency_ms;
  Windows latency_windows(opt.seconds * kOpenShare, kLatencyWindows);
  Samples submit_us;
  const auto server_epoch = Clock::now() - std::chrono::nanoseconds(server->now_ns());
  Samples lag_ms;
  {
    OpenLoop<Sent> loop(Clock::now(), at, [&](std::size_t i, Clock::time_point due) {
      aabft::serve::GemmRequest req = request_of(draws[i]);
      const auto t0 = Clock::now();
      auto admitted = server->submit(std::move(req));
      if (opt.trace) submit_us.add(ms_between(t0, Clock::now()) * 1e3);
      Sent sent{i, due, std::nullopt};
      if (admitted.ok()) sent.fut = std::move(*admitted);
      return sent;
    });
    while (auto sent = loop.next()) {
      if (!sent->fut) {
        outcomes.count(Verdict::kError);
        continue;
      }
      const auto r = sent->fut->get();
      open.add(r, true);
      if (settle(draws[sent->index], r)) {
        const double ms = ms_between(
            sent->due, server_epoch + std::chrono::nanoseconds(r.trace.complete_ns));
        latency_ms.add(ms);
        latency_windows.add(at[sent->index], ms);
      }
    }
    lag_ms = loop.lag_ms();
  }
  if (outcomes.wrong) {
    log("serve_mixed: a clean response differs from its fault-free reference");
    return 1;
  }
  const auto after = server->stats();
  served_on_launcher += static_cast<double>(after.completed - before.completed);
  log("serve_mixed: closed %zu sent in %.2f s, open %zu sent, p99 lag %.3f ms",
      closed_count, closed_s, at.size(), lag_ms.percentile(0.99));
  if (generator_fell_behind(lag_ms)) {
    log("serve_mixed: invalid run, the open-loop generator fell behind its schedule");
    return 3;
  }

  report.outcome(outcomes.attempted, outcomes.failed);
  report.param("workers", static_cast<double>(workers));
  report.param("closed_loop_window", static_cast<double>(kWindow));
  report.param("closed_loop_requests", static_cast<double>(closed_count));
  report.param("open_loop_rate_rps", kOpenRate);
  report.param("fault_one_in", static_cast<double>(kFaultOneIn));
  report.param("pool_problems", static_cast<double>(pool.size()));
  report.metric("setup_s", setup_s.median(), "s");
  report.metric("gflops", flops_rate.median_rate(kRateSlices) / 1e9, "GFLOP/s");
  report.metric("throughput_rps", response_rate.median_rate(kRateSlices), "1/s");
  report.percentile("latency_p50_ms", latency_ms, 0.50, "ms");
  report.percentile("latency_p95_ms", latency_windows, 0.95, "ms");
  report.percentile("latency_p99_ms", latency_ms, 0.99, "ms");
  report.metric("error_rate", outcomes.error_rate(), "fraction");
  if (!opt.trace) return 0;

  report_launch_log(report, *launcher, served_on_launcher);
  report.percentile("serve.submit_us.p50", submit_us, 0.50, "us");
  report.percentile("serve.submit_us.p99", submit_us, 0.99, "us");
  open.report(report, closed);
  report_opcache(report, before, after);
  report.percentile("bench.gen_lag_ms.p99", lag_ms, 0.99, "ms");
  return 0;
}

}  // namespace perfbench
