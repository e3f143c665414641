// Open-loop Poisson load generator and soak driver for the protected BLAS-3
// serving layer (src/serve) and the sharded fleet layer (src/fleet). Phases
// (selected by AABFT_SERVE_PHASES, a comma list; all run by default):
//
//   throughput — 1. serial (batching disabled, max_batch = 1);
//      2. batched (cross-request batching at max_batch = 8), each timed as
//      the median of 15 interleaved bursts. The speedup over serial is the
//      coalescing win; the >= 2x gate applies on hosts with >= 4 pool
//      workers (matching bench_executor's batching criterion); smaller
//      hosts still verify correctness and report it.
//   soak — AABFT_SERVE_REQUESTS requests of mixed op kinds (GEMM, SYRK,
//      Cholesky) over mixed shapes, with Poisson arrivals and one
//      exponent-bit fault armed per request, against one simulated device.
//      Every response must come back clean; responses without corrections
//      must be bit-identical to the fault-free reference. Corrected
//      GEMM/SYRK responses may differ from it only in the patched elements
//      (within 1e-9 relative); corrected Cholesky responses must
//      reconstruct the input (patch rounding propagates through the
//      factorisation, so bitwise comparison does not apply). Single-fault
//      damage must be repaired below the full-recompute rung.
//   fleet — two rounds of AABFT_SERVE_FLEET_REQUESTS erasure-coded-operand
//      GEMM requests (one fault armed each) against a 3-device FleetServer:
//      a clean round, then a round with one device force-failed mid-run.
//      Gates: zero wrong responses in both rounds, every request completed,
//      exactly one fenced device, at least one operand served through a
//      parity reconstruction, and the degraded round's p99 stays within a
//      bounded factor of the clean round's.
//   opcache — zipf weight-reuse traffic against the operand checksum cache
//      (DESIGN.md §12): a catalogue of n x n weight matrices multiplied by
//      skinny activation panels, weight popularity zipf(s)-distributed.
//      Three rounds over one shared schedule, served with the default A-ABFT
//      configuration: cold (cache disabled, every request re-encodes A
//      inline), warm (weights registered up front, requests ship handles),
//      and a warm faulted round (one exponent fault per request, sampled
//      consistency guard on). Gates: the launch log shows A's light encode
//      once per request in the cold round and once per registration (never
//      per hit) in the warm round, every warm request a cache hit, zero
//      wrong responses; at the standard size also warm p50 and p99 below
//      cold's and faults fired in the faulted round.
//
// Exits nonzero on any wrong or unclean response, or a violated gate.
// Summary JSON (throughput + aggregated server + per-shard fleet telemetry)
// goes to $AABFT_SERVE_JSON, defaulting to BENCH_serve.json.
//
//   AABFT_SERVE_PHASES          comma list (default
//                               "throughput,soak,fleet,opcache")
//   AABFT_SERVE_REQUESTS        soak request count (default 2000)
//   AABFT_SERVE_RATE            soak arrival rate, requests/s (default 300)
//   AABFT_SERVE_FAULTS          faults armed per soak request (default 1)
//   AABFT_SERVE_SEED            RNG seed (default 42)
//   AABFT_SERVE_THROUGHPUT_N    requests per throughput phase (default 64)
//   AABFT_SERVE_FLEET_REQUESTS  requests per fleet round (default 240)
//   AABFT_SERVE_ZIPF_REQUESTS   requests per opcache round (default 192)
//   AABFT_SERVE_ZIPF_WEIGHTS    weight-catalogue size (default 8)
//   AABFT_SERVE_ZIPF_N          weight dimension (default 384)
//   AABFT_SERVE_ZIPF_Q          activation panel width (default 2)
//   AABFT_SERVE_ZIPF_S          zipf skew exponent (default 1.1)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "abft/padding.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "fleet/fleet_server.hpp"
#include "fp/fault_vector.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"
#include "serve/server.hpp"

namespace {

using namespace aabft;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double env_double_or(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return (value != nullptr && *value != '\0') ? std::strtod(value, nullptr)
                                              : fallback;
}

int failures = 0;
void check(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

/// A soak problem with its fault-free ground truth and the extent of the
/// kernel grid the protected compute launches (for picking SM ids that are
/// guaranteed to execute).
struct Problem {
  serve::OpKind kind = serve::OpKind::kGemm;
  linalg::Matrix a;
  linalg::Matrix b;    ///< GEMM only; empty for the single-operand kinds
  linalg::Matrix ref;  ///< the fault-free result (for Cholesky: the factor L)
  std::size_t grid_blocks = 0;
  std::size_t fault_k = 0;  ///< inner extent k_injection draws from
};

std::size_t grid_blocks_of(std::size_t m, std::size_t k, std::size_t q,
                           const abft::AabftConfig& config) {
  (void)k;
  const std::size_t bs = config.bs;
  const auto encoded = [&](std::size_t dim) {
    return abft::padded_dim(dim, bs) / bs * (bs + 1);
  };
  const auto ceil_div = [](std::size_t a, std::size_t b) {
    return (a + b - 1) / b;
  };
  // The fused kernel tiles C_fc directly: one block per (bs+1)x(bs+1) tile.
  return ceil_div(encoded(m), bs + 1) * ceil_div(encoded(q), bs + 1);
}

std::vector<gpusim::FaultConfig> random_fault_plan(
    Rng& rng, std::size_t count, const Problem& problem,
    const abft::AabftConfig& config, int num_sms) {
  std::vector<gpusim::FaultConfig> plan(count);
  const std::size_t k = problem.fault_k;
  const auto sm_limit = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(num_sms), problem.grid_blocks);
  const std::size_t modules = config.fused.rx * config.fused.ry;
  for (auto& fault : plan) {
    fault.site = static_cast<gpusim::FaultSite>(rng.below(3));
    fault.sm_id = static_cast<int>(rng.below(sm_limit));
    fault.module_id = static_cast<int>(rng.below(modules));
    fault.k_injection = fault.site == gpusim::FaultSite::kFinalAdd
                            ? 0
                            : static_cast<std::int64_t>(rng.below(k));
    // Figure 4: sign/exponent flips are detected with probability ~1, so an
    // armed-and-fired fault must surface as detect -> repair, never as
    // silent corruption.
    fault.error_vec = fp::make_error_vec(fp::BitField::kExponent, 1, rng);
  }
  return plan;
}

/// Submit `count` identical-shape fault-free requests while the server is
/// paused, resume, and time until every response arrived.
double timed_burst(serve::GemmServer& server, const linalg::Matrix& a,
                   const linalg::Matrix& b, std::size_t count) {
  server.pause();
  std::vector<std::future<serve::GemmResponse>> pending;
  pending.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    serve::GemmRequest request;
    request.a = a;
    request.b = b;
    auto admitted = server.submit(std::move(request));
    check(admitted.ok(), "throughput request admitted");
    if (admitted.ok()) pending.push_back(std::move(*admitted));
  }
  const auto start = Clock::now();
  server.resume();
  for (auto& f : pending) {
    const serve::GemmResponse response = f.get();
    check(response.status == serve::ResponseStatus::kOk && response.clean,
          "throughput response clean");
  }
  return seconds_since(start);
}

}  // namespace

int main() {
  const std::size_t requests = env_size_or("AABFT_SERVE_REQUESTS", 2000);
  const std::size_t throughput_n = env_size_or("AABFT_SERVE_THROUGHPUT_N", 64);
  const std::size_t faults_per_request = env_size_or("AABFT_SERVE_FAULTS", 1);
  const double rate = env_double_or("AABFT_SERVE_RATE", 300.0);
  const auto seed = static_cast<std::uint64_t>(env_size_or("AABFT_SERVE_SEED", 42));
  const char* phases_env = std::getenv("AABFT_SERVE_PHASES");
  const std::string phases = (phases_env != nullptr && *phases_env != '\0')
                                 ? phases_env
                                 : "throughput,soak,fleet,opcache";
  const auto has_phase = [&phases](const char* name) {
    return phases.find(name) != std::string::npos;
  };

  gpusim::Launcher launcher;
  Rng rng(seed);
  std::printf("aabft_serve: %u pool worker(s), seed %llu\n\n",
              launcher.workers(), static_cast<unsigned long long>(seed));

  // -- throughput: serial vs batched ---------------------------------------
  const linalg::Matrix ta = linalg::uniform_matrix(64, 64, -1.0, 1.0, rng);
  const linalg::Matrix tb = linalg::uniform_matrix(64, 64, -1.0, 1.0, rng);
  double serial_s = 0.0;
  double batched_s = 0.0;
  double speedup = 0.0;
  const bool gate_applies = launcher.workers() >= 4;
  if (has_phase("throughput")) {
    // Interleaved median: both servers stay up and their bursts alternate,
    // so both sides see the same host. One burst lasts a few milliseconds,
    // and the batched side needs every pool worker at once, so a single
    // preempted worker can halve one burst; the median of each side is the
    // typical burst, neither its best nor its worst.
    constexpr std::size_t kTrials = 15;
    serve::ServeConfig serial_config;
    serial_config.batch.max_batch = 1;
    serve::GemmServer serial_server(launcher, serial_config);
    serve::ServeConfig batched_config;
    batched_config.batch.max_batch = 8;
    serve::GemmServer batched_server(launcher, batched_config);
    // Warm-up: pool + lane creation.
    (void)timed_burst(serial_server, ta, tb, 4);
    (void)timed_burst(batched_server, ta, tb, 4);
    const std::size_t warm_batches = batched_server.stats().batches;
    std::vector<double> serial_bursts, batched_bursts;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      serial_bursts.push_back(timed_burst(serial_server, ta, tb, throughput_n));
      batched_bursts.push_back(
          timed_burst(batched_server, ta, tb, throughput_n));
    }
    const auto median = [](std::vector<double>& v) {
      std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
      return v[v.size() / 2];
    };
    serial_s = median(serial_bursts);
    batched_s = median(batched_bursts);
    const std::size_t batches =
        (batched_server.stats().batches - warm_batches) / kTrials;
    speedup = batched_s > 0.0 ? serial_s / batched_s : 0.0;
    std::printf("throughput, %zu requests of 64x64x64 (median of %zu "
                "bursts):\n",
                throughput_n, kTrials);
    std::printf("  serial (max_batch=1)  : %8.3f s\n", serial_s);
    std::printf("  batched (max_batch=8) : %8.3f s  (%.2fx, %zu dispatches)\n",
                batched_s, speedup, batches);
    if (gate_applies)
      check(speedup >= 2.0, "batching speedup >= 2x on >= 4 workers (got " +
                                std::to_string(speedup) + "x)");
    else
      std::printf("  note: %u pool worker(s) — the >= 2x gate applies on >= 4 "
                  "workers\n",
                  launcher.workers());
    std::printf("\n");
  }

  // -- soak ----------------------------------------------------------------
  std::size_t overload_backoffs = 0;
  std::size_t bitwise_identical = 0;
  std::size_t fired_total = 0;
  std::string serve_telemetry = "{}";
  if (has_phase("soak")) {
  serve::ServeConfig config;
  const abft::AabftConfig& aabft_cfg = config.aabft;
  std::vector<Problem> pool;
  const std::size_t shapes[][3] = {{32, 32, 32}, {48, 40, 56}, {64, 64, 64},
                                   {33, 32, 33}, {80, 48, 64}, {64, 96, 32}};
  for (const auto& shape : shapes)
    for (int copy = 0; copy < 2; ++copy) {
      Problem problem;
      problem.a =
          linalg::uniform_matrix(shape[0], shape[1], -1.0, 1.0, rng);
      problem.b =
          linalg::uniform_matrix(shape[1], shape[2], -1.0, 1.0, rng);
      problem.ref = linalg::naive_matmul(problem.a, problem.b,
                                         aabft_cfg.gemm.use_fma);
      problem.grid_blocks =
          grid_blocks_of(shape[0], shape[1], shape[2], aabft_cfg);
      problem.fault_k = shape[1];
      pool.push_back(std::move(problem));
    }
  const std::size_t syrk_shapes[][2] = {{32, 32}, {48, 40}, {64, 24}};
  for (const auto& shape : syrk_shapes)
    for (int copy = 0; copy < 2; ++copy) {
      Problem problem;
      problem.kind = serve::OpKind::kSyrk;
      problem.a =
          linalg::uniform_matrix(shape[0], shape[1], -1.0, 1.0, rng);
      problem.ref = linalg::naive_matmul(problem.a, problem.a.transposed(),
                                         aabft_cfg.gemm.use_fma);
      problem.grid_blocks =
          grid_blocks_of(shape[0], shape[1], shape[0], aabft_cfg);
      problem.fault_k = shape[1];
      pool.push_back(std::move(problem));
    }
  // Cholesky references come from a clean protected run on the same device
  // (the factorisation is deterministic, so corrections == 0 responses must
  // match it bit for bit). Faults target the first trailing update's grid.
  baselines::AabftScheme ref_scheme(launcher, aabft_cfg);
  const std::size_t chol_sizes[] = {48, 64, 96};
  for (const std::size_t n : chol_sizes)
    for (int copy = 0; copy < 2; ++copy) {
      Problem problem;
      problem.kind = serve::OpKind::kCholesky;
      const linalg::Matrix seed_m =
          linalg::uniform_matrix(n, n, -1.0, 1.0, rng);
      problem.a = linalg::naive_matmul(seed_m, seed_m.transposed(),
                                       aabft_cfg.gemm.use_fma);
      for (std::size_t i = 0; i < n; ++i)
        problem.a(i, i) += static_cast<double>(n);  // SPD, well conditioned
      auto ref = ref_scheme.execute(baselines::OpDescriptor::cholesky(n),
                                    problem.a, linalg::Matrix());
      check(ref.ok() && ref->clean, "clean reference Cholesky factors");
      if (!ref.ok()) continue;
      problem.ref = std::move(ref->c);
      const std::size_t panel = aabft_cfg.bs;
      problem.grid_blocks =
          grid_blocks_of(n - panel, panel, n - panel, aabft_cfg);
      problem.fault_k = panel;
      pool.push_back(std::move(problem));
    }

  serve::GemmServer server(launcher, config);
  std::vector<std::pair<std::size_t, std::future<serve::GemmResponse>>>
      inflight;
  inflight.reserve(requests);

  const auto soak_start = Clock::now();
  double next_arrival_s = 0.0;
  for (std::size_t i = 0; i < requests; ++i) {
    next_arrival_s += -std::log(1.0 - rng.next_unit()) / rate;
    std::this_thread::sleep_until(
        soak_start + std::chrono::duration<double>(next_arrival_s));
    const std::size_t p = rng.below(pool.size());
    const auto priority = static_cast<serve::Priority>(rng.below(3));
    const auto plan =
        faults_per_request == 0
            ? std::vector<gpusim::FaultConfig>{}
            : random_fault_plan(rng, faults_per_request, pool[p], aabft_cfg,
                                launcher.device().num_sms);
    for (;;) {
      serve::GemmRequest request;
      request.kind = pool[p].kind;
      request.a = pool[p].a;
      request.b = pool[p].b;
      request.priority = priority;
      if (i % 8 == 0) request.deadline_ms = 60000.0;  // generous: admissible
      request.fault_plan = plan;
      auto admitted = server.submit(std::move(request));
      if (admitted.ok()) {
        inflight.emplace_back(p, std::move(*admitted));
        break;
      }
      if (admitted.error().code != ErrorCode::kOverloaded) {
        check(false, "unexpected admission refusal: " +
                         admitted.error().message);
        break;
      }
      ++overload_backoffs;  // open-loop generator outran the server
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  std::size_t corrected_total = 0;
  std::size_t full_recomputes_total = 0;
  for (auto& [p, f] : inflight) {
    const serve::GemmResponse r = f.get();
    const Problem& problem = pool[p];
    check(r.status == serve::ResponseStatus::kOk && r.clean,
          "response " + std::to_string(r.id) + " clean (rung " +
              std::string(to_string(r.rung)) + ", diagnosis: " + r.diagnosis +
              ")");
    check(r.c.rows() == problem.ref.rows() && r.c.cols() == problem.ref.cols(),
          "response " + std::to_string(r.id) + " has the request's extents");
    const auto& t = r.trace;
    check(t.enqueue_ns <= t.dispatch_ns && t.dispatch_ns <= t.compute_ns &&
              t.compute_ns <= t.repair_ns && t.repair_ns <= t.complete_ns,
          "response " + std::to_string(r.id) + " trace timestamps monotone");
    corrected_total += t.corrected ? 1 : 0;
    full_recomputes_total += t.full_recomputes;
    fired_total += t.faults_fired;
    if (r.c.rows() != problem.ref.rows() || r.c.cols() != problem.ref.cols())
      continue;
    if (t.corrections == 0) {
      // No checksum patches: repair (if any) was bit-exact, so the result
      // must match the fault-free reference bit for bit.
      check(r.c == problem.ref,
            "response " + std::to_string(r.id) + " bit-identical (rung " +
                std::string(to_string(r.rung)) + ")");
      ++bitwise_identical;
    } else if (problem.kind == serve::OpKind::kCholesky) {
      // Patch rounding in a trailing update propagates through every later
      // panel, so the factors are not elementwise-comparable to the clean
      // run; the served factors must still reconstruct the input.
      double residual = 0.0;
      const std::size_t nn = problem.a.rows();
      for (std::size_t row = 0; row < nn; ++row)
        for (std::size_t col = 0; col < nn; ++col) {
          double s = 0.0;
          const std::size_t tmax = std::min(row, col) + 1;
          for (std::size_t x = 0; x < tmax; ++x)
            s += r.c(row, x) * r.c(col, x);
          residual = std::max(residual, std::abs(problem.a(row, col) - s));
        }
      check(residual <= 1e-6,
            "response " + std::to_string(r.id) +
                " corrected Cholesky reconstructs the input (residual " +
                std::to_string(residual) + ")");
    } else {
      // Patched elements carry the checksum-sum rounding; everything else
      // must still be bit-identical.
      std::size_t diffs = 0;
      bool within_tol = true;
      for (std::size_t row = 0; row < r.c.rows(); ++row)
        for (std::size_t col = 0; col < r.c.cols(); ++col) {
          const double got = r.c(row, col);
          const double want = problem.ref(row, col);
          if (got == want) continue;
          ++diffs;
          const double rel =
              std::abs(got - want) / std::max(1e-300, std::abs(want));
          within_tol = within_tol && rel <= 1e-9;
        }
      check(diffs <= t.corrections,
            "response " + std::to_string(r.id) + ": " + std::to_string(diffs) +
                " deviations exceed the " + std::to_string(t.corrections) +
                " patched elements");
      check(within_tol, "response " + std::to_string(r.id) +
                            " patched elements within 1e-9 relative");
    }
  }
  server.stop();

  const serve::ServerStats stats = server.stats();
  check(stats.failed == 0, "no failed responses");
  check(stats.completed == inflight.size(), "every admitted request completed");
  if (requests >= 100)
    check(stats.completed_by_kind[0] > 0 && stats.completed_by_kind[1] > 0 &&
              stats.completed_by_kind[2] > 0,
          "the soak exercised GEMM, SYRK and Cholesky");
  if (faults_per_request == 1) {
    check(full_recomputes_total == 0,
          "single-fault damage repaired below the full-recompute rung (" +
              std::to_string(full_recomputes_total) + " full recomputes)");
    check(corrected_total >= 1, "at least one response took the correction path");
  }
  // Inner-loop faults (2/3 of armed sites) land inside a k-panel and must
  // surface through the online panel checks before the final verify.
  if (faults_per_request >= 1 && requests >= 100)
    check(stats.panel_detections >= 1,
          "online panel checks detected in-flight faults");

  std::printf("soak, %zu requests over %zu problems:\n", requests, pool.size());
  std::printf("  completed by kind       : gemm %llu, syrk %llu, cholesky "
              "%llu, lu %llu\n",
              static_cast<unsigned long long>(stats.completed_by_kind[0]),
              static_cast<unsigned long long>(stats.completed_by_kind[1]),
              static_cast<unsigned long long>(stats.completed_by_kind[2]),
              static_cast<unsigned long long>(stats.completed_by_kind[3]));
  std::printf("  faults armed/fired      : %llu / %zu\n",
              static_cast<unsigned long long>(stats.faults_armed), fired_total);
  std::printf("  corrected / block-rec / full-rec : %zu / %llu / %zu\n",
              corrected_total,
              static_cast<unsigned long long>(stats.block_recomputes),
              full_recomputes_total);
  std::printf("  panel detections (online) : %llu\n",
              static_cast<unsigned long long>(stats.panel_detections));
  std::printf("  bit-identical responses : %zu\n", bitwise_identical);
  std::printf("  overload backoffs       : %zu\n", overload_backoffs);
  std::printf("  e2e latency             : p50 %.3f ms, p95 %.3f ms, "
              "p99 %.3f ms, max %.3f ms\n",
              stats.e2e_ns.p50() / 1e6, stats.e2e_ns.p95() / 1e6,
              stats.e2e_ns.p99() / 1e6, stats.e2e_ns.max() / 1e6);
  std::printf("  queue wait              : p50 %.3f ms, p99 %.3f ms\n",
              stats.queue_wait_ns.p50() / 1e6,
              stats.queue_wait_ns.p99() / 1e6);
  serve_telemetry = server.telemetry_json();
  }  // soak phase

  // -- fleet: sharded multi-device rounds with a forced mid-run loss --------
  double fleet_clean_p99_ms = 0.0;
  double fleet_degraded_p99_ms = 0.0;
  std::size_t fleet_requests = 0;
  std::uint64_t fleet_reconstructions = 0;
  std::uint64_t fleet_replays = 0;
  std::string fleet_telemetry = "{}";
  if (has_phase("fleet")) {
    fleet_requests = env_size_or("AABFT_SERVE_FLEET_REQUESTS", 240);
    fleet::FleetConfig fleet_config;
    const abft::AabftConfig& aabft_cfg = fleet_config.serve.aabft;

    // GEMM-only problem pool; operands go through the erasure-coded store.
    std::vector<Problem> pool;
    const std::size_t shapes[][3] = {
        {32, 32, 32}, {48, 40, 56}, {64, 64, 64}, {33, 32, 33}};
    for (const auto& shape : shapes) {
      Problem problem;
      problem.a = linalg::uniform_matrix(shape[0], shape[1], -1.0, 1.0, rng);
      problem.b = linalg::uniform_matrix(shape[1], shape[2], -1.0, 1.0, rng);
      problem.ref =
          linalg::naive_matmul(problem.a, problem.b, aabft_cfg.gemm.use_fma);
      problem.grid_blocks =
          grid_blocks_of(shape[0], shape[1], shape[2], aabft_cfg);
      problem.fault_k = shape[1];
      pool.push_back(std::move(problem));
    }

    // One round: submit `fleet_requests` handle-based requests (one
    // exponent fault armed each), optionally force-failing device 0 at the
    // halfway mark. Returns the merged fleet-layer p99 in milliseconds.
    const auto run_round = [&](bool force_fail, const char* label) {
      fleet::FleetServer fleet(fleet_config);
      std::vector<std::pair<std::uint64_t, std::uint64_t>> handles;
      handles.reserve(pool.size());
      for (const Problem& problem : pool)
        handles.emplace_back(fleet.register_operand(problem.a),
                             fleet.register_operand(problem.b));
      std::vector<std::pair<std::size_t, std::future<fleet::FleetResponse>>>
          pending;
      pending.reserve(fleet_requests);
      for (std::size_t i = 0; i < fleet_requests; ++i) {
        if (force_fail && i == fleet_requests / 2) fleet.force_fail(0);
        const std::size_t p = i % pool.size();
        fleet::FleetRequest request;
        request.request.kind = serve::OpKind::kGemm;
        request.a_handle = handles[p].first;
        request.b_handle = handles[p].second;
        request.request.fault_plan =
            random_fault_plan(rng, 1, pool[p], aabft_cfg,
                              fleet_config.device_spec.num_sms);
        for (;;) {
          auto admitted = fleet.submit(request);  // operands are handles:
          if (admitted.ok()) {                    // resubmit stays cheap
            pending.emplace_back(p, std::move(*admitted));
            break;
          }
          if (admitted.error().code != ErrorCode::kOverloaded) {
            check(false, std::string(label) + " admission refusal: " +
                             admitted.error().message);
            break;
          }
          ++overload_backoffs;
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
      std::size_t completed = 0;
      bool any_reconstructed = false;
      for (auto& [p, f] : pending) {
        fleet::FleetResponse response = f.get();
        const serve::GemmResponse& r = response.response;
        const Problem& problem = pool[p];
        check(r.status == serve::ResponseStatus::kOk && r.clean,
              std::string(label) + " response " + std::to_string(r.id) +
                  " clean (diagnosis: " + r.diagnosis + ")");
        if (r.status != serve::ResponseStatus::kOk) continue;
        ++completed;
        any_reconstructed |= response.operands_reconstructed;
        // Zero-wrong-responses bar: bit-identical except checksum-patched
        // elements (same criterion as the single-device soak).
        std::size_t diffs = 0;
        bool within_tol = true;
        for (std::size_t row = 0; row < r.c.rows(); ++row)
          for (std::size_t col = 0; col < r.c.cols(); ++col) {
            const double got = r.c(row, col);
            const double want = problem.ref(row, col);
            if (got == want) continue;
            ++diffs;
            const double rel =
                std::abs(got - want) / std::max(1e-300, std::abs(want));
            within_tol = within_tol && rel <= 1e-9;
          }
        check(diffs <= r.trace.corrections,
              std::string(label) + " response " + std::to_string(r.id) + ": " +
                  std::to_string(diffs) + " deviations exceed the " +
                  std::to_string(r.trace.corrections) + " patched elements");
        check(within_tol, std::string(label) + " response " +
                              std::to_string(r.id) +
                              " patched elements within 1e-9 relative");
      }
      check(completed == fleet_requests,
            std::string(label) + ": every request completed (" +
                std::to_string(completed) + "/" +
                std::to_string(fleet_requests) + ")");
      fleet.stop();
      const fleet::FleetStats stats = fleet.stats();
      LatencyRecorder e2e;
      for (const auto& shard : stats.shards) e2e.merge(shard.fleet_e2e_ns);
      const double p99_ms = static_cast<double>(e2e.p99()) / 1e6;
      std::printf("  %-9s: %zu/%zu ok, p99 %.3f ms (queue wait p50 %.3f ms, "
                  "p99 %.3f ms), %llu steals, %llu replays, %llu "
                  "reconstructions, %zu fenced\n",
                  label, completed, fleet_requests, p99_ms,
                  stats.totals.queue_wait_ns.p50() / 1e6,
                  stats.totals.queue_wait_ns.p99() / 1e6,
                  static_cast<unsigned long long>(stats.steals),
                  static_cast<unsigned long long>(stats.replays),
                  static_cast<unsigned long long>(stats.reconstructions),
                  stats.fenced_devices);
      if (force_fail) {
        check(stats.fenced_devices == 1, "exactly one device fenced");
        check(any_reconstructed && stats.reconstructions > 0,
              "at least one response served through a parity reconstruction");
        fleet_reconstructions = stats.reconstructions;
        fleet_replays = stats.replays;
        fleet_telemetry = to_json(stats);
      }
      return p99_ms;
    };

    std::printf("fleet, %zu devices, 2 rounds of %zu requests:\n",
                fleet_config.devices, fleet_requests);
    fleet_clean_p99_ms = run_round(false, "clean");
    fleet_degraded_p99_ms = run_round(true, "degraded");
    // Bounded p99 inflation: losing 1 of 3 devices mid-run may slow the
    // tail but must not blow it up (the floor absorbs scheduler noise on
    // tiny rounds).
    check(fleet_degraded_p99_ms <=
              10.0 * std::max(fleet_clean_p99_ms, 5.0),
          "degraded p99 (" + std::to_string(fleet_degraded_p99_ms) +
              " ms) within 10x of clean p99 (" +
              std::to_string(fleet_clean_p99_ms) + " ms)");
    std::printf("\n");
  }

  // -- opcache: zipf weight-reuse traffic ----------------------------------
  double zipf_cold_s = 0.0;
  double zipf_warm_s = 0.0;
  double zipf_speedup = 0.0;
  double zipf_cold_p50_ms = 0.0;
  double zipf_cold_p99_ms = 0.0;
  double zipf_warm_p50_ms = 0.0;
  double zipf_warm_p99_ms = 0.0;
  std::size_t zipf_requests = 0;
  std::size_t zipf_weights = 0;
  std::size_t zipf_n = 0;
  std::size_t zipf_q = 0;
  std::uint64_t zipf_hits = 0;
  std::uint64_t zipf_faults_fired = 0;
  std::size_t zipf_cold_encodes = 0;
  std::size_t zipf_warm_encodes = 0;
  if (has_phase("opcache")) {
    zipf_requests = env_size_or("AABFT_SERVE_ZIPF_REQUESTS", 192);
    zipf_weights = env_size_or("AABFT_SERVE_ZIPF_WEIGHTS", 8);
    zipf_n = env_size_or("AABFT_SERVE_ZIPF_N", 384);
    zipf_q = env_size_or("AABFT_SERVE_ZIPF_Q", 2);
    const double zipf_skew = env_double_or("AABFT_SERVE_ZIPF_S", 1.1);

    // Inference-shaped traffic: a catalogue of zipf_n x zipf_n weight
    // matrices multiplied against skinny zipf_n x zipf_q activation panels,
    // served with the default A-ABFT configuration. What a hit saves is A's
    // light encode (the cached side-buffer and p-max table), so the gate
    // counts encode_a_light launches rather than timing a ratio. Batching
    // is disabled so the cold/warm delta is pure encode reuse, not
    // coalescing.
    serve::ServeConfig zipf_config;
    zipf_config.batch.max_batch = 1;
    zipf_config.admission.queue_capacity = zipf_requests + 8;
    const abft::AabftConfig& zipf_aabft = zipf_config.aabft;

    std::vector<linalg::Matrix> weight_pool;
    for (std::size_t w = 0; w < zipf_weights; ++w)
      weight_pool.push_back(
          linalg::uniform_matrix(zipf_n, zipf_n, -1.0, 1.0, rng));
    const std::size_t panels = 16;
    std::vector<linalg::Matrix> panel_pool;
    for (std::size_t i = 0; i < panels; ++i)
      panel_pool.push_back(
          linalg::uniform_matrix(zipf_n, zipf_q, -1.0, 1.0, rng));
    std::vector<std::vector<linalg::Matrix>> zipf_refs(zipf_weights);
    for (std::size_t w = 0; w < zipf_weights; ++w)
      for (std::size_t i = 0; i < panels; ++i)
        zipf_refs[w].push_back(linalg::naive_matmul(
            weight_pool[w], panel_pool[i], zipf_aabft.gemm.use_fma));

    // Zipf(s) popularity over weight ranks: rank r with probability
    // proportional to 1/(r+1)^s — a few hot weights take most traffic, the
    // tail stays warm. One schedule shared by every round keeps the offered
    // load identical across cold/warm/faulted.
    std::vector<double> zipf_cdf(zipf_weights);
    double zipf_mass = 0.0;
    for (std::size_t w = 0; w < zipf_weights; ++w) {
      zipf_mass += 1.0 / std::pow(static_cast<double>(w + 1), zipf_skew);
      zipf_cdf[w] = zipf_mass;
    }
    std::vector<std::pair<std::size_t, std::size_t>> schedule(zipf_requests);
    for (auto& [w, i] : schedule) {
      const double u = rng.next_unit() * zipf_mass;
      w = static_cast<std::size_t>(
          std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
          zipf_cdf.begin());
      if (w >= zipf_weights) w = zipf_weights - 1;
      i = rng.below(panels);
    }

    Problem fault_shape;  // grid extents for the faulted round's plans
    fault_shape.grid_blocks = grid_blocks_of(zipf_n, zipf_n, zipf_q,
                                             zipf_aabft);
    fault_shape.fault_k = zipf_n;

    struct ZipfRound {
      double elapsed_s = 0.0;
      serve::ServerStats stats;
      std::size_t a_encodes = 0;  ///< encode_a_light launches in the round
    };
    // One closed-loop round over the shared schedule: submit everything
    // against a paused server, resume, time until the last response lands.
    // `cached` registers the weight catalogue up front and ships handles;
    // the cold server re-encodes every request's inline A.
    const auto run_zipf_round = [&](bool cached, std::size_t faults,
                                    const char* label) {
      serve::ServeConfig config = zipf_config;
      config.opcache.enabled = cached;
      config.start_paused = true;
      if (faults > 0) config.aabft.cache_verify_every = 8;  // guard in-band
      serve::GemmServer server(launcher, config);
      launcher.clear_launch_log();
      std::vector<std::uint64_t> handles(zipf_weights, 0);
      if (cached)
        for (std::size_t w = 0; w < zipf_weights; ++w) {
          auto handle = server.register_operand(weight_pool[w]);
          check(handle.ok(), std::string(label) + " weight registration");
          if (handle.ok()) handles[w] = *handle;
        }
      std::vector<std::pair<std::size_t, std::future<serve::GemmResponse>>>
          pending;
      pending.reserve(zipf_requests);
      for (const auto& [w, i] : schedule) {
        serve::GemmRequest request;
        if (cached)
          request.a_handle = handles[w];
        else
          request.a = weight_pool[w];
        request.b = panel_pool[i];
        if (faults > 0)
          request.fault_plan =
              random_fault_plan(rng, faults, fault_shape, zipf_aabft,
                                launcher.device().num_sms);
        auto admitted = server.submit(std::move(request));
        check(admitted.ok(), std::string(label) + " request admitted");
        if (admitted.ok())
          pending.emplace_back(w * panels + i, std::move(*admitted));
      }
      const auto start = Clock::now();
      server.resume();
      for (auto& [key, f] : pending) {
        const serve::GemmResponse r = f.get();
        const linalg::Matrix& ref = zipf_refs[key / panels][key % panels];
        check(r.status == serve::ResponseStatus::kOk && r.clean,
              std::string(label) + " response " + std::to_string(r.id) +
                  " clean (diagnosis: " + r.diagnosis + ")");
        if (r.status != serve::ResponseStatus::kOk) continue;
        zipf_faults_fired += r.trace.faults_fired;
        // Zero-wrong-responses bar (the soak criterion): bit-identical when
        // nothing was patched, otherwise only checksum-patched elements may
        // deviate and only within rounding.
        if (r.trace.corrections == 0) {
          check(r.c == ref, std::string(label) + " response " +
                                std::to_string(r.id) + " bit-identical");
        } else {
          std::size_t diffs = 0;
          bool within_tol = true;
          for (std::size_t row = 0; row < r.c.rows(); ++row)
            for (std::size_t col = 0; col < r.c.cols(); ++col) {
              const double got = r.c(row, col);
              const double want = ref(row, col);
              if (got == want) continue;
              ++diffs;
              const double rel =
                  std::abs(got - want) / std::max(1e-300, std::abs(want));
              within_tol = within_tol && rel <= 1e-9;
            }
          check(diffs <= r.trace.corrections,
                std::string(label) + " response " + std::to_string(r.id) +
                    ": " + std::to_string(diffs) + " deviations exceed the " +
                    std::to_string(r.trace.corrections) +
                    " patched elements");
          check(within_tol, std::string(label) + " response " +
                                std::to_string(r.id) +
                                " patched elements within 1e-9 relative");
        }
      }
      ZipfRound round;
      round.elapsed_s = seconds_since(start);
      server.stop();
      round.stats = server.stats();
      const auto log = launcher.launch_log();
      round.a_encodes = static_cast<std::size_t>(
          std::count_if(log.begin(), log.end(), [](const auto& launch) {
            return launch.kernel_name == "encode_a_light";
          }));
      check(round.stats.failed == 0,
            std::string(label) + ": no failed responses");
      check(round.stats.completed == pending.size(),
            std::string(label) + ": every admitted request completed");
      return round;
    };

    std::printf("opcache, %zu zipf(%.2f) requests over %zu weights of "
                "%zux%zu (x%zu panels):\n",
                zipf_requests, zipf_skew, zipf_weights, zipf_n, zipf_n,
                zipf_q);
    const ZipfRound cold = run_zipf_round(false, 0, "zipf-cold");
    const ZipfRound warm = run_zipf_round(true, 0, "zipf-warm");
    const ZipfRound faulted = run_zipf_round(true, 1, "zipf-faulted");
    zipf_cold_s = cold.elapsed_s;
    zipf_warm_s = warm.elapsed_s;
    zipf_speedup = zipf_warm_s > 0.0 ? zipf_cold_s / zipf_warm_s : 0.0;
    zipf_cold_p50_ms = static_cast<double>(cold.stats.e2e_ns.p50()) / 1e6;
    zipf_cold_p99_ms = static_cast<double>(cold.stats.e2e_ns.p99()) / 1e6;
    zipf_warm_p50_ms = static_cast<double>(warm.stats.e2e_ns.p50()) / 1e6;
    zipf_warm_p99_ms = static_cast<double>(warm.stats.e2e_ns.p99()) / 1e6;
    zipf_hits = warm.stats.opcache_hits;
    zipf_cold_encodes = cold.a_encodes;
    zipf_warm_encodes = warm.a_encodes;
    std::printf("  cold (re-encode)  : %8.3f s  (p50 %8.3f ms, p99 %8.3f "
                "ms)\n",
                zipf_cold_s, zipf_cold_p50_ms, zipf_cold_p99_ms);
    std::printf("  warm (cache hits) : %8.3f s  (p50 %8.3f ms, p99 %8.3f "
                "ms)  %.2fx\n",
                zipf_warm_s, zipf_warm_p50_ms, zipf_warm_p99_ms,
                zipf_speedup);
    std::printf("  A encodes         : cold %zu, warm %zu\n", cold.a_encodes,
                warm.a_encodes);
    std::printf("  warm hits/misses  : %llu / %llu  (registered %llu, "
                "bytes %llu)\n",
                static_cast<unsigned long long>(zipf_hits),
                static_cast<unsigned long long>(warm.stats.opcache_misses),
                static_cast<unsigned long long>(
                    warm.stats.opcache_registered),
                static_cast<unsigned long long>(warm.stats.opcache_bytes));
    std::printf("  faulted round     : %8.3f s, %llu faults fired, %llu "
                "corrected\n",
                faulted.elapsed_s,
                static_cast<unsigned long long>(faulted.stats.faults_fired),
                static_cast<unsigned long long>(faulted.stats.corrected));
    check(zipf_hits >= zipf_requests,
          "every warm request served from the cache (" +
              std::to_string(zipf_hits) + " hits)");
    // Reuse, counted: a hit never launches A's encode, a cold request always
    // does.
    check(warm.a_encodes == warm.stats.opcache_registered,
          "warm round encodes A once per registration, never per hit (" +
              std::to_string(warm.a_encodes) + " encode_a_light launches, " +
              std::to_string(warm.stats.opcache_registered) +
              " registrations)");
    check(cold.a_encodes == zipf_requests,
          "cold round encodes A once per request (" +
              std::to_string(cold.a_encodes) + " encode_a_light launches, " +
              std::to_string(zipf_requests) + " requests)");
    // The latency gates apply at the standard size; reduced smoke sweeps
    // only verify correctness and the reuse accounting.
    const bool zipf_gate_applies = zipf_n >= 256 && zipf_requests >= 96;
    if (zipf_gate_applies) {
      check(zipf_warm_p50_ms < zipf_cold_p50_ms,
            "warm p50 below cold p50 (" + std::to_string(zipf_warm_p50_ms) +
                " vs " + std::to_string(zipf_cold_p50_ms) + " ms)");
      check(zipf_warm_p99_ms < zipf_cold_p99_ms,
            "warm p99 below cold p99 (" + std::to_string(zipf_warm_p99_ms) +
                " vs " + std::to_string(zipf_cold_p99_ms) + " ms)");
      check(zipf_faults_fired > 0,
            "the faulted zipf round fired its armed faults");
    } else {
      std::printf("  note: reduced sweep — the latency gates apply at "
                  "n >= 256 with >= 96 requests\n");
    }
    std::printf("\n");
  }

  // -- summary JSON --------------------------------------------------------
  const char* env = std::getenv("AABFT_SERVE_JSON");
  const std::string path =
      (env != nullptr && *env != '\0') ? env : "BENCH_serve.json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n\"workers\": %u,\n"
                 "\"phases\": \"%s\",\n"
                 "\"throughput\": {\"requests\": %zu, \"serial_s\": %.6f, "
                 "\"batched_s\": %.6f, \"speedup\": %.3f, "
                 "\"gate_applies\": %s},\n"
                 "\"soak\": {\"requests\": %zu, \"overload_backoffs\": %zu, "
                 "\"bitwise_identical\": %zu, \"fired\": %zu},\n"
                 "\"fleet\": {\"requests_per_round\": %zu, "
                 "\"clean_p99_ms\": %.3f, \"degraded_p99_ms\": %.3f, "
                 "\"replays\": %llu, \"reconstructions\": %llu, "
                 "\"degraded\": %s},\n"
                 "\"opcache\": {\"requests\": %zu, \"weights\": %zu, "
                 "\"n\": %zu, \"q\": %zu, \"cold_s\": %.6f, "
                 "\"warm_s\": %.6f, \"speedup\": %.3f, "
                 "\"cold_p50_ms\": %.3f, \"cold_p99_ms\": %.3f, "
                 "\"warm_p50_ms\": %.3f, \"warm_p99_ms\": %.3f, "
                 "\"hits\": %llu, \"faulted_fired\": %llu, "
                 "\"cold_a_encodes\": %zu, \"warm_a_encodes\": %zu},\n"
                 "\"serve\": %s}\n",
                 launcher.workers(), phases.c_str(), throughput_n, serial_s,
                 batched_s, speedup, gate_applies ? "true" : "false", requests,
                 overload_backoffs, bitwise_identical, fired_total,
                 fleet_requests, fleet_clean_p99_ms, fleet_degraded_p99_ms,
                 static_cast<unsigned long long>(fleet_replays),
                 static_cast<unsigned long long>(fleet_reconstructions),
                 fleet_telemetry.c_str(), zipf_requests, zipf_weights, zipf_n,
                 zipf_q, zipf_cold_s, zipf_warm_s, zipf_speedup,
                 zipf_cold_p50_ms, zipf_cold_p99_ms, zipf_warm_p50_ms,
                 zipf_warm_p99_ms,
                 static_cast<unsigned long long>(zipf_hits),
                 static_cast<unsigned long long>(zipf_faults_fired),
                 zipf_cold_encodes, zipf_warm_encodes,
                 serve_telemetry.c_str());
    std::fclose(f);
    std::printf("(json written to %s)\n", path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }

  std::printf("\n%s (%d failure(s))\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
