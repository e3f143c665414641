// Fleet serving benchmark: what the device-level failure-domain layer costs
// and buys.
//
//   1. Erasure-coding microbenchmark — ns/word to stripe an operand with XOR
//      parity (put) and to reconstruct it with one shard fenced (get).
//   2. Throughput scaling — one GemmServer on one device versus a 3-device
//      FleetServer with the same total worker count (the single device gets
//      devices x workers_per_device workers), same open-loop request burst.
//   3. Degraded mode — the same fleet burst with one device force-failed
//      mid-run: surviving throughput, replays, reconstructions, and the p99
//      inflation clients actually see.
//
//   AABFT_BENCH_MAX_N      GEMM dimension (default 96)
//   AABFT_BENCH_REQUESTS   requests per burst (default 96)
//   AABFT_BENCH_JSON       output path (default BENCH_fleet.json)
#include <chrono>
#include <cstdio>
#include <future>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/rng.hpp"
#include "fleet/fleet_server.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"
#include "serve/server.hpp"

namespace {

using namespace aabft;
using linalg::Matrix;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

serve::GemmRequest gemm_request(const Matrix& a, const Matrix& b) {
  serve::GemmRequest request;
  request.kind = baselines::OpKind::kGemm;
  request.a = a;
  request.b = b;
  return request;
}

struct BurstResult {
  double wall_s = 0.0;
  std::size_t completed = 0;
  double p99_ms = 0.0;
};

BurstResult fleet_burst(fleet::FleetServer& fleet, const Matrix& a,
                        const Matrix& b, std::size_t requests,
                        std::size_t fail_shard_at = ~std::size_t{0}) {
  std::vector<std::future<fleet::FleetResponse>> futures;
  futures.reserve(requests);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    if (i == fail_shard_at) fleet.force_fail(0);
    fleet::FleetRequest req;
    req.request = gemm_request(a, b);
    auto submitted = fleet.submit(std::move(req));
    if (submitted.ok()) futures.push_back(std::move(*submitted));
  }
  BurstResult result;
  for (auto& fut : futures)
    if (fut.get().response.status == serve::ResponseStatus::kOk)
      ++result.completed;
  result.wall_s = seconds_since(start);
  LatencyRecorder e2e;
  for (const auto& shard : fleet.stats().shards) e2e.merge(shard.fleet_e2e_ns);
  result.p99_ms = e2e.p99() / 1e6;
  return result;
}

}  // namespace

int main() {
  const std::size_t n = env_size_or("AABFT_BENCH_MAX_N", 96);
  const std::size_t requests = env_size_or("AABFT_BENCH_REQUESTS", 96);
  Rng rng(2024);
  const Matrix a = linalg::uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix b = linalg::uniform_matrix(n, n, -1.0, 1.0, rng);

  bench::BenchJson json;

  // ---- 1. parity encode / reconstruct --------------------------------------
  {
    constexpr int kReps = 20;
    fleet::OperandStore store(4);
    const std::size_t words = n * n;
    auto start = Clock::now();
    std::uint64_t handle = 0;
    for (int r = 0; r < kReps; ++r) handle = store.put(a);
    const double encode_ns = seconds_since(start) * 1e9 / (kReps * words);

    store.fence_shard(1);  // every get must now rebuild one stripe
    start = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      auto fetched = store.get(handle);
      if (!fetched.ok() || fetched->matrix != a) return 1;
    }
    const double rebuild_ns = seconds_since(start) * 1e9 / (kReps * words);
    std::printf("parity: encode %.2f ns/word, reconstruct %.2f ns/word "
                "(%zu-word operands, 4 shards)\n",
                encode_ns, rebuild_ns, words);
    json.begin_row()
        .str("case", "parity")
        .num("words", words)
        .num("encode_ns_per_word", encode_ns)
        .num("reconstruct_ns_per_word", rebuild_ns);
  }

  // ---- 2. single server vs fleet, equal total workers -----------------------
  constexpr unsigned kDevices = 3;
  const unsigned workers_per_device = 2;
  double single_rps = 0.0;
  {
    gpusim::Launcher launcher(gpusim::k20c(), kDevices * workers_per_device);
    serve::GemmServer server(launcher);
    std::vector<std::future<serve::GemmResponse>> futures;
    futures.reserve(requests);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < requests; ++i) {
      auto submitted = server.submit(gemm_request(a, b));
      if (submitted.ok()) futures.push_back(std::move(*submitted));
    }
    std::size_t completed = 0;
    for (auto& fut : futures)
      if (fut.get().status == serve::ResponseStatus::kOk) ++completed;
    const double wall = seconds_since(start);
    server.stop();
    single_rps = static_cast<double>(completed) / wall;
    const double p99_ms = server.stats().e2e_ns.p99() / 1e6;
    std::printf("single server:  %zu/%zu ok, %7.1f req/s, p99 %.2f ms "
                "(%u workers)\n",
                completed, requests, single_rps, p99_ms,
                kDevices * workers_per_device);
    json.begin_row()
        .str("case", "single_server")
        .num("n", n)
        .num("requests", requests)
        .num("completed", completed)
        .num("req_per_s", single_rps, 1)
        .num("p99_ms", p99_ms);
  }

  double fleet_rps = 0.0;
  {
    fleet::FleetConfig config;
    config.devices = kDevices;
    config.workers_per_device = workers_per_device;
    fleet::FleetServer fleet(config);
    const BurstResult r = fleet_burst(fleet, a, b, requests);
    fleet.stop();
    fleet_rps = static_cast<double>(r.completed) / r.wall_s;
    std::printf(
        "fleet (3 dev):  %zu/%zu ok, %7.1f req/s, p99 %.2f ms "
        "(%.2fx vs single)\n",
        r.completed, requests, fleet_rps, r.p99_ms, fleet_rps / single_rps);
    json.begin_row()
        .str("case", "fleet_3dev")
        .num("n", n)
        .num("requests", requests)
        .num("completed", r.completed)
        .num("req_per_s", fleet_rps, 1)
        .num("p99_ms", r.p99_ms)
        .num("speedup_vs_single", fleet_rps / single_rps);
  }

  // ---- 3. degraded mode: one device force-failed mid-burst ------------------
  {
    fleet::FleetConfig config;
    config.devices = kDevices;
    config.workers_per_device = workers_per_device;
    fleet::FleetServer fleet(config);
    const BurstResult r =
        fleet_burst(fleet, a, b, requests, requests / 3);
    fleet.stop();
    const auto stats = fleet.stats();
    const double degraded_rps = static_cast<double>(r.completed) / r.wall_s;
    std::printf(
        "fleet degraded: %zu/%zu ok, %7.1f req/s, p99 %.2f ms, %llu replays, "
        "%llu reconstructions, %zu fenced\n",
        r.completed, requests, degraded_rps, r.p99_ms,
        static_cast<unsigned long long>(stats.replays),
        static_cast<unsigned long long>(stats.reconstructions),
        stats.fenced_devices);
    json.begin_row()
        .str("case", "fleet_degraded")
        .num("n", n)
        .num("requests", requests)
        .num("completed", r.completed)
        .num("req_per_s", degraded_rps, 1)
        .num("p99_ms", r.p99_ms)
        .num("replays", static_cast<std::size_t>(stats.replays))
        .num("fenced_devices", stats.fenced_devices);
    if (r.completed != requests) {
      std::fprintf(stderr, "degraded burst lost %zu requests\n",
                   requests - r.completed);
      return 1;
    }
  }

  return json.write("BENCH_fleet.json") ? 0 : 1;
}
