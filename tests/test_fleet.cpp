// Fleet subsystem tests: erasure-coded operand store (bit-identical
// single-shard reconstruction, double-fault refusal), shard router placement,
// device-health EWMA fencing, and FleetServer end-to-end — clean traffic,
// requests running on the shard they were routed to, forced mid-run device
// failure with replay + parity reconstruction and zero wrong responses,
// autonomous fencing of a chaos-corrupted device with its admitted work
// replayed, shutdown with in-flight work losing nothing, submits racing
// stop(), and refusals (shape, unrecoverable operand, full shard queue).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "fleet/fleet_server.hpp"
#include "fleet/health.hpp"
#include "fleet/parity.hpp"
#include "fleet/router.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace {

using namespace aabft::fleet;
using aabft::ErrorCode;
using aabft::Rng;
using aabft::linalg::Matrix;
using aabft::linalg::naive_matmul;
using aabft::linalg::uniform_matrix;
namespace serve = aabft::serve;

// Element-wise check for corrected (not bit-exact) responses: at most
// `budget` elements may deviate, each within a tight relative tolerance —
// the serve soak's verification contract.
void expect_close(const Matrix& got, const Matrix& want, std::size_t budget) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  std::size_t deviations = 0;
  for (std::size_t i = 0; i < got.rows(); ++i)
    for (std::size_t j = 0; j < got.cols(); ++j) {
      const double g = got(i, j), w = want(i, j);
      if (g == w) continue;
      const double rel = std::abs(g - w) / std::max(1.0, std::abs(w));
      EXPECT_LT(rel, 1e-9) << "at (" << i << "," << j << ")";
      ++deviations;
    }
  EXPECT_LE(deviations, budget);
}

// ---- OperandStore ----------------------------------------------------------

TEST(OperandStore, RoundTripIsBitIdentical) {
  Rng rng(71);
  OperandStore store(3);
  const Matrix m = uniform_matrix(5, 7, -10.0, 10.0, rng);
  const auto handle = store.put(m);
  auto fetched = store.get(handle);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->matrix, m);
  EXPECT_FALSE(fetched->reconstructed);
  EXPECT_EQ(store.reconstructions(), 0u);

  auto dims = store.dims(handle);
  ASSERT_TRUE(dims.ok());
  EXPECT_EQ(dims->first, 5u);
  EXPECT_EQ(dims->second, 7u);
  EXPECT_FALSE(store.get(handle + 1000).ok());
}

TEST(OperandStore, ReconstructsFencedStripeBitIdentical) {
  Rng rng(73);
  OperandStore store(4);
  // Several operands so the rotating parity shard cycles; odd extents so the
  // tail stripe is zero-padded.
  std::vector<Matrix> originals;
  std::vector<std::uint64_t> handles;
  for (int i = 0; i < 6; ++i) {
    originals.push_back(uniform_matrix(9 + i, 5, -1e6, 1e6, rng));
    handles.push_back(store.put(originals.back()));
  }

  store.fence_shard(1);
  bool any_reconstructed = false;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    auto fetched = store.get(handles[i]);
    ASSERT_TRUE(fetched.ok()) << "handle " << handles[i];
    // The acceptance bar: reconstruction is BIT-identical, not just close.
    EXPECT_EQ(fetched->matrix, originals[i]) << "handle " << handles[i];
    any_reconstructed |= fetched->reconstructed;
  }
  EXPECT_TRUE(any_reconstructed);
  EXPECT_GT(store.reconstructions(), 0u);
}

TEST(OperandStore, RefusesWhenTwoShardsAreLost) {
  Rng rng(79);
  OperandStore store(3);
  const auto handle = store.put(uniform_matrix(8, 8, -1.0, 1.0, rng));
  store.fence_shard(0);
  ASSERT_TRUE(store.get(handle).ok()) << "single loss must reconstruct";
  store.fence_shard(2);
  auto fetched = store.get(handle);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.error().code, ErrorCode::kUnavailable);
}

// ---- ShardRouter -----------------------------------------------------------

TEST(ShardRouter, PicksLeastEffectiveLoadAndSkipsFenced) {
  ShardRouter router;
  serve::ShapeKey key{aabft::baselines::OpKind::kGemm, 64, 64, 64};
  std::vector<ShardLoad> loads(3);
  loads[0].queued = 4;
  loads[1].queued = 1;
  loads[2].queued = 0;
  std::vector<double> avail = {1.0, 1.0, 0.0};  // shard 2 fenced
  auto pick = router.route(key, loads, avail);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 1u) << "emptiest live shard wins; fenced shard skipped";

  avail = {0.0, 0.0, 0.0};
  EXPECT_FALSE(router.route(key, loads, avail).has_value())
      << "all fenced -> no placement";
}

TEST(ShardRouter, ShapeAffinityHoldsUntilLoadSkews) {
  ShardRouter router;
  serve::ShapeKey key{aabft::baselines::OpKind::kGemm, 32, 32, 32};
  std::vector<ShardLoad> loads(3);
  std::vector<double> avail = {1.0, 1.0, 1.0};
  loads[0].queued = 5;
  loads[1].queued = 3;
  loads[2].queued = 4;
  ASSERT_EQ(router.route(key, loads, avail).value(), 1u);

  // Mildly busier (5+1 vs best 3+1, within the 1.5x slack): affinity keeps
  // the shape on shard 1 so batches coalesce.
  loads[1].queued = 4;
  loads[2].queued = 3;
  EXPECT_EQ(router.route(key, loads, avail).value(), 1u);

  // Far busier than the best candidate: affinity yields.
  loads[1].queued = 10;
  EXPECT_EQ(router.route(key, loads, avail).value(), 2u);

  // A health penalty also breaks affinity: load divides by availability.
  loads[1].queued = 3;
  loads[2].queued = 3;
  ASSERT_EQ(router.route(key, loads, avail).value(), 2u);
  avail[2] = 0.3;
  EXPECT_NE(router.route(key, loads, avail).value(), 2u);
}

// ---- DeviceHealth ----------------------------------------------------------

TEST(DeviceHealth, CorrectionSpikeFencesAfterMinObservations) {
  HealthConfig config;
  config.alpha = 0.2;
  config.min_observations = 8;
  DeviceHealth health(config);

  Observation corrected;
  corrected.corrected = true;
  for (std::uint64_t i = 0; i < config.min_observations - 1; ++i) {
    health.observe(corrected);
    EXPECT_NE(health.state(), HealthState::kFenced)
        << "must not fence before min_observations";
  }
  // Rates are far past the threshold by now; the next observation fences.
  health.observe(corrected);
  EXPECT_EQ(health.state(), HealthState::kFenced);
  EXPECT_EQ(health.availability(), 0.0);

  // Latched: a run of clean observations does not resurrect the device.
  for (int i = 0; i < 100; ++i) health.observe(Observation{});
  EXPECT_EQ(health.state(), HealthState::kFenced);
}

TEST(DeviceHealth, BackgroundCorrectionsDegradeButRecover) {
  HealthConfig config;
  config.alpha = 0.25;
  config.min_observations = 1000;  // rate-fencing effectively off
  DeviceHealth health(config);

  Observation corrected;
  corrected.corrected = true;
  for (int i = 0; i < 10; ++i) health.observe(corrected);
  EXPECT_EQ(health.state(), HealthState::kDegraded);
  EXPECT_LT(health.availability(), config.degrade_score);

  for (int i = 0; i < 40; ++i) health.observe(Observation{});
  EXPECT_EQ(health.state(), HealthState::kHealthy);
  EXPECT_GT(health.availability(), 0.9);
}

TEST(DeviceHealth, FailuresWeighHeavierThanCorrections) {
  DeviceHealth health;
  Observation failed;
  failed.ok = false;
  Observation corrected;
  corrected.corrected = true;
  DeviceHealth corrections_only;
  health.observe(failed);
  corrections_only.observe(corrected);
  EXPECT_LT(health.availability(), corrections_only.availability());
}

// ---- FleetServer end-to-end ------------------------------------------------

FleetConfig small_fleet_config() {
  FleetConfig config;
  config.devices = 3;
  config.workers_per_device = 2;
  return config;
}

serve::GemmRequest gemm_request(const Matrix& a, const Matrix& b) {
  serve::GemmRequest request;
  request.kind = aabft::baselines::OpKind::kGemm;
  request.a = a;
  request.b = b;
  return request;
}

TEST(FleetServer, CleanTrafficSpreadsAndCompletes) {
  Rng rng(83);
  const Matrix a = uniform_matrix(48, 48, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(48, 48, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  FleetServer fleet(small_fleet_config());
  constexpr std::size_t kRequests = 24;
  std::vector<std::future<FleetResponse>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    FleetRequest req;
    req.request = gemm_request(a, b);
    auto submitted = fleet.submit(std::move(req));
    ASSERT_TRUE(submitted.ok()) << submitted.error().message;
    futures.push_back(std::move(*submitted));
  }
  for (auto& fut : futures) {
    FleetResponse resp = fut.get();
    EXPECT_EQ(resp.response.status, serve::ResponseStatus::kOk);
    EXPECT_EQ(resp.response.c, ref) << "fault-free GEMM is bit-identical";
    EXPECT_FALSE(resp.operands_reconstructed);
  }
  fleet.stop();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.totals.completed, kRequests);
  EXPECT_EQ(stats.totals.failed, 0u);
  EXPECT_EQ(stats.fenced_devices, 0u);
  std::size_t shards_used = 0;
  for (const auto& shard : stats.shards)
    if (shard.routed > 0) ++shards_used;
  EXPECT_GE(shards_used, 2u) << "router spread load over the fleet";
  const std::string json = fleet.telemetry_json();
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  EXPECT_NE(json.find("\"fleet_e2e_ns\""), std::string::npos);
}

// A request runs on the shard it was routed to: submit admits it straight to
// that shard's server and nothing moves it afterwards, so with clean traffic
// from several clients each shard's server admits and completes exactly the
// requests routed there, and each answer names that shard.
TEST(FleetServer, RequestsRunOnTheShardTheyWereRoutedTo) {
  Rng rng(113);
  constexpr std::size_t kWeights = 3;
  const Matrix b = uniform_matrix(32, 16, -1.0, 1.0, rng);
  std::vector<Matrix> refs;
  FleetServer fleet(small_fleet_config());
  std::vector<std::uint64_t> handles;
  for (std::size_t w = 0; w < kWeights; ++w) {
    const Matrix a = uniform_matrix(48, 32, -1.0, 1.0, rng);
    refs.push_back(naive_matmul(a, b, false));
    handles.push_back(fleet.register_operand(a));
  }

  constexpr std::size_t kClients = 3;
  constexpr std::size_t kPerClient = 16;
  using Accepted = std::pair<std::size_t, std::future<FleetResponse>>;
  std::vector<std::vector<Accepted>> accepted(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t w = (c + i) % kWeights;
        FleetRequest req;
        req.request.kind = aabft::baselines::OpKind::kGemm;
        req.request.b = b;
        req.a_handle = handles[w];
        auto submitted = fleet.submit(std::move(req));
        EXPECT_TRUE(submitted.ok()) << submitted.error().message;
        if (submitted.ok()) accepted[c].emplace_back(w, std::move(*submitted));
      }
    });
  for (auto& client : clients) client.join();

  std::vector<std::uint64_t> answered_by(fleet.devices(), 0);
  for (auto& futures : accepted)
    for (auto& [w, fut] : futures) {
      FleetResponse resp = fut.get();
      ASSERT_EQ(resp.response.status, serve::ResponseStatus::kOk)
          << resp.response.diagnosis;
      EXPECT_EQ(resp.response.c, refs[w]);
      EXPECT_EQ(resp.replays, 0u);
      ASSERT_LT(resp.shard, fleet.devices());
      ++answered_by[resp.shard];
    }
  fleet.stop();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.totals.completed, kClients * kPerClient);
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.replays, 0u);
  for (const auto& shard : stats.shards) {
    EXPECT_EQ(shard.server.admitted, shard.routed) << "shard " << shard.shard;
    EXPECT_EQ(shard.server.completed, shard.routed) << "shard " << shard.shard;
    EXPECT_EQ(answered_by[shard.shard], shard.routed)
        << "shard " << shard.shard;
    EXPECT_EQ(shard.queued, 0u);
    EXPECT_EQ(shard.inflight, 0u);
  }
  EXPECT_EQ(fleet.telemetry_json().find("\"stolen\""), std::string::npos);
}

TEST(FleetServer, ForceFailedDeviceReplaysAndReconstructsOperands) {
  Rng rng(89);
  const Matrix a = uniform_matrix(48, 48, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(48, 48, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  FleetServer fleet(small_fleet_config());
  const auto a_handle = fleet.register_operand(a);
  const auto b_handle = fleet.register_operand(b);

  const auto submit_one = [&] {
    FleetRequest req;
    req.request.kind = aabft::baselines::OpKind::kGemm;
    req.a_handle = a_handle;
    req.b_handle = b_handle;
    auto submitted = fleet.submit(std::move(req));
    EXPECT_TRUE(submitted.ok()) << submitted.error().message;
    return std::move(*submitted);
  };

  std::vector<std::future<FleetResponse>> before, after;
  for (int i = 0; i < 12; ++i) before.push_back(submit_one());
  // Mid-run abrupt device loss, with work queued and in flight.
  fleet.force_fail(0);
  for (int i = 0; i < 12; ++i) after.push_back(submit_one());

  bool any_reconstructed = false;
  const auto check = [&](std::future<FleetResponse>& fut, bool post_fence) {
    FleetResponse resp = fut.get();
    ASSERT_EQ(resp.response.status, serve::ResponseStatus::kOk)
        << resp.response.diagnosis;
    EXPECT_EQ(resp.response.c, ref)
        << "zero wrong responses across a device loss";
    if (post_fence) {
      EXPECT_NE(resp.shard, 0u)
          << "post-fence results must not come from the fenced device";
    }
    any_reconstructed |= resp.operands_reconstructed;
  };
  // Pre-fence responses may have been trustworthily served by shard 0
  // before the fence landed; post-fence ones must avoid it entirely.
  for (auto& fut : before) check(fut, false);
  for (auto& fut : after) check(fut, true);
  EXPECT_TRUE(fleet.fenced(0));
  EXPECT_TRUE(any_reconstructed)
      << "post-fence requests rebuilt striped operands from parity";
  fleet.stop();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.fenced_devices, 1u);
  EXPECT_GT(stats.reconstructions, 0u);
  EXPECT_EQ(stats.shards[0].state, HealthState::kFenced);
  EXPECT_EQ(stats.totals.failed, 0u);
}

TEST(FleetServer, AutonomouslyFencesChaosCorruptedDevice) {
  Rng rng(97);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  FleetConfig config = small_fleet_config();
  config.health.alpha = 0.25;
  config.health.min_observations = 6;
  // Keep availability near 1 until the fence trips, so the router's shape
  // affinity keeps feeding the sick device instead of quietly draining it —
  // the test wants the *fence* to act, not load shedding.
  config.health.correction_weight = 0.1;
  FleetServer fleet(config);
  // Device 0's "hardware" goes bad: every request dispatched there takes an
  // exponent-flip fault. A-ABFT corrects each one; the health model watches
  // the correction-rate spike and fences the device autonomously.
  fleet.inject_device_faults(0, 1);

  std::vector<std::future<FleetResponse>> futures;
  for (int round = 0; round < 40 && !fleet.fenced(0); ++round) {
    FleetRequest req;
    req.request = gemm_request(a, b);
    auto submitted = fleet.submit(std::move(req));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
    futures.back().wait();
  }
  EXPECT_TRUE(fleet.fenced(0))
      << "correction-rate spike must fence the device";
  for (auto& fut : futures) {
    FleetResponse resp = fut.get();
    ASSERT_EQ(resp.response.status, serve::ResponseStatus::kOk);
    // Corrected responses may deviate by checksum-repair arithmetic on at
    // most the corrected elements; everything else is bit-exact.
    expect_close(resp.response.c, ref,
                 resp.response.trace.corrections + 1);
  }
  fleet.stop();
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.fenced_devices, 1u);
  EXPECT_GT(stats.totals.corrected, 0u);
  EXPECT_EQ(stats.totals.failed, 0u);
}

// Trust is decided when a response is collected. Device 0 takes a chaos
// fault on every request and one bad observation fences it, so the first
// response collected there fences the device. That request, and every other
// one already admitted to device 0, still runs there, and each is answered
// by a replay on a survivor instead.
TEST(FleetServer, FencedShardsAdmittedWorkIsReplayedOnSurvivors) {
  Rng rng(127);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  FleetConfig config = small_fleet_config();
  config.health.alpha = 1.0;
  config.health.min_observations = 1;
  FleetServer fleet(config);
  fleet.inject_device_faults(0, 1);

  constexpr std::size_t kRequests = 12;
  std::vector<std::future<FleetResponse>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    FleetRequest req;
    req.request = gemm_request(a, b);
    auto submitted = fleet.submit(std::move(req));
    ASSERT_TRUE(submitted.ok()) << submitted.error().message;
    futures.push_back(std::move(*submitted));
  }
  for (auto& fut : futures) {
    FleetResponse resp = fut.get();
    ASSERT_EQ(resp.response.status, serve::ResponseStatus::kOk)
        << resp.response.diagnosis;
    EXPECT_EQ(resp.response.c, ref) << "replays run on clean survivors";
    EXPECT_NE(resp.shard, 0u) << "no answer comes from the fenced device";
  }
  fleet.stop();

  EXPECT_TRUE(fleet.fenced(0));
  const FleetStats stats = fleet.stats();
  const ShardStats& sick = stats.shards[0];
  // The first submit lands on device 0: every shard is idle and the router
  // breaks ties towards the lowest index.
  EXPECT_GE(sick.routed, 1u);
  EXPECT_EQ(sick.server.completed + sick.server.failed, sick.routed)
      << "admitted work still runs on the fenced device";
  EXPECT_EQ(sick.replayed, sick.routed);
  EXPECT_EQ(stats.replays, sick.routed);
  EXPECT_EQ(stats.totals.completed + stats.totals.failed,
            kRequests + sick.routed);
}

// Injected chaos belongs to the device, whichever path brings work there: a
// replay dispatched to a chaos-injected device takes its faults like a
// routed request does.
TEST(FleetServer, ReplayOntoAChaosDeviceTakesItsFaults) {
  Rng rng(131);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  FleetConfig config = small_fleet_config();
  config.health.alpha = 1.0;
  config.health.min_observations = 1;
  FleetServer fleet(config);
  fleet.force_fail(2);
  // Device 0 fences on its first collected response; device 1, the only
  // survivor left for the replay, corrupts whatever runs on it.
  fleet.inject_device_faults(0, 1);
  fleet.inject_device_faults(1, 1);

  FleetRequest req;
  req.request = gemm_request(a, b);
  auto submitted = fleet.submit(std::move(req));
  ASSERT_TRUE(submitted.ok()) << submitted.error().message;
  FleetResponse resp = submitted->get();
  fleet.stop();

  ASSERT_EQ(resp.response.status, serve::ResponseStatus::kOk)
      << resp.response.diagnosis;
  EXPECT_EQ(resp.shard, 1u);
  EXPECT_EQ(resp.replays, 1u);
  EXPECT_TRUE(resp.response.trace.corrected)
      << "the replay ran with device 1's fault armed";
  expect_close(resp.response.c, ref, resp.response.trace.corrections + 1);
  const FleetStats stats = fleet.stats();
  EXPECT_TRUE(fleet.fenced(0));
  EXPECT_EQ(stats.shards[0].server.faults_armed, 1u);
  EXPECT_EQ(stats.shards[1].server.faults_armed, 1u);
  EXPECT_EQ(stats.shards[1].routed, 0u) << "device 1 saw only the replay";
}

TEST(FleetServer, ShutdownWithInflightWorkLosesNoRequests) {
  Rng rng(101);
  const Matrix a = uniform_matrix(48, 48, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(48, 48, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  FleetServer fleet(small_fleet_config());

  constexpr std::size_t kRequests = 32;
  std::vector<std::future<FleetResponse>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    FleetRequest req;
    req.request = gemm_request(a, b);
    auto submitted = fleet.submit(std::move(req));
    ASSERT_TRUE(submitted.ok()) << submitted.error().message;
    futures.push_back(std::move(*submitted));
  }
  // Immediate shutdown: queued and in-flight work must all still resolve —
  // drain semantics, not abandonment.
  fleet.stop();
  std::size_t completed = 0;
  for (auto& fut : futures) {
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "stop() returned with an unresolved request";
    FleetResponse resp = fut.get();
    EXPECT_EQ(resp.response.status, serve::ResponseStatus::kOk);
    EXPECT_EQ(resp.response.c, ref);
    ++completed;
  }
  EXPECT_EQ(completed, kRequests);
  EXPECT_EQ(fleet.stats().totals.completed, kRequests);
}

TEST(FleetServer, ShardLossInvalidatesServeCacheEntries) {
  Rng rng(97);
  const Matrix a = uniform_matrix(48, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 16, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  FleetServer fleet(small_fleet_config());
  const auto a_handle = fleet.register_operand(a);
  EXPECT_EQ(fleet.register_operand(a), a_handle)
      << "content-identical registration dedups to the existing handle";
  EXPECT_GE(fleet.stats().operand_dedups, 1u);

  const auto submit_burst = [&](std::size_t n) {
    std::vector<std::future<FleetResponse>> futures;
    for (std::size_t i = 0; i < n; ++i) {
      FleetRequest req;
      req.request.kind = aabft::baselines::OpKind::kGemm;
      req.request.b = b;
      req.a_handle = a_handle;
      auto submitted = fleet.submit(std::move(req));
      EXPECT_TRUE(submitted.ok()) << submitted.error().message;
      futures.push_back(std::move(*submitted));
    }
    return futures;
  };
  const auto drain = [&](std::vector<std::future<FleetResponse>>& futures) {
    for (auto& fut : futures) {
      FleetResponse resp = fut.get();
      ASSERT_EQ(resp.response.status, serve::ResponseStatus::kOk)
          << resp.response.diagnosis;
      EXPECT_EQ(resp.response.c, ref)
          << "zero wrong responses across the shard loss";
    }
  };

  // Warm phase: the handle's encode lands in at least one shard's serve
  // cache and later requests hit it.
  auto warm = submit_burst(16);
  drain(warm);
  const FleetStats warm_stats = fleet.stats();
  EXPECT_GE(warm_stats.totals.opcache_registered, 1u);
  EXPECT_GE(warm_stats.totals.opcache_hits, 1u);

  // Handle 0's parity stripe is on shard 0; its data stripes are on shards
  // 1 and 2. Fence a data-stripe shard that leaves a cache-holding shard
  // alive: post-fence fetches then reconstruct A from parity, and every
  // surviving shard with a pre-fence cache entry must invalidate it.
  const std::size_t victim =
      warm_stats.shards[1].server.opcache_registered > 0 ? 2 : 1;
  fleet.force_fail(victim);

  auto after = submit_burst(16);
  drain(after);
  fleet.stop();

  const FleetStats stats = fleet.stats();
  EXPECT_TRUE(fleet.fenced(victim));
  EXPECT_GT(stats.reconstructions, 0u)
      << "the lost data stripe was rebuilt from parity";
  EXPECT_GE(stats.totals.opcache_invalidations, 1u)
      << "a reconstructed operand must invalidate surviving shards' cached "
         "encodes before re-registering";
  EXPECT_EQ(stats.totals.failed, 0u);
}

// Client threads keep submitting while stop() runs, with the stop landing at
// a different point of the traffic each round (after 0, 6, 12, ... of the
// 120 submits): every submit is either refused or answered, and every answer
// is ready, clean and bit-identical once stop() has returned.
TEST(FleetServer, SubmitRacingStopIsAnsweredOrRefused) {
  Rng rng(107);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  constexpr int kRounds = 20;
  constexpr int kClients = 3;
  constexpr int kPerClient = 40;
  for (int round = 0; round < kRounds; ++round) {
    FleetServer fleet(small_fleet_config());
    std::atomic<int> sent{0};
    std::vector<std::vector<std::future<FleetResponse>>> accepted(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        for (int i = 0; i < kPerClient; ++i) {
          FleetRequest req;
          req.request = gemm_request(a, b);
          auto submitted = fleet.submit(std::move(req));
          sent.fetch_add(1);
          if (submitted.ok()) {
            accepted[c].push_back(std::move(*submitted));
          } else {
            // The fleet, or the routed shard's server, is stopping.
            const ErrorCode code = submitted.error().code;
            EXPECT_TRUE(code == ErrorCode::kUnavailable ||
                        code == ErrorCode::kOverloaded)
                << submitted.error().message;
          }
        }
      });
    const int stop_after = round * kClients * kPerClient / kRounds;
    while (sent.load() < stop_after) std::this_thread::yield();
    fleet.stop();
    for (auto& client : clients) client.join();

    std::size_t answered = 0;
    for (auto& futures : accepted)
      for (auto& fut : futures) {
        ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << "round " << round << ": an accepted submit has no answer";
        FleetResponse resp = fut.get();
        EXPECT_EQ(resp.response.status, serve::ResponseStatus::kOk)
            << resp.response.diagnosis;
        EXPECT_EQ(resp.response.c, ref);
        ++answered;
      }
    EXPECT_EQ(fleet.stats().totals.completed, answered) << "round " << round;
  }
}

TEST(FleetServer, ShapeMismatchIsRefusedAtSubmit) {
  Rng rng(109);
  FleetServer fleet(small_fleet_config());
  FleetRequest req;
  req.request.kind = aabft::baselines::OpKind::kGemm;
  req.a_handle = fleet.register_operand(uniform_matrix(16, 24, -1.0, 1.0, rng));
  req.request.b = uniform_matrix(16, 8, -1.0, 1.0, rng);  // needs 24 rows
  auto refused = fleet.submit(std::move(req));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, ErrorCode::kShapeMismatch);
  EXPECT_EQ(fleet.stats().rejected, 1u);
  fleet.stop();
}

// An operand that lost two stripes cannot be resolved for any shard: submit
// refuses it with kUnavailable instead of accepting a request that can only
// fail.
TEST(FleetServer, UnrecoverableOperandIsRefusedAtSubmit) {
  Rng rng(137);
  FleetServer fleet(small_fleet_config());
  FleetRequest req;
  req.request.kind = aabft::baselines::OpKind::kGemm;
  req.a_handle = fleet.register_operand(uniform_matrix(16, 16, -1.0, 1.0, rng));
  req.b_handle = fleet.register_operand(uniform_matrix(16, 16, -1.0, 1.0, rng));
  fleet.force_fail(0);
  fleet.force_fail(1);  // device 2 is alive, but every operand lost 2 of 3
  auto refused = fleet.submit(std::move(req));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, ErrorCode::kUnavailable);
  fleet.stop();
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.totals.admitted, 0u);
  EXPECT_EQ(stats.totals.failed, 0u);
}

// The shard servers' bounded queues are the fleet's only queues. With
// one-deep queues, one worker and one-request batches per shard, a burst of
// GEMMs that each run far longer than a submit soon finds every shard busy
// with one request and holding another, and the routed shard's server
// refuses the next submit with kOverloaded. Every accepted submit is still
// answered, and once the backlog drains the fleet accepts work again.
TEST(FleetServer, FullShardQueueIsRefusedOverloaded) {
  Rng rng(139);
  const Matrix a = uniform_matrix(128, 128, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(128, 128, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  FleetConfig config = small_fleet_config();
  config.workers_per_device = 1;
  config.serve.admission.queue_capacity = 1;
  config.serve.batch.max_batch = 1;
  FleetServer fleet(config);

  std::vector<std::future<FleetResponse>> accepted;
  std::size_t overloaded = 0;
  // Six submits fill the fleet; the bound only keeps a stalled loop finite.
  for (int i = 0; i < 200 && overloaded == 0; ++i) {
    FleetRequest req;
    req.request = gemm_request(a, b);
    auto submitted = fleet.submit(std::move(req));
    if (submitted.ok()) {
      accepted.push_back(std::move(*submitted));
      continue;
    }
    EXPECT_EQ(submitted.error().code, ErrorCode::kOverloaded)
        << submitted.error().message;
    ++overloaded;
  }
  ASSERT_EQ(overloaded, 1u);
  for (auto& fut : accepted) {
    FleetResponse resp = fut.get();
    EXPECT_EQ(resp.response.status, serve::ResponseStatus::kOk)
        << resp.response.diagnosis;
    EXPECT_EQ(resp.response.c, ref);
  }

  // Every accepted request has been answered, so every shard queue is empty.
  FleetRequest req;
  req.request = gemm_request(a, b);
  auto again = fleet.submit(std::move(req));
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(again->get().response.c, ref);
  fleet.stop();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.totals.rejected_queue_full, 1u);
  EXPECT_EQ(stats.totals.completed, accepted.size() + 1);
}

TEST(FleetServer, RefusalsAreValues) {
  FleetServer fleet(small_fleet_config());
  FleetRequest unknown;
  unknown.request.kind = aabft::baselines::OpKind::kGemm;
  unknown.a_handle = 12345;  // never registered
  auto refused = fleet.submit(std::move(unknown));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, ErrorCode::kInvalidArgument);

  fleet.force_fail(0);
  fleet.force_fail(1);
  fleet.force_fail(2);
  Rng rng(103);
  FleetRequest req;
  req.request = gemm_request(uniform_matrix(16, 16, -1.0, 1.0, rng),
                             uniform_matrix(16, 16, -1.0, 1.0, rng));
  auto dead = fleet.submit(std::move(req));
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.error().code, ErrorCode::kUnavailable);
  fleet.stop();
}

}  // namespace
