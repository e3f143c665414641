// Fleet subsystem tests: erasure-coded operand store (bit-identical
// single-shard reconstruction, double-fault refusal), shard router placement,
// device-health EWMA fencing, work-stealing shard queues, and FleetServer
// end-to-end — clean traffic, forced mid-run device failure with replay +
// parity reconstruction and zero wrong responses, autonomous fencing of a
// chaos-corrupted device, and shutdown with in-flight work losing nothing.
#include <gtest/gtest.h>

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
#include "fleet/steal.hpp"
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

// ---- ShardQueues -----------------------------------------------------------

TEST(ShardQueues, OwnQueueIsFifoAndStealTakesDeepestSiblingTail) {
  ShardQueues<int> queues(3, 16);
  ASSERT_TRUE(queues.try_push(0, 10));
  ASSERT_TRUE(queues.try_push(0, 11));
  ASSERT_TRUE(queues.try_push(1, 20));
  ASSERT_TRUE(queues.try_push(1, 21));
  ASSERT_TRUE(queues.try_push(1, 22));

  const auto ms = std::chrono::microseconds(1000);
  auto own = queues.pop(0, ms);
  ASSERT_TRUE(own.has_value());
  EXPECT_EQ(own->item, 10);  // FIFO from the owner's front
  EXPECT_FALSE(own->stolen);

  // Shard 2 is empty: it steals from the deepest sibling (1), from the tail.
  auto stolen = queues.pop(2, ms);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->item, 22);
  EXPECT_TRUE(stolen->stolen);
  EXPECT_EQ(queues.steals(), 1u);

  // allow_steal = false starves instead.
  EXPECT_FALSE(queues.pop(2, std::chrono::microseconds(100), false));
}

TEST(ShardQueues, CapacityDrainAndCloseSemantics) {
  ShardQueues<int> queues(3, 2);
  ASSERT_TRUE(queues.try_push(0, 1));
  ASSERT_TRUE(queues.try_push(0, 2));
  EXPECT_FALSE(queues.try_push(0, 3)) << "per-shard bound enforced";
  ASSERT_TRUE(queues.try_push(1, 4));

  auto drained = queues.drain_shard(0);
  EXPECT_EQ(drained, (std::vector<int>{1, 2}));
  EXPECT_EQ(queues.depth(0), 0u);
  EXPECT_EQ(queues.total_depth(), 1u);

  queues.close();
  EXPECT_FALSE(queues.try_push(0, 5)) << "closed queues refuse pushes";
  auto last = queues.pop(1, std::chrono::microseconds(1000));
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->item, 4);  // drains after close
  EXPECT_FALSE(queues.pop(1, std::chrono::microseconds(1000)));
}

// Spins until a caller is blocked in pop(`shard`).
void await_parked(const ShardQueues<int>& queues, std::size_t shard) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!queues.parked(shard)) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "shard " << shard << " never parked in pop()";
    std::this_thread::yield();
  }
}

TEST(ShardQueues, ParkedOwnersQueueIsNotStolen) {
  ShardQueues<int> queues(3, 16);
  auto owner = std::async(std::launch::async, [&] {
    return queues.pop(0, std::chrono::seconds(10));
  });
  await_parked(queues, 0);
  ASSERT_TRUE(queues.try_push(0, 7));
  ASSERT_TRUE(queues.try_push(2, 9));

  // Shard 0's queue is as deep as shard 2's, but its owner is parked (the
  // push woke it; it takes the job itself), so the idle shard 1 steals from
  // shard 2, whose owner is busy elsewhere.
  auto sibling = queues.pop(1, std::chrono::microseconds(0));
  ASSERT_TRUE(sibling.has_value());
  EXPECT_EQ(sibling->item, 9);
  EXPECT_TRUE(sibling->stolen);

  auto own = owner.get();
  ASSERT_TRUE(own.has_value());
  EXPECT_EQ(own->item, 7);
  EXPECT_FALSE(own->stolen);
  EXPECT_EQ(queues.steals(), 1u);
}

TEST(ShardQueues, OwnerTakingOneJobOfABurstWakesParkedSiblings) {
  ShardQueues<int> queues(2, 16);
  const auto long_wait = std::chrono::seconds(20);
  auto sibling = std::async(std::launch::async, [&] {
    const auto start = std::chrono::steady_clock::now();
    auto popped = queues.pop(1, long_wait);
    return std::make_pair(std::move(popped),
                          std::chrono::steady_clock::now() - start);
  });
  auto owner =
      std::async(std::launch::async, [&] { return queues.pop(0, long_wait); });
  await_parked(queues, 1);
  await_parked(queues, 0);
  for (int job = 1; job <= 3; ++job) ASSERT_TRUE(queues.try_push(0, int{job}));

  auto own = owner.get();
  ASSERT_TRUE(own.has_value());
  EXPECT_EQ(own->item, 1);
  EXPECT_FALSE(own->stolen);

  // Once the owner is busy with job 1, the parked sibling steals from the
  // tail of what is left, woken at once rather than at its pop timeout.
  auto [stolen, waited] = sibling.get();
  ASSERT_TRUE(stolen.has_value());
  EXPECT_TRUE(stolen->stolen);
  EXPECT_TRUE(stolen->item == 2 || stolen->item == 3) << stolen->item;
  EXPECT_LT(waited, long_wait / 4);
  EXPECT_EQ(queues.depth(0), 1u);
}

TEST(ShardQueues, ParkedSiblingStealsFromBusyOwner) {
  ShardQueues<int> queues(2, 16);
  const auto long_wait = std::chrono::seconds(20);
  auto sibling = std::async(std::launch::async, [&] {
    const auto start = std::chrono::steady_clock::now();
    auto popped = queues.pop(1, long_wait);
    return std::make_pair(std::move(popped),
                          std::chrono::steady_clock::now() - start);
  });
  await_parked(queues, 1);
  // Shard 0's owner is not in pop() (busy serving): its job is fair game.
  ASSERT_TRUE(queues.try_push(0, 5));

  auto [stolen, waited] = sibling.get();
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->item, 5);
  EXPECT_TRUE(stolen->stolen);
  EXPECT_LT(waited, long_wait / 4);
  EXPECT_EQ(queues.depth(0), 0u);
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

TEST(FleetServer, ShutdownWithInflightWorkLosesNoRequests) {
  Rng rng(101);
  const Matrix a = uniform_matrix(48, 48, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(48, 48, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  FleetConfig config = small_fleet_config();
  config.inflight_window = 2;  // force queueing (and therefore stealing)
  FleetServer fleet(config);

  constexpr std::size_t kRequests = 32;
  std::vector<std::future<FleetResponse>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    FleetRequest req;
    req.request = gemm_request(a, b);
    auto submitted = fleet.submit(std::move(req));
    ASSERT_TRUE(submitted.ok()) << submitted.error().message;
    futures.push_back(std::move(*submitted));
  }
  // Immediate shutdown: queued and in-flight (possibly stolen) work must all
  // still resolve — drain semantics, not abandonment.
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
