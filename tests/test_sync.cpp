// Lock-rank validator tests (core/sync.hpp, DESIGN.md §11): a seeded
// two-mutex rank inversion must abort with LockOrderError naming both locks;
// recursive acquisition is an inversion too; try_lock and RAII guards must
// keep the per-thread held stack balanced on every path; and one real
// FleetServer soak iteration — feeders, collectors, a forced device failure
// with replay — must complete without a single ordering violation, ending
// every thread's held stack at zero.
#include <gtest/gtest.h>

#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "core/sync.hpp"
#include "fleet/fleet_server.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace {

using aabft::Rng;
using aabft::core::CondVar;
using aabft::core::held_lock_count;
using aabft::core::held_lock_names;
using aabft::core::LockOrderError;
using aabft::core::LockRank;
using aabft::core::Mutex;
using aabft::core::MutexLock;
using aabft::core::UniqueLock;
using aabft::linalg::Matrix;
using aabft::linalg::naive_matmul;
using aabft::linalg::uniform_matrix;
namespace fleet = aabft::fleet;
namespace serve = aabft::serve;

// ---- validator unit tests --------------------------------------------------

TEST(LockRank, InOrderAcquisitionIsClean) {
  Mutex low(LockRank::kFleetControl, "test.low");
  Mutex high(LockRank::kServeQueue, "test.high");
  EXPECT_EQ(held_lock_count(), 0u);
  {
    MutexLock outer(low);
    EXPECT_EQ(held_lock_count(), 1u);
    MutexLock inner(high);
    EXPECT_EQ(held_lock_count(), 2u);
    const auto names = held_lock_names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "test.low");
    EXPECT_EQ(names[1], "test.high");
  }
  EXPECT_EQ(held_lock_count(), 0u);
}

TEST(LockRank, SeededInversionThrowsNamingBothLocks) {
  Mutex low(LockRank::kFleetControl, "test.seeded_low");
  Mutex high(LockRank::kServeQueue, "test.seeded_high");
  MutexLock outer(high);  // acquire the *higher* rank first...
  try {
    MutexLock inner(low);  // ...then the lower: rank inversion
    FAIL() << "rank inversion was not detected";
  } catch (const LockOrderError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test.seeded_low"), std::string::npos) << what;
    EXPECT_NE(what.find("test.seeded_high"), std::string::npos) << what;
  }
  // The throwing acquisition must not have been recorded.
  EXPECT_EQ(held_lock_count(), 1u);
}

TEST(LockRank, RecursiveAcquisitionIsAnInversion) {
  Mutex mu(LockRank::kServeStats, "test.recursive");
  MutexLock outer(mu);
  EXPECT_THROW(mu.lock(), LockOrderError);  // same rank: strictness rejects it
  EXPECT_EQ(held_lock_count(), 1u);
}

TEST(LockRank, FailedTryLockLeavesStackBalanced) {
  // ready_mu outranks mu: the holder thread nests ready_mu inside mu.
  Mutex mu(LockRank::kServeQueue, "test.trylock");
  std::thread holder;
  Mutex ready_mu(LockRank::kServeStats, "test.trylock_ready");
  CondVar ready_cv;
  bool locked = false, release = false;
  holder = std::thread([&] {
    MutexLock lk(mu);
    {
      UniqueLock rl(ready_mu);
      locked = true;
      ready_cv.notify_all();
      while (!release) ready_cv.wait(rl);
    }
  });
  {
    UniqueLock rl(ready_mu);
    while (!locked) ready_cv.wait(rl);
  }
  EXPECT_FALSE(mu.try_lock());  // contended: must fail *and* unwind its note
  EXPECT_EQ(held_lock_count(), 0u);
  {
    UniqueLock rl(ready_mu);
    release = true;
    ready_cv.notify_all();
  }
  holder.join();
  ASSERT_TRUE(mu.try_lock());  // uncontended: succeeds and records
  EXPECT_EQ(held_lock_count(), 1u);
  mu.unlock();
  EXPECT_EQ(held_lock_count(), 0u);
}

TEST(LockRank, UniqueLockManualUnlockRelock) {
  Mutex mu(LockRank::kDeviceTask, "test.unique");
  UniqueLock lk(mu);
  EXPECT_TRUE(lk.owns_lock());
  EXPECT_EQ(held_lock_count(), 1u);
  lk.unlock();
  EXPECT_FALSE(lk.owns_lock());
  EXPECT_EQ(held_lock_count(), 0u);
  lk.lock();
  EXPECT_EQ(held_lock_count(), 1u);
}

// ---- clean ordering over a real fleet soak iteration -----------------------

// One full FleetServer lifecycle under the always-on validator: concurrent
// submissions, work stealing, a forced mid-run device failure (replay +
// operand reconstruction), stop() with its cross-subsystem lock nesting
// (fleet stop -> shard-queue close -> serve stop -> pause -> queue). Any
// rank inversion anywhere in that machinery throws LockOrderError: out of a
// worker thread, which aborts the test, or out of a scheme call, which the
// server's recovery ladder takes as a failed rung, so every response must
// come from the first pass (rung kNone). A clean run ends with this thread
// holding nothing.
TEST(LockRank, FleetSoakIterationHasCleanOrdering) {
  Rng rng(29);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  fleet::FleetConfig config;
  config.devices = 3;
  config.workers_per_device = 2;
  fleet::FleetServer fleet_server(config);
  const std::uint64_t a_handle = fleet_server.register_operand(a);

  std::vector<std::future<fleet::FleetResponse>> futures;
  for (int i = 0; i < 16; ++i) {
    fleet::FleetRequest req;
    req.request.kind = aabft::baselines::OpKind::kGemm;
    req.request.b = b;
    req.a_handle = a_handle;  // exercise the operand store on every request
    auto submitted = fleet_server.submit(std::move(req));
    ASSERT_TRUE(submitted.ok()) << submitted.error().message;
    futures.push_back(std::move(*submitted));
    if (i == 7) fleet_server.force_fail(0);  // fence mid-traffic
  }
  for (auto& fut : futures) {
    const fleet::FleetResponse resp = fut.get();
    EXPECT_EQ(resp.response.status, serve::ResponseStatus::kOk);
    EXPECT_EQ(resp.response.rung, serve::RecoveryRung::kNone);
    EXPECT_EQ(resp.response.c, ref);
  }
  fleet_server.stop();  // the deepest lock nesting in the tree
  EXPECT_EQ(held_lock_count(), 0u);
  EXPECT_TRUE(held_lock_names().empty());
}

}  // namespace
