// FaultController lifecycle tests: one-shot firing, disarm()/re-arm
// bookkeeping across back-to-back protected multiplies, the thread-scoped
// controller override used by the serving layer (also inside host tasks that
// batch calls enqueue), and fault-domain isolation across distinct Launchers
// (the fleet's per-device blast-radius contract).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "abft/aabft.hpp"
#include "core/rng.hpp"
#include "gpusim/fault_site.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace {

using namespace aabft::gpusim;
using aabft::Rng;
using aabft::abft::AabftConfig;
using aabft::abft::AabftMultiplier;
using aabft::abft::Operands;
using aabft::linalg::blocked_matmul;
using aabft::linalg::Matrix;
using aabft::linalg::naive_matmul;
using aabft::linalg::uniform_matrix;

FaultConfig deterministic_fault(int module_id = 0) {
  FaultConfig fault;  // block 0 always runs on SM 0; kFinalAdd fires at k = 0
  fault.site = FaultSite::kFinalAdd;
  fault.sm_id = 0;
  fault.module_id = module_id;
  fault.error_vec = 1ULL << 60;
  return fault;
}

TEST(FaultController, OneShotFiresExactlyOnceAcrossLaunches) {
  Rng rng(41);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);
  controller.arm(deterministic_fault());

  const Matrix faulty = blocked_matmul(launcher, a, b);
  EXPECT_EQ(controller.fired_count(), 1u);
  EXPECT_NE(faulty, ref);

  // Still armed, but the fault is spent: the next launch is pristine and
  // the fired bookkeeping does not move.
  const Matrix second = blocked_matmul(launcher, a, b);
  EXPECT_EQ(controller.fired_count(), 1u);
  EXPECT_EQ(second, ref);
  launcher.set_fault_controller(nullptr);
}

TEST(FaultController, DisarmAndRearmResetBookkeeping) {
  Rng rng(43);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  Launcher launcher;
  FaultController controller;
  launcher.set_fault_controller(&controller);

  controller.arm(deterministic_fault());
  (void)blocked_matmul(launcher, a, b);
  ASSERT_EQ(controller.fired_count(), 1u);

  // disarm() freezes the controller: no further fires, count preserved for
  // post-run inspection (the per-request pattern in the serving layer).
  controller.disarm();
  EXPECT_FALSE(controller.armed());
  EXPECT_EQ(blocked_matmul(launcher, a, b), ref);
  EXPECT_EQ(controller.fired_count(), 1u);

  // Re-arming resets the fired flags: the same coordinates fire again.
  std::vector<FaultConfig> plan = {deterministic_fault(0),
                                   deterministic_fault(1)};
  controller.arm_many(plan);
  EXPECT_TRUE(controller.armed());
  EXPECT_EQ(controller.armed_count(), 2u);
  EXPECT_EQ(controller.fired_count(), 0u);
  EXPECT_NE(blocked_matmul(launcher, a, b), ref);
  EXPECT_EQ(controller.fired_count(), 2u);
  launcher.set_fault_controller(nullptr);
}

TEST(FaultController, ScopedOverrideTakesPrecedenceAndRestores) {
  Rng rng(47);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  Launcher launcher;  // no controller attached to the launcher at all
  ASSERT_EQ(thread_fault_controller(), nullptr);

  FaultController scoped;
  scoped.arm(deterministic_fault());
  {
    ScopedFaultController guard(&scoped);
    EXPECT_EQ(thread_fault_controller(), &scoped);
    EXPECT_NE(blocked_matmul(launcher, a, b), ref);
    EXPECT_EQ(scoped.fired_count(), 1u);
  }
  // Override gone: back to the (absent) launcher-attached controller.
  EXPECT_EQ(thread_fault_controller(), nullptr);
  scoped.arm(deterministic_fault());  // armed again, but out of scope now
  EXPECT_EQ(blocked_matmul(launcher, a, b), ref);
  EXPECT_EQ(scoped.fired_count(), 0u);
  scoped.disarm();
}

TEST(FaultController, ScopedOverrideShadowsLauncherController) {
  Rng rng(53);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  Launcher launcher;
  FaultController attached;
  attached.arm(deterministic_fault());
  launcher.set_fault_controller(&attached);

  {
    // An armed per-request controller shadows the launcher-attached one for
    // launches from this thread.
    FaultController scoped;
    scoped.arm(deterministic_fault(1));
    ScopedFaultController guard(&scoped);
    EXPECT_NE(blocked_matmul(launcher, a, b), ref);
    EXPECT_EQ(scoped.fired_count(), 1u);
    EXPECT_EQ(attached.fired_count(), 0u) << "shadowed controller untouched";
  }
  // Scope ended: the launcher-attached controller applies again.
  EXPECT_NE(blocked_matmul(launcher, a, b), ref);
  EXPECT_EQ(attached.fired_count(), 1u);
  launcher.set_fault_controller(nullptr);
}

TEST(FaultController, ScopedFaultOnOneLauncherNeverFiresOnAnother) {
  // The fleet's failure-domain contract: device 0 and device 1 are distinct
  // Launchers with distinct worker pools, so a per-request fault armed (via
  // the thread-scoped override) around device 0's launches must be invisible
  // to concurrent launches on device 1 — device 1's results stay
  // bit-identical to the reference for the whole campaign.
  Rng rng(59);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  Launcher device0(k20c(), 2);
  Launcher device1(k20c(), 2);

  constexpr int kRounds = 24;
  int clean_rounds = 0;
  std::thread bystander([&] {
    for (int i = 0; i < kRounds; ++i)
      if (blocked_matmul(device1, a, b) == ref) ++clean_rounds;
  });

  std::size_t fired = 0;
  for (int i = 0; i < kRounds; ++i) {
    FaultController per_request;
    per_request.arm(deterministic_fault());
    {
      ScopedFaultController guard(&per_request);
      EXPECT_NE(blocked_matmul(device0, a, b), ref);
    }
    per_request.disarm();
    fired += per_request.fired_count();
  }
  bystander.join();

  EXPECT_EQ(fired, static_cast<std::size_t>(kRounds))
      << "every armed fault fired on device 0";
  EXPECT_EQ(clean_rounds, kRounds)
      << "device 1 observed a fault armed for device 0";
}

TEST(FaultController, AttachedControllerIsPerLauncher) {
  // A controller attached to one launcher is consulted only by that
  // launcher's launches; a sibling device with no controller stays pristine.
  Rng rng(61);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  Launcher device0(k20c(), 2);
  Launcher device1(k20c(), 2);
  FaultController attached;
  attached.arm(deterministic_fault());
  device0.set_fault_controller(&attached);

  EXPECT_EQ(blocked_matmul(device1, a, b), ref);
  EXPECT_EQ(attached.fired_count(), 0u)
      << "device 1 consulted device 0's controller";
  EXPECT_NE(blocked_matmul(device0, a, b), ref);
  EXPECT_EQ(attached.fired_count(), 1u);
  device0.set_fault_controller(nullptr);
}

TEST(FaultController, BatchHostTasksRunUnderTheCallersScopedController) {
  // A batch call runs each problem as a host task on a pool worker. The
  // caller's scoped controller must reach the launches inside those tasks,
  // exactly as it reaches multiply()'s, or a campaign that drives the batch
  // path under a scoped controller silently measures fault-free runs.
  Rng rng(67);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);

  Launcher launcher(k20c(), 2);
  AabftMultiplier mult(launcher, AabftConfig{});
  FaultController scoped;
  ScopedFaultController guard(&scoped);

  scoped.arm(deterministic_fault());
  const auto single = mult.multiply(a, b);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(scoped.fired_count(), 1u);
  EXPECT_TRUE(single->error_detected());

  scoped.arm(deterministic_fault());
  const std::vector<Operands> one = {{&a, &b}};
  const auto batch = mult.multiply_batch(one);
  ASSERT_TRUE(batch.front().ok());
  EXPECT_EQ(scoped.fired_count(), 1u) << "the batch dropped the fault";
  EXPECT_TRUE(batch.front()->error_detected());
  scoped.disarm();
}

TEST(FaultController, HostTaskOverrideIsTheEnqueuersOnly) {
  // With no override on the enqueuing thread, a host task that launches on a
  // different launcher (the sweep's per-cell launchers) consults that
  // launcher's attached controller. A task sees the override its enqueuer
  // had at enqueue time, and never one left behind by an earlier task.
  Rng rng(71);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  Launcher coordinator(k20c(), 2);
  Launcher cell(k20c(), 2);
  FaultController attached;
  attached.arm(deterministic_fault());
  cell.set_fault_controller(&attached);

  Stream lane = coordinator.create_stream();
  Matrix from_cell;
  coordinator.launch_host_async(
      lane, "cell", [&] { from_cell = blocked_matmul(cell, a, b); });
  FaultController scoped;
  FaultController* seen_scoped = nullptr;
  FaultController* seen_after = &scoped;
  {
    ScopedFaultController guard(&scoped);
    coordinator.launch_host_async(
        lane, "scoped", [&] { seen_scoped = thread_fault_controller(); });
  }
  coordinator.launch_host_async(
      lane, "after", [&] { seen_after = thread_fault_controller(); });
  lane.synchronize();

  EXPECT_NE(from_cell, ref);
  EXPECT_EQ(attached.fired_count(), 1u);
  EXPECT_EQ(seen_scoped, &scoped);
  EXPECT_EQ(seen_after, nullptr);
  cell.set_fault_controller(nullptr);
}

}  // namespace
