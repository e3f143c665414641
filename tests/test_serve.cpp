// GemmServer end-to-end tests: admission control, priority dispatch,
// cross-request batching, per-request fault plans, the recovery ladder, and
// the non-GEMM request kinds (SYRK, Cholesky, LU) of the ProtectedBlas3 API;
// plus unit tests of the request queue's batch pop.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "abft/blas3.hpp"
#include "abft/protected_lu.hpp"
#include "baselines/op.hpp"
#include "core/result.hpp"
#include "core/rng.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"
#include "serve/recovery.hpp"
#include "serve/server.hpp"

namespace {

using namespace aabft;
using namespace aabft::serve;
using gpusim::FaultConfig;
using gpusim::FaultSite;
using gpusim::Launcher;
using linalg::Matrix;
using linalg::naive_matmul;
using linalg::uniform_matrix;

GemmRequest make_request(const Matrix& a, const Matrix& b,
                         Priority priority = Priority::kNormal) {
  GemmRequest request;
  request.a = a;
  request.b = b;
  request.priority = priority;
  return request;
}

GemmRequest make_op_request(OpKind kind, const Matrix& a) {
  GemmRequest request;
  request.kind = kind;
  request.a = a;
  return request;
}

/// Well-conditioned SPD matrix: M M^T + n I.
Matrix spd_matrix(std::size_t n, Rng& rng) {
  const Matrix m = uniform_matrix(n, n, -1.0, 1.0, rng);
  Matrix a = naive_matmul(m, m.transposed(), false);
  for (std::size_t i = 0; i < n; ++i)
    a(i, i) += static_cast<double>(n);
  return a;
}

double chol_residual(const Matrix& a, const Matrix& l) {
  abft::CholResult chol;
  chol.l = l;
  return abft::ProtectedCholesky::residual(a, chol);
}

void expect_monotone(const RequestTrace& t) {
  EXPECT_LE(t.enqueue_ns, t.dispatch_ns);
  EXPECT_LE(t.dispatch_ns, t.compute_ns);
  EXPECT_LE(t.compute_ns, t.repair_ns);
  EXPECT_LE(t.repair_ns, t.complete_ns);
}

TEST(Serve, SingleRequestIsBitIdenticalAndTraced) {
  Launcher launcher;
  GemmServer server(launcher);
  Rng rng(7);
  // Non-block-multiple extents exercise the pad -> multiply -> unpad path.
  const Matrix a = uniform_matrix(48, 40, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(40, 56, -1.0, 1.0, rng);

  auto admitted = server.submit(make_request(a, b));
  ASSERT_TRUE(admitted.ok()) << admitted.error().message;
  const GemmResponse response = admitted->get();

  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_TRUE(response.clean);
  EXPECT_EQ(response.rung, RecoveryRung::kNone);
  EXPECT_GT(response.id, 0u);
  EXPECT_EQ(response.c, naive_matmul(a, b, false));
  expect_monotone(response.trace);
  EXPECT_FALSE(response.trace.detected);
  EXPECT_EQ(response.trace.batch_size, 1u);
  EXPECT_GE(response.trace.queue_depth_at_admission, 1u);

  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.e2e_ns.count(), 1u);
}

TEST(Serve, AdmissionRejectsBadShapesAsValues) {
  Launcher launcher;
  GemmServer server(launcher);
  Rng rng(3);
  const Matrix a = uniform_matrix(8, 4, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(5, 7, -1.0, 1.0, rng);

  auto mismatched = server.submit(make_request(a, b));
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.error().code, ErrorCode::kShapeMismatch);

  GemmRequest empty;
  auto rejected = server.submit(std::move(empty));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, ErrorCode::kInvalidArgument);

  EXPECT_EQ(server.stats().rejected_shape, 2u);
  EXPECT_EQ(server.stats().admitted, 0u);
}

TEST(Serve, AdmissionRejectsWhenQueueIsFull) {
  Launcher launcher;
  ServeConfig config;
  config.admission.queue_capacity = 4;
  config.start_paused = true;
  GemmServer server(launcher, config);
  Rng rng(11);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);

  std::vector<std::future<GemmResponse>> pending;
  for (int i = 0; i < 4; ++i) {
    auto admitted = server.submit(make_request(a, b));
    ASSERT_TRUE(admitted.ok()) << admitted.error().message;
    pending.push_back(std::move(*admitted));
  }
  auto overflow = server.submit(make_request(a, b));
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.error().code, ErrorCode::kOverloaded);
  EXPECT_EQ(server.stats().rejected_queue_full, 1u);

  server.resume();
  for (auto& f : pending) EXPECT_TRUE(f.get().clean);
}

TEST(Serve, AdmissionRejectsInfeasibleDeadlines) {
  Launcher launcher;
  ServeConfig config;
  config.admission.est_ns_per_flop = 1e9;  // absurd cost model on purpose
  GemmServer server(launcher, config);
  Rng rng(13);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);

  GemmRequest request = make_request(a, b);
  request.deadline_ms = 1.0;
  auto rejected = server.submit(std::move(request));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, ErrorCode::kDeadlineInfeasible);
  EXPECT_EQ(server.stats().rejected_deadline, 1u);

  // Without a deadline the same request sails through the same cost model.
  auto admitted = server.submit(make_request(a, b));
  ASSERT_TRUE(admitted.ok());
  EXPECT_TRUE(admitted->get().clean);
}

TEST(Serve, HighPriorityDispatchesFirst) {
  Launcher launcher;
  ServeConfig config;
  config.start_paused = true;
  GemmServer server(launcher, config);
  Rng rng(17);
  // Distinct shapes so no batch pop can coalesce them.
  const Matrix a1 = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b1 = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix a2 = uniform_matrix(33, 32, -1.0, 1.0, rng);
  const Matrix b2 = uniform_matrix(32, 33, -1.0, 1.0, rng);
  const Matrix a3 = uniform_matrix(48, 32, -1.0, 1.0, rng);
  const Matrix b3 = uniform_matrix(32, 48, -1.0, 1.0, rng);

  auto batch = server.submit(make_request(a1, b1, Priority::kBatch));
  auto normal = server.submit(make_request(a2, b2, Priority::kNormal));
  auto high = server.submit(make_request(a3, b3, Priority::kHigh));
  ASSERT_TRUE(batch.ok() && normal.ok() && high.ok());
  server.resume();

  const GemmResponse r_high = high->get();
  const GemmResponse r_normal = normal->get();
  const GemmResponse r_batch = batch->get();
  EXPECT_LE(r_high.trace.dispatch_ns, r_normal.trace.dispatch_ns);
  EXPECT_LE(r_normal.trace.dispatch_ns, r_batch.trace.dispatch_ns);
}

TEST(Serve, BatchingCoalescesShapeCompatibleRequests) {
  Launcher launcher;
  ServeConfig config;
  config.start_paused = true;
  config.batch.max_batch = 8;
  GemmServer server(launcher, config);
  Rng rng(19);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix odd_a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix odd_b = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  std::vector<std::future<GemmResponse>> same;
  for (int i = 0; i < 4; ++i) {
    auto admitted = server.submit(make_request(a, b));
    ASSERT_TRUE(admitted.ok());
    same.push_back(std::move(*admitted));
  }
  auto odd = server.submit(make_request(odd_a, odd_b));
  ASSERT_TRUE(odd.ok());
  server.resume();

  for (auto& f : same) {
    const GemmResponse response = f.get();
    EXPECT_TRUE(response.clean);
    EXPECT_EQ(response.trace.batch_size, 4u) << "same-shape requests coalesce";
    EXPECT_EQ(response.c, ref) << "batched result bit-identical";
  }
  EXPECT_EQ(odd->get().trace.batch_size, 1u);

  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.batched_requests, 4u);
  EXPECT_EQ(stats.max_batch, 4u);
}

TEST(Serve, FaultedRequestIsRepairedClean) {
  Launcher launcher;
  GemmServer server(launcher);
  Rng rng(23);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  GemmRequest request = make_request(a, b);
  FaultConfig fault;  // deterministic: block 0 runs on SM 0, module 0, k = 0
  fault.site = FaultSite::kFinalAdd;
  fault.sm_id = 0;
  fault.module_id = 0;
  fault.error_vec = 1ULL << 60;
  request.fault_plan = {fault};
  auto admitted = server.submit(std::move(request));
  ASSERT_TRUE(admitted.ok());
  const GemmResponse response = admitted->get();

  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_TRUE(response.clean);
  EXPECT_EQ(response.trace.faults_armed, 1u);
  EXPECT_EQ(response.trace.faults_fired, 1u);
  EXPECT_TRUE(response.trace.detected);
  EXPECT_EQ(response.trace.full_recomputes, 0u)
      << "single-fault damage must be repaired below the full-recompute rung";
  expect_monotone(response.trace);
  if (response.trace.corrections == 0) {
    EXPECT_EQ(response.c, ref);
  } else {
    for (std::size_t i = 0; i < ref.rows(); ++i)
      for (std::size_t j = 0; j < ref.cols(); ++j)
        EXPECT_NEAR(response.c(i, j), ref(i, j),
                    1e-9 * std::max(1.0, std::abs(ref(i, j))));
  }

  // The one-shot fault is consumed: a follow-up request on the same server
  // is pristine.
  auto again = server.submit(make_request(a, b));
  ASSERT_TRUE(again.ok());
  const GemmResponse clean = again->get();
  EXPECT_FALSE(clean.trace.detected);
  EXPECT_EQ(clean.c, ref);
}

TEST(Serve, UnlocalisableFaultsTakeTheBlockRecomputeRung) {
  Launcher launcher;
  GemmServer server(launcher);
  Rng rng(29);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  // Two corrupted elements in one checksum block defeat single-error
  // localisation; the serving config's per-block recompute rung repairs the
  // block bit-exactly without a full re-execution (cf. test_recompute.cpp,
  // where the classic ladder must fall back to a full recompute).
  GemmRequest request = make_request(a, b);
  std::vector<FaultConfig> faults(2);
  faults[0].site = FaultSite::kFinalAdd;
  faults[0].sm_id = 0;
  faults[0].module_id = 0;
  faults[0].error_vec = 1ULL << 60;
  faults[1] = faults[0];
  faults[1].module_id = 1;
  request.fault_plan = faults;
  auto admitted = server.submit(std::move(request));
  ASSERT_TRUE(admitted.ok());
  const GemmResponse response = admitted->get();

  EXPECT_TRUE(response.clean);
  EXPECT_EQ(response.trace.faults_fired, 2u);
  EXPECT_EQ(response.rung, RecoveryRung::kBlockRecompute);
  EXPECT_GE(response.trace.block_recomputes, 1u);
  EXPECT_EQ(response.trace.full_recomputes, 0u);
  EXPECT_EQ(response.trace.corrections, 0u);
  EXPECT_EQ(response.c, ref) << "block recompute is bit-exact";
}

TEST(Serve, PanelChecksDetectAndRepairInFlight) {
  Launcher launcher;
  GemmServer server(launcher);  // default_aabft: fused online checking on
  Rng rng(53);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  // An inner-loop fault lands inside a k-panel of the fused kernel; the
  // online panel screen must catch it mid-product and replay the tile, so
  // the final verify sees a clean product (earliest ladder rung).
  GemmRequest request = make_request(a, b);
  FaultConfig fault;  // deterministic: tile 0 runs on SM 0
  fault.site = FaultSite::kInnerAdd;
  fault.sm_id = 0;
  fault.module_id = 3;
  fault.k_injection = 7;
  fault.error_vec = 1ULL << 62;
  request.fault_plan = {fault};
  auto admitted = server.submit(std::move(request));
  ASSERT_TRUE(admitted.ok());
  const GemmResponse response = admitted->get();

  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_TRUE(response.clean);
  EXPECT_EQ(response.trace.faults_fired, 1u);
  EXPECT_GE(response.trace.panel_detections, 1u);
  EXPECT_GE(response.trace.panel_recomputes, 1u);
  EXPECT_EQ(response.rung, RecoveryRung::kPanelRecompute);
  EXPECT_EQ(std::string_view(to_string(response.rung)), "panel-recompute");
  EXPECT_EQ(response.trace.corrections, 0u)
      << "panel replay repairs before the final check needs to patch";
  EXPECT_EQ(response.trace.full_recomputes, 0u);
  EXPECT_EQ(response.c, ref) << "panel replay is bit-exact";
  expect_monotone(response.trace);

  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.panel_detections, 1u);
}

// ---- non-GEMM request kinds ------------------------------------------------

TEST(Serve, SyrkRequestIsBitIdentical) {
  Launcher launcher;
  GemmServer server(launcher);
  Rng rng(37);
  const Matrix a = uniform_matrix(48, 40, -1.0, 1.0, rng);  // pads internally
  const Matrix ref = naive_matmul(a, a.transposed(), false);

  auto admitted = server.submit(make_op_request(OpKind::kSyrk, a));
  ASSERT_TRUE(admitted.ok()) << admitted.error().message;
  const GemmResponse response = admitted->get();

  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_TRUE(response.clean);
  EXPECT_EQ(response.kind, OpKind::kSyrk);
  EXPECT_EQ(response.c, ref);
  expect_monotone(response.trace);

  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed_by_kind[static_cast<std::size_t>(OpKind::kSyrk)],
            1u);
}

TEST(Serve, CholeskyRequestFactorsSpdInput) {
  Launcher launcher;
  GemmServer server(launcher);
  Rng rng(41);
  const Matrix a = spd_matrix(64, rng);

  auto admitted = server.submit(make_op_request(OpKind::kCholesky, a));
  ASSERT_TRUE(admitted.ok()) << admitted.error().message;
  const GemmResponse response = admitted->get();

  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_TRUE(response.clean);
  EXPECT_EQ(response.kind, OpKind::kCholesky);
  ASSERT_EQ(response.c.rows(), 64u);
  ASSERT_EQ(response.c.cols(), 64u);
  for (std::size_t i = 0; i < 64; ++i)
    for (std::size_t j = i + 1; j < 64; ++j)
      EXPECT_EQ(response.c(i, j), 0.0) << "L is lower triangular";
  EXPECT_LE(chol_residual(a, response.c), 1e-9);

  server.stop();
  EXPECT_EQ(server.stats().completed_by_kind[static_cast<std::size_t>(
                OpKind::kCholesky)],
            1u);
}

TEST(Serve, LuRequestFactorsWithPivoting) {
  Launcher launcher;
  GemmServer server(launcher);
  Rng rng(43);
  const std::size_t n = 64;
  Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  for (std::size_t i = 0; i < n; ++i)
    a(i, i) += static_cast<double>(n);  // well conditioned

  auto admitted = server.submit(make_op_request(OpKind::kLu, a));
  ASSERT_TRUE(admitted.ok()) << admitted.error().message;
  const GemmResponse response = admitted->get();

  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_TRUE(response.clean);
  EXPECT_EQ(response.kind, OpKind::kLu);
  ASSERT_EQ(response.perm.size(), n);
  std::vector<std::size_t> sorted = response.perm;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(sorted[i], i) << "perm is a permutation of 0..n-1";

  abft::LuResult lu;
  lu.lu = response.c;
  lu.perm = response.perm;
  EXPECT_LE(abft::ProtectedLu::residual(a, lu), 1e-9);
}

TEST(Serve, AdmissionRejectsRectangularFactorizations) {
  Launcher launcher;
  GemmServer server(launcher);
  Rng rng(47);
  const Matrix rect = uniform_matrix(8, 4, -1.0, 1.0, rng);

  auto chol = server.submit(make_op_request(OpKind::kCholesky, rect));
  ASSERT_FALSE(chol.ok());
  EXPECT_EQ(chol.error().code, ErrorCode::kShapeMismatch);
  auto lu = server.submit(make_op_request(OpKind::kLu, rect));
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.error().code, ErrorCode::kShapeMismatch);
  EXPECT_EQ(server.stats().rejected_shape, 2u);
}

TEST(Serve, BatchKeySeparatesOpKinds) {
  // A 64x64 SYRK and a 64x64x64 GEMM share extents but not a compute
  // pipeline; the batch key (which includes the op kind) must keep them in
  // separate dispatches.
  Launcher launcher;
  ServeConfig config;
  config.start_paused = true;
  config.batch.max_batch = 8;
  GemmServer server(launcher, config);
  Rng rng(53);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);

  auto g1 = server.submit(make_request(a, b));
  auto g2 = server.submit(make_request(a, b));
  auto s1 = server.submit(make_op_request(OpKind::kSyrk, a));
  auto s2 = server.submit(make_op_request(OpKind::kSyrk, a));
  ASSERT_TRUE(g1.ok() && g2.ok() && s1.ok() && s2.ok());
  server.resume();

  EXPECT_EQ(g1->get().trace.batch_size, 2u);
  EXPECT_EQ(g2->get().trace.batch_size, 2u);
  const GemmResponse r1 = s1->get();
  const GemmResponse r2 = s2->get();
  EXPECT_EQ(r1.trace.batch_size, 2u) << "same-kind SYRKs coalesce";
  EXPECT_EQ(r1.c, naive_matmul(a, a.transposed(), false));
  EXPECT_EQ(r2.c, r1.c);

  server.stop();
  EXPECT_EQ(server.stats().batches, 2u);
}

TEST(Serve, FaultedSyrkIsRepairedClean) {
  Launcher launcher;
  GemmServer server(launcher);
  Rng rng(59);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, a.transposed(), false);

  GemmRequest request = make_op_request(OpKind::kSyrk, a);
  FaultConfig fault;  // deterministic: block 0 runs on SM 0, module 0, k = 0
  fault.site = FaultSite::kFinalAdd;
  fault.sm_id = 0;
  fault.module_id = 0;
  fault.error_vec = 1ULL << 60;
  request.fault_plan = {fault};
  auto admitted = server.submit(std::move(request));
  ASSERT_TRUE(admitted.ok());
  const GemmResponse response = admitted->get();

  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_TRUE(response.clean);
  EXPECT_EQ(response.trace.faults_fired, 1u);
  EXPECT_TRUE(response.trace.detected);
  EXPECT_EQ(response.trace.full_recomputes, 0u);
  if (response.trace.corrections == 0) {
    EXPECT_EQ(response.c, ref);
  } else {
    for (std::size_t i = 0; i < ref.rows(); ++i)
      for (std::size_t j = 0; j < ref.cols(); ++j)
        EXPECT_NEAR(response.c(i, j), ref(i, j),
                    1e-9 * std::max(1.0, std::abs(ref(i, j))));
  }
}

TEST(Serve, FaultedCholeskyIsRepairedClean) {
  Launcher launcher;
  GemmServer server(launcher);
  Rng rng(61);
  const std::size_t n = 64;
  const Matrix a = spd_matrix(n, rng);

  // The fault lands in the first protected trailing update (the 32x32
  // A22 -= L21 L21^T SYRK at panel 0): the scheme must detect and repair it
  // inside the factorisation, never in the served factors.
  GemmRequest request = make_op_request(OpKind::kCholesky, a);
  FaultConfig fault;
  fault.site = FaultSite::kFinalAdd;
  fault.sm_id = 0;
  fault.module_id = 0;
  fault.error_vec = 1ULL << 60;
  request.fault_plan = {fault};
  auto admitted = server.submit(std::move(request));
  ASSERT_TRUE(admitted.ok());
  const GemmResponse response = admitted->get();

  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_TRUE(response.clean);
  EXPECT_EQ(response.trace.faults_fired, 1u);
  EXPECT_TRUE(response.trace.detected);
  EXPECT_EQ(response.trace.full_recomputes, 0u)
      << "single-fault damage must be repaired below the full-recompute rung";
  EXPECT_LE(chol_residual(a, response.c), 1e-9);
}

TEST(Serve, ThrowingKernelsFailRungsNotTheServer) {
  // A 128-deep fused k-panel stages 33 x 128 x 2 doubles (67.6 KB), more than
  // the K20C's 48 KB of shared memory per block, so every primary GEMM throws
  // at launch. Each throw is a failed rung: the TMR rung, on the blocked
  // GEMM, answers every request of the batch, and the server lives on.
  Launcher launcher;
  ServeConfig config;
  config.aabft.fused.bk = 128;
  config.start_paused = true;  // queue the requests into one batch
  GemmServer server(launcher, config);
  Rng rng(83);
  const Matrix a = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(64, 64, -1.0, 1.0, rng);
  const Matrix reference =
      linalg::blocked_matmul(launcher, a, b, config.aabft.gemm);

  std::vector<std::future<GemmResponse>> pending;
  for (int i = 0; i < 3; ++i) {
    auto admitted = server.submit(make_request(a, b));
    ASSERT_TRUE(admitted.ok());
    pending.push_back(std::move(*admitted));
  }
  server.resume();
  for (auto& f : pending) {
    const GemmResponse response = f.get();
    EXPECT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_EQ(response.rung, RecoveryRung::kTmr);
    EXPECT_EQ(response.trace.retries, 1u);
    EXPECT_EQ(response.trace.batch_size, 3u);
    EXPECT_EQ(response.c, reference);
  }
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.tmr_escalations, 3u);
}

TEST(Serve, StopDrainsQueuedRequests) {
  Launcher launcher;
  ServeConfig config;
  config.start_paused = true;
  GemmServer server(launcher, config);
  Rng rng(31);
  const Matrix a = uniform_matrix(32, 32, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(32, 32, -1.0, 1.0, rng);

  std::vector<std::future<GemmResponse>> pending;
  for (int i = 0; i < 6; ++i) {
    auto admitted = server.submit(make_request(a, b));
    ASSERT_TRUE(admitted.ok());
    pending.push_back(std::move(*admitted));
  }
  server.stop();  // must serve the backlog before joining
  for (auto& f : pending) EXPECT_TRUE(f.get().clean);
  EXPECT_EQ(server.stats().completed, 6u);

  // Post-stop submissions are refused as overload.
  auto late = server.submit(make_request(a, b));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error().code, ErrorCode::kOverloaded);
}

// ---- pop_batch unit tests (no launcher) -----------------------------------

/// A queued request carrying only what the queue reads: its priority and
/// its batch key (op kind, padded extents, operand-cache handle).
PendingRequest queued(std::uint64_t id, Priority priority, std::size_t n,
                      OpKind kind = OpKind::kGemm, std::uint64_t handle = 0) {
  PendingRequest item;
  item.request.id = id;
  item.request.priority = priority;
  item.desc = {kind, n, n, n};
  item.a_handle = handle;
  return item;
}

std::vector<std::uint64_t> ids_of(const std::vector<PendingRequest>& batch) {
  std::vector<std::uint64_t> ids;
  for (const auto& item : batch) ids.push_back(item.request.id);
  return ids;
}

TEST(RequestQueue, PopBatchTakesTheHeadsKeyInPriorityThenFifoOrder) {
  BoundedRequestQueue queue(16);
  ASSERT_TRUE(queue.try_push(queued(1, Priority::kNormal, 32)));
  ASSERT_TRUE(queue.try_push(queued(2, Priority::kBatch, 32)));
  ASSERT_TRUE(queue.try_push(queued(3, Priority::kHigh, 64)));
  ASSERT_TRUE(queue.try_push(queued(4, Priority::kNormal, 64)));
  ASSERT_TRUE(queue.try_push(queued(5, Priority::kHigh, 32)));
  ASSERT_TRUE(queue.try_push(queued(6, Priority::kBatch, 64)));
  ASSERT_TRUE(queue.try_push(queued(7, Priority::kNormal, 32)));

  // The head is the oldest high-priority request; its companions follow in
  // priority order, FIFO within a class.
  EXPECT_EQ(ids_of(queue.pop_batch(8)), (std::vector<std::uint64_t>{3, 4, 6}));
  EXPECT_EQ(queue.depth(), 4u);
  EXPECT_EQ(ids_of(queue.pop_batch(8)),
            (std::vector<std::uint64_t>{5, 1, 7, 2}));
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(RequestQueue, PopBatchRespectsTheCapAndLeavesOtherKeysQueued) {
  BoundedRequestQueue queue(16);
  const auto normal = Priority::kNormal;
  ASSERT_TRUE(queue.try_push(queued(1, normal, 32)));
  ASSERT_TRUE(queue.try_push(queued(2, normal, 32, OpKind::kSyrk)));
  ASSERT_TRUE(queue.try_push(queued(3, normal, 32)));
  ASSERT_TRUE(queue.try_push(queued(4, normal, 32, OpKind::kGemm, 7)));
  for (std::uint64_t id = 5; id <= 7; ++id)
    ASSERT_TRUE(queue.try_push(queued(id, normal, 32)));

  EXPECT_EQ(ids_of(queue.pop_batch(3)), (std::vector<std::uint64_t>{1, 3, 5}));
  EXPECT_EQ(queue.depth(), 4u);
  // Another kind, or another cached A, is another batch.
  EXPECT_EQ(ids_of(queue.pop_batch(3)), (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(ids_of(queue.pop_batch(3)), (std::vector<std::uint64_t>{4}));
  // A cap of 1 disables batching.
  EXPECT_EQ(ids_of(queue.pop_batch(1)), (std::vector<std::uint64_t>{6}));
  EXPECT_EQ(ids_of(queue.pop_batch(3)), (std::vector<std::uint64_t>{7}));
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(RequestQueue, ClosedAndDrainedQueueReturnsAnEmptyBatch) {
  BoundedRequestQueue queue(4);
  std::vector<PendingRequest> woken(1);  // emptied only by the pop
  std::thread waiter([&] { woken = queue.pop_batch(8); });
  queue.close();  // wakes the pop blocked on the empty queue
  waiter.join();
  EXPECT_TRUE(woken.empty());

  BoundedRequestQueue draining(4);
  ASSERT_TRUE(draining.try_push(queued(1, Priority::kNormal, 32)));
  draining.close();
  EXPECT_FALSE(draining.try_push(queued(2, Priority::kNormal, 32)));
  EXPECT_EQ(ids_of(draining.pop_batch(8)), (std::vector<std::uint64_t>{1}));
  EXPECT_TRUE(draining.pop_batch(8).empty());
}

TEST(RequestQueue, LoneRequestComesBackAtOnce) {
  // The dispatcher serves each batch to completion before it pops again, so
  // a pop that waited for companions would hold a lone request while every
  // worker idled. A lone queued request must come straight back.
  BoundedRequestQueue queue(4);
  std::vector<double> pop_us;
  for (std::uint64_t id = 1; id <= 20; ++id) {
    ASSERT_TRUE(queue.try_push(queued(id, Priority::kNormal, 32)));
    const auto start = std::chrono::steady_clock::now();
    const auto batch = queue.pop_batch(8);
    pop_us.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    ASSERT_EQ(ids_of(batch), (std::vector<std::uint64_t>{id}));
  }
  std::nth_element(pop_us.begin(), pop_us.begin() + 10, pop_us.end());
  EXPECT_LT(pop_us[10], 100.0) << "median lone pop in microseconds";
}

// ---- recovery-ladder unit tests (fake schemes, no launcher) ---------------

class FakeScheme final : public baselines::ProtectedBlas3 {
 public:
  FakeScheme(std::string_view name, int clean_after,
             bool factorizations = true)
      : name_(name), clean_after_(clean_after),
        factorizations_(factorizations) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  [[nodiscard]] bool supports(baselines::OpKind kind) const noexcept override {
    return factorizations_ || kind == baselines::OpKind::kGemm;
  }
  [[nodiscard]] Result<baselines::OpOutcome> execute(
      const baselines::OpDescriptor& desc, const Matrix& a,
      const Matrix&) override {
    if (!supports(desc.kind))
      return unsupported_op_error("fake scheme: unsupported kind");
    ++calls;
    last_kind = desc.kind;
    baselines::OpOutcome result;
    result.c = a;
    result.detected = true;
    result.clean = calls > clean_after_;
    return result;
  }
  int calls = 0;
  baselines::OpKind last_kind = baselines::OpKind::kGemm;

 private:
  std::string_view name_;
  int clean_after_;
  bool factorizations_;
};

/// A scheme whose every execute throws, as a kernel that cannot launch does.
class ThrowingScheme final : public baselines::ProtectedBlas3 {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "throwing";
  }
  [[nodiscard]] Result<baselines::OpOutcome> execute(
      const baselines::OpDescriptor&, const Matrix&, const Matrix&) override {
    ++calls;
    throw std::runtime_error("kernel exceeds the device's shared memory");
  }
  int calls = 0;
};

const baselines::OpDescriptor kFakeDesc = baselines::OpDescriptor::gemm(2, 2, 2);

TEST(RecoveryLadder, RetrySettlesTransientFailures) {
  FakeScheme primary("fake", /*clean_after=*/1);  // first call unclean
  const Matrix a(2, 2, 1.0);
  RecoveryPolicy policy;  // retry_budget = 1
  auto outcome = run_ladder(primary, nullptr, kFakeDesc, a, a,
                            primary.execute(kFakeDesc, a, a), policy);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.rung, RecoveryRung::kRetry);
  EXPECT_EQ(outcome.retries, 1u);
  EXPECT_FALSE(outcome.tmr_escalated);
}

TEST(RecoveryLadder, EscalatesToTmrWhenRetriesExhaust) {
  FakeScheme primary("fake", /*clean_after=*/100);  // never clean
  FakeScheme tmr("fake-tmr", /*clean_after=*/0);    // always clean
  const Matrix a(2, 2, 1.0);
  RecoveryPolicy policy;
  auto outcome = run_ladder(primary, &tmr, kFakeDesc, a, a,
                            primary.execute(kFakeDesc, a, a), policy);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.rung, RecoveryRung::kTmr);
  EXPECT_EQ(outcome.retries, 1u);
  EXPECT_TRUE(outcome.tmr_escalated);
  EXPECT_EQ(tmr.calls, 1);
}

TEST(RecoveryLadder, ThrowingRetryIsAFailedRung) {
  ThrowingScheme primary;
  FakeScheme tmr("fake-tmr", /*clean_after=*/0);  // always clean
  const Matrix a(2, 2, 1.0);
  const Error first{ErrorCode::kExecutionFailed, "first pass threw"};
  RecoveryPolicy policy;  // retry_budget = 1
  auto outcome = run_ladder(primary, &tmr, kFakeDesc, a, a, first, policy);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.rung, RecoveryRung::kTmr);
  EXPECT_EQ(outcome.retries, 1u);
  EXPECT_EQ(primary.calls, 1);
  EXPECT_EQ(tmr.calls, 1);

  // A TMR rung that throws too exhausts the ladder; the diagnosis is the
  // exception's message.
  ThrowingScheme throwing_tmr;
  auto failed =
      run_ladder(primary, &throwing_tmr, kFakeDesc, a, a, first, policy);
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.rung, RecoveryRung::kFailed);
  EXPECT_TRUE(failed.tmr_escalated);
  EXPECT_NE(failed.diagnosis.find("shared memory"), std::string::npos);
}

TEST(RecoveryLadder, FailsWithDiagnosisWhenExhausted) {
  FakeScheme primary("fake", /*clean_after=*/100);
  const Matrix a(2, 2, 1.0);
  RecoveryPolicy policy;
  policy.retry_budget = 2;
  policy.escalate_tmr = false;
  auto outcome = run_ladder(primary, nullptr, kFakeDesc, a, a,
                            primary.execute(kFakeDesc, a, a), policy);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.rung, RecoveryRung::kFailed);
  EXPECT_EQ(outcome.retries, 2u);
  EXPECT_FALSE(outcome.diagnosis.empty());
  ASSERT_TRUE(outcome.result.has_value());  // best-effort data still attached
}

TEST(RecoveryLadder, SkipsTmrForUnsupportedKinds) {
  // The escalation rung must ask the TMR scheme whether it implements the
  // op kind; a kind-blind escalation would turn an unclean factorisation
  // into an unsupported_op error response.
  FakeScheme primary("fake", /*clean_after=*/100);  // never clean
  FakeScheme tmr("fake-tmr", /*clean_after=*/0, /*factorizations=*/false);
  const Matrix a(2, 2, 1.0);
  const auto desc = baselines::OpDescriptor::cholesky(2);
  RecoveryPolicy policy;
  auto outcome = run_ladder(primary, &tmr, desc, a, a,
                            primary.execute(desc, a, a), policy);
  EXPECT_FALSE(outcome.ok);
  EXPECT_FALSE(outcome.tmr_escalated);
  EXPECT_EQ(tmr.calls, 0);
  EXPECT_EQ(primary.last_kind, baselines::OpKind::kCholesky)
      << "retries re-dispatch with the original op descriptor";
}

TEST(RecoveryLadder, RungOfMapsSchemeOutcomes) {
  baselines::OpOutcome r;
  EXPECT_EQ(rung_of(r), RecoveryRung::kNone);
  r.detected = true;
  r.panel_recomputes = 1;  // online repair only: the earliest rung
  EXPECT_EQ(rung_of(r), RecoveryRung::kPanelRecompute);
  r.corrected = true;  // later rungs take precedence when both fired
  EXPECT_EQ(rung_of(r), RecoveryRung::kCorrected);
  r.block_recomputes = 1;
  EXPECT_EQ(rung_of(r), RecoveryRung::kBlockRecompute);
  r.recomputed = 1;
  EXPECT_EQ(rung_of(r), RecoveryRung::kFullRecompute);
}

}  // namespace
