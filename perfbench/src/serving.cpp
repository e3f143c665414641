#include "serving.hpp"

#include <algorithm>
#include <cmath>

#include "abft/padding.hpp"
#include "baselines/schemes.hpp"
#include "fp/fault_vector.hpp"
#include "linalg/matmul.hpp"

namespace perfbench {

namespace {

using aabft::serve::OpKind;

/// Blocks of the protected product kernel for an m x k x q GEMM, whichever
/// pipeline runs it: the smaller of the fused tiling ((bs+1)-square tiles of
/// the encoded product) and the gemm.bm x gemm.bn tiling, so a fault aimed
/// below it lands in a launched block.
std::size_t grid_blocks_of(std::size_t m, std::size_t q,
                           const aabft::abft::AabftConfig& config) {
  const std::size_t bs = config.bs;
  const auto encoded = [&](std::size_t dim) {
    return aabft::abft::padded_dim(dim, bs) / bs * (bs + 1);
  };
  const auto ceil_div = [](std::size_t a, std::size_t b) { return (a + b - 1) / b; };
  return std::min(
      ceil_div(encoded(m), bs + 1) * ceil_div(encoded(q), bs + 1),
      ceil_div(encoded(m), config.gemm.bm) * ceil_div(encoded(q), config.gemm.bn));
}

}  // namespace

bool prepare_reference(ServedProblem& p, aabft::gpusim::Launcher& launcher,
                       const aabft::abft::AabftConfig& config) {
  const auto desc = aabft::baselines::OpDescriptor::of(p.kind, p.a, p.b);
  p.flops = desc.flops();
  switch (p.kind) {
    case OpKind::kGemm:
    case OpKind::kSyrk: {
      const aabft::linalg::Matrix& b = p.kind == OpKind::kGemm ? p.b : p.a.transposed();
      p.ref = aabft::linalg::blocked_matmul(launcher, p.a, b, config.gemm);
      p.grid_blocks = grid_blocks_of(desc.m, desc.q, config);
      p.fault_k = desc.k;
      return true;
    }
    case OpKind::kCholesky:
    case OpKind::kLu: {
      aabft::baselines::AabftScheme scheme(launcher, config);
      auto out = scheme.execute(desc, p.a, aabft::linalg::Matrix());
      if (!out.ok() || !out->clean || out->detected) return false;
      p.ref = std::move(out->c);
      p.perm = std::move(out->perm);
      // Faults target the first trailing update: (n - panel) x panel x (n - panel).
      const std::size_t panel = config.bs;
      p.grid_blocks = grid_blocks_of(desc.m - panel, desc.m - panel, config);
      p.fault_k = panel;
      return true;
    }
  }
  return false;
}

std::vector<aabft::gpusim::FaultConfig> one_fault_plan(
    aabft::Rng& rng, const ServedProblem& p,
    const aabft::abft::AabftConfig& config, int num_sms) {
  aabft::gpusim::FaultConfig fault;
  const auto sm_limit = std::min<std::uint64_t>(static_cast<std::uint64_t>(num_sms),
                                                p.grid_blocks);
  const std::size_t modules = std::min(config.fused.rx * config.fused.ry,
                                       config.gemm.rx * config.gemm.ry);
  fault.site = static_cast<aabft::gpusim::FaultSite>(rng.below(3));
  fault.sm_id = static_cast<int>(rng.below(sm_limit));
  fault.module_id = static_cast<int>(rng.below(modules));
  fault.k_injection = fault.site == aabft::gpusim::FaultSite::kFinalAdd
                          ? 0
                          : static_cast<std::int64_t>(rng.below(p.fault_k));
  // Exponent flips are detected with probability ~1 (the paper's Figure 4),
  // so every fired fault exercises detect -> repair.
  fault.error_vec = aabft::fp::make_error_vec(aabft::fp::BitField::kExponent, 1, rng);
  return {fault};
}

Verdict verify(const ServedProblem& p, const aabft::serve::GemmResponse& r) {
  if (r.status != aabft::serve::ResponseStatus::kOk || !r.clean) return Verdict::kError;
  if (r.trace.corrections == 0)
    return r.c == p.ref && r.perm == p.perm ? Verdict::kOk : Verdict::kWrong;
  // A checksum patch ran: patched products carry the checksum-sum rounding,
  // and patch rounding in a factorization propagates through later panels,
  // so a corrected factorization must reproduce its input instead.
  switch (p.kind) {
    case OpKind::kGemm:
    case OpKind::kSyrk:
      return product_matches(r.c, p.ref, r.trace.corrections) ? Verdict::kOk
                                                              : Verdict::kWrong;
    case OpKind::kCholesky:
      return r.c.same_shape(p.a) && cholesky_residual(p.a, r.c) <= 1e-6
                 ? Verdict::kOk
                 : Verdict::kWrong;
    case OpKind::kLu:
      return r.c.same_shape(p.a) && lu_residual(p.a, r.c, r.perm) <= 1e-6
                 ? Verdict::kOk
                 : Verdict::kWrong;
  }
  return Verdict::kWrong;
}

std::vector<double> poisson_schedule(aabft::Rng& rng, double rate, double seconds) {
  std::vector<double> at;
  at.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  for (double t = -std::log(1.0 - rng.next_unit()) / rate; t < seconds;
       t += -std::log(1.0 - rng.next_unit()) / rate)
    at.push_back(t);
  return at;
}

void TraceTally::add(const aabft::serve::GemmResponse& r, bool stages) {
  const auto& t = r.trace;
  if (stages && t.complete_ns != 0) {
    queue_wait_ms.add(static_cast<double>(t.dispatch_ns - t.enqueue_ns) / 1e6);
    compute_ms.add(static_cast<double>(t.compute_ns - t.dispatch_ns) / 1e6);
    repair_ms.add(static_cast<double>(t.repair_ns - t.compute_ns) / 1e6);
  }
  if (t.batch_size != 0) batch_size.add(static_cast<double>(t.batch_size));
  if (t.batch_size >= 2) ++batched;
  ++rungs[static_cast<std::size_t>(r.rung)];
  faults_armed += t.faults_armed;
  faults_fired += t.faults_fired;
}

void TraceTally::report(Report& report, const TraceTally& batching) const {
  report.percentile("serve.queue_wait_ms.p50", queue_wait_ms, 0.50, "ms");
  report.percentile("serve.queue_wait_ms.p99", queue_wait_ms, 0.99, "ms");
  report.percentile("serve.compute_ms.p50", compute_ms, 0.50, "ms");
  report.percentile("serve.compute_ms.p99", compute_ms, 0.99, "ms");
  report.percentile("serve.repair_ms.p99", repair_ms, 0.99, "ms");
  const auto served = static_cast<double>(batching.batch_size.count());
  report.metric("serve.batch_size.mean", batching.batch_size.mean(), "count");
  report.metric("serve.batched_frac",
                served == 0 ? 0.0 : static_cast<double>(batching.batched) / served, "ratio");
  for (std::size_t i = 0; i < rungs.size(); ++i)
    report.metric("serve.rung." + std::string(aabft::serve::to_string(
                                      static_cast<aabft::serve::RecoveryRung>(i))),
                  static_cast<double>(rungs[i] + batching.rungs[i]), "count");
  const std::uint64_t armed = faults_armed + batching.faults_armed;
  const std::uint64_t fired = faults_fired + batching.faults_fired;
  report.metric("serve.faults_fired_frac",
                armed == 0 ? 0.0 : static_cast<double>(fired) / static_cast<double>(armed),
                "ratio");
}

void report_opcache(Report& report, const aabft::serve::ServerStats& before,
                    const aabft::serve::ServerStats& after) {
  const auto delta = [](std::uint64_t from, std::uint64_t to) {
    return static_cast<double>(to - from);
  };
  const double hits = delta(before.opcache_hits, after.opcache_hits);
  const double encodes = delta(before.opcache_registered, after.opcache_registered);
  report.metric("serve.opcache.probe_misses",
                delta(before.opcache_misses, after.opcache_misses), "count");
  report.metric("serve.opcache.hit_ratio",
                hits + encodes == 0 ? 0.0 : hits / (hits + encodes), "ratio");
  report.metric("serve.opcache.evictions",
                delta(before.opcache_evictions, after.opcache_evictions), "count");
  report.metric("serve.opcache.encodes", encodes, "count");
}

}  // namespace perfbench
