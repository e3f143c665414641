#include "serve/server.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "abft/padding.hpp"
#include "baselines/tmr.hpp"

namespace aabft::serve {
namespace {

[[nodiscard]] baselines::TmrConfig tmr_config_of(const abft::AabftConfig& a) {
  baselines::TmrConfig config;
  config.gemm = a.gemm;
  return config;
}

}  // namespace

GemmServer::GemmServer(gpusim::Launcher& launcher, ServeConfig config)
    : launcher_(launcher),
      config_(config),
      primary_(launcher, config.aabft),
      tmr_(launcher, tmr_config_of(config.aabft)),
      queue_(config.admission.queue_capacity),
      admission_(config.admission, config.aabft.bs, launcher.workers()),
      opcache_(launcher, config.aabft, config.opcache, &stats_),
      paused_(config.start_paused),
      start_(std::chrono::steady_clock::now()) {
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

GemmServer::~GemmServer() { stop(); }

Result<std::future<GemmResponse>> GemmServer::submit(GemmRequest request) {
  StatsBoard::bump(stats_.submitted);
  if (!primary_.supports(request.kind)) {
    StatsBoard::bump(stats_.rejected_unsupported);
    return unsupported_op_error(
        "scheme '" + std::string(primary_.name()) +
        "' does not implement op kind '" +
        std::string(baselines::to_string(request.kind)) + "'");
  }
  auto admitted = admission_.admit(std::move(request), queue_, now_ns(),
                                   &opcache_);
  if (admitted.ok()) {
    StatsBoard::bump(stats_.admitted);
  } else {
    switch (admitted.error().code) {
      case ErrorCode::kOverloaded:
        StatsBoard::bump(stats_.rejected_queue_full);
        break;
      case ErrorCode::kDeadlineInfeasible:
        StatsBoard::bump(stats_.rejected_deadline);
        break;
      case ErrorCode::kUnsupportedOp:
        StatsBoard::bump(stats_.rejected_unsupported);
        break;
      default:
        StatsBoard::bump(stats_.rejected_shape);
        break;
    }
  }
  return admitted;
}

void GemmServer::pause() {
  core::MutexLock lk(pause_mu_);
  paused_ = true;
}

void GemmServer::resume() {
  {
    core::MutexLock lk(pause_mu_);
    paused_ = false;
  }
  pause_cv_.notify_all();
}

bool GemmServer::paused() const {
  core::MutexLock lk(pause_mu_);
  return paused_ && !stopping_;
}

void GemmServer::stop() {
  core::MutexLock stop_lk(stop_mu_);
  {
    core::MutexLock lk(pause_mu_);
    stopping_ = true;
    paused_ = false;
  }
  pause_cv_.notify_all();
  queue_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

ServerStats GemmServer::stats() const { return stats_.snapshot(); }

void GemmServer::ensure_lanes(std::size_t want) {
  while (lanes_.size() < want) lanes_.push_back(launcher_.create_stream());
}

void GemmServer::dispatch_loop() {
  for (;;) {
    {
      core::UniqueLock lk(pause_mu_);
      while (paused_ && !stopping_) pause_cv_.wait(lk);
    }
    // Bounded wait so a pause() that lands while we sleep on an empty queue
    // is observed before the next pop.
    if (!queue_.wait_nonempty_for(std::chrono::microseconds(1000))) {
      if (queue_.closed() && queue_.depth() == 0) break;
      continue;
    }
    if (paused()) continue;
    auto batch = queue_.pop_batch(config_.batch.max_batch);
    if (batch.empty()) break;  // closed and drained
    serve_batch(std::move(batch));
  }
}

void GemmServer::serve_batch(std::vector<PendingRequest>&& batch) {
  const std::size_t n = batch.size();
  const std::uint64_t dispatch_ns = now_ns();
  bool any_faults = false;
  // Borrowed operands, never copied: a cache-backed request reads the pinned
  // padded A and its light encode (the pin keeps both alive through the
  // recovery ladder), a cold request its own inline A.
  std::vector<abft::Operands> operands;
  operands.reserve(n);
  for (auto& item : batch) {
    item.trace.dispatch_ns = dispatch_ns;
    item.trace.batch_size = n;
    item.trace.faults_armed = item.request.fault_plan.size();
    any_faults |= !item.request.fault_plan.empty();
    if (item.pin != nullptr)
      operands.push_back(
          {&item.pin->padded, &item.request.b, &item.pin->light});
    else
      operands.push_back({&item.request.a, &item.request.b});
  }

  // Batches are kind-homogeneous (the batch key includes the op kind).
  const bool gemm_batch =
      batch.front().desc.kind == baselines::OpKind::kGemm;

  // Result<> has no default constructor, hence the optional wrapper; a slot
  // left empty means the compute task died before producing a result.
  std::vector<std::optional<Result<baselines::OpOutcome>>> results(n);
  if (gemm_batch && !any_faults) {
    // The pipelined GEMM fast path, one call for cache-backed and cold
    // problems alike: a supplied light encode skips A's encode pass.
    std::vector<Result<baselines::OpOutcome>> batch_results =
        primary_.execute_batch(baselines::OpKind::kGemm, operands);
    const std::uint64_t compute_ns = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      results[i] = std::move(batch_results[i]);
      batch[i].trace.compute_ns = compute_ns;
    }
  } else {
    // Per-request fault plans need per-request controller lifecycles (and
    // non-GEMM kinds have no batched dispatch), so each operation runs as
    // its own host task: arm -> execute under a thread-scoped controller ->
    // read fired count -> disarm. Tasks spread round-robin over the stream
    // lanes and overlap across pool workers.
    ensure_lanes(std::min<std::size_t>(
        n, std::max<std::size_t>(1, launcher_.workers())));
    for (std::size_t i = 0; i < n; ++i) {
      launcher_.launch_host_async(
          lanes_[i % lanes_.size()], "serve_request",
          [this, i, &batch, &operands, &results] {
            PendingRequest& item = batch[i];
            if (item.request.fault_plan.empty()) {
              results[i] = primary_.execute(item.desc, operands[i]);
            } else {
              gpusim::FaultController ctl;
              ctl.arm_many(item.request.fault_plan);
              {
                gpusim::ScopedFaultController guard(&ctl);
                results[i] = primary_.execute(item.desc, operands[i]);
              }
              ctl.disarm();
              item.trace.faults_fired = ctl.fired_count();
            }
            item.trace.compute_ns = now_ns();
          });
    }
    for (auto& lane : lanes_) lane.synchronize();
  }

  for (std::size_t i = 0; i < n; ++i) {
    PendingRequest& item = batch[i];
    if (item.trace.compute_ns == 0) item.trace.compute_ns = now_ns();
    Result<baselines::OpOutcome> first =
        results[i] ? std::move(*results[i])
                   : Result<baselines::OpOutcome>(Error{
                         ErrorCode::kExecutionFailed,
                         "compute task did not produce a result"});
    RecoveryOutcome outcome = run_ladder(
        primary_, config_.recovery.escalate_tmr ? &tmr_ : nullptr, item.desc,
        *operands[i].a, *operands[i].b, std::move(first), config_.recovery);
    item.trace.repair_ns = now_ns();

    GemmResponse response;
    response.id = item.request.id;
    response.kind = item.desc.kind;
    item.trace.retries = outcome.retries;
    item.trace.tmr_escalated = outcome.tmr_escalated;
    if (outcome.result) {
      baselines::OpOutcome& r = *outcome.result;
      item.trace.corrected = r.corrected;
      item.trace.corrections = r.corrections;
      item.trace.panel_detections = r.panel_detections;
      item.trace.panel_recomputes = r.panel_recomputes;
      item.trace.block_recomputes = r.block_recomputes;
      item.trace.full_recomputes = r.recomputed;
      item.trace.detected =
          r.detected || outcome.rung != RecoveryRung::kNone;
      linalg::Matrix c = std::move(r.c);
      if (c.rows() != item.orig_m || c.cols() != item.orig_q)
        c = abft::unpad_to(c, item.orig_m, item.orig_q);
      response.c = std::move(c);
      response.perm = std::move(r.perm);
    } else {
      item.trace.detected = true;
    }
    response.rung = outcome.rung;
    if (outcome.ok) {
      response.status = ResponseStatus::kOk;
      response.clean = true;
    } else {
      response.status = ResponseStatus::kFailed;
      response.clean = false;
      response.diagnosis = outcome.diagnosis;
    }
    item.trace.complete_ns = now_ns();
    response.trace = item.trace;

    if (outcome.ok) {
      StatsBoard::bump(stats_.completed);
      StatsBoard::bump(
          stats_.completed_by_kind[static_cast<std::size_t>(item.desc.kind)]);
    } else {
      StatsBoard::bump(stats_.failed);
    }
    if (item.trace.detected) StatsBoard::bump(stats_.detected);
    if (item.trace.corrected) StatsBoard::bump(stats_.corrected);
    StatsBoard::bump(stats_.corrections, item.trace.corrections);
    StatsBoard::bump(stats_.panel_detections, item.trace.panel_detections);
    StatsBoard::bump(stats_.block_recomputes, item.trace.block_recomputes);
    StatsBoard::bump(stats_.full_recomputes, item.trace.full_recomputes);
    StatsBoard::bump(stats_.retries, item.trace.retries);
    if (item.trace.tmr_escalated) StatsBoard::bump(stats_.tmr_escalations);
    StatsBoard::bump(stats_.faults_armed, item.trace.faults_armed);
    StatsBoard::bump(stats_.faults_fired, item.trace.faults_fired);
    stats_.record_queue_wait(item.trace.dispatch_ns - item.trace.enqueue_ns);
    stats_.record_service(item.trace.repair_ns - item.trace.dispatch_ns);
    stats_.record_e2e(item.trace.complete_ns - item.trace.enqueue_ns);
    item.promise.set_value(std::move(response));
    admission_.on_complete(item.est_flops);
  }

  StatsBoard::bump(stats_.batches);
  if (n >= 2) StatsBoard::bump(stats_.batched_requests, n);
  stats_.note_batch_size(n);
}

}  // namespace aabft::serve
