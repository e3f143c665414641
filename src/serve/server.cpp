#include "serve/server.hpp"

#include <algorithm>
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
    // Poll in 1 ms waits rather than block in pop_batch. The timeout lets
    // the loop re-check its pause gate, but that is not why the poll stays:
    // a blocking pop (a pause flag in the queue, woken by pause() and
    // stop()) cut an idle server's wakeups from about 940/s to none, yet
    // raised serve_mixed's and fleet_zipf's open-loop p50 in every measured
    // pair, for a reason not yet traced (EXPERIMENTS.md, "Dispatcher poll").
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
  // One host task per request, round-robin over the stream lanes: the tasks
  // overlap across pool workers, and each settles and answers its request.
  ensure_lanes(std::min<std::size_t>(
      n, std::max<std::size_t>(1, launcher_.workers())));
  for (std::size_t i = 0; i < n; ++i) {
    PendingRequest& item = batch[i];
    item.trace.dispatch_ns = dispatch_ns;
    item.trace.batch_size = n;
    launcher_.launch_host_async(lanes_[i % lanes_.size()], "serve_request",
                                [this, &item] { serve_one(item); });
  }
  for (auto& lane : lanes_) lane.synchronize();

  StatsBoard::bump(stats_.batches);
  if (n >= 2) StatsBoard::bump(stats_.batched_requests, n);
  stats_.note_batch_size(n);
}

void GemmServer::serve_one(PendingRequest& item) {
  // Borrowed operands, never copied: a cache-backed request reads the pinned
  // padded A and its light encode (the pin keeps both alive through the
  // recovery ladder), a cold request its own inline A.
  const abft::Operands operands =
      item.pin != nullptr
          ? abft::Operands{&item.pin->padded, &item.request.b,
                           &item.pin->light}
          : abft::Operands{&item.request.a, &item.request.b};
  const auto compute = [&] {
    return attempt([&] { return primary_.execute(item.desc, operands); });
  };
  item.trace.faults_armed = item.request.fault_plan.size();
  // A fault plan gets a private controller, armed for the first pass only:
  // concurrent requests on the shared launcher keep independent blast radii,
  // and the ladder's retries run fault-free.
  Result<baselines::OpOutcome> first = [&] {
    if (item.request.fault_plan.empty()) return compute();
    gpusim::FaultController ctl;
    ctl.arm_many(item.request.fault_plan);
    Result<baselines::OpOutcome> armed = [&] {
      gpusim::ScopedFaultController guard(&ctl);
      return compute();
    }();
    ctl.disarm();
    item.trace.faults_fired = ctl.fired_count();
    return armed;
  }();
  item.trace.compute_ns = now_ns();

  RecoveryOutcome outcome = run_ladder(
      primary_, config_.recovery.escalate_tmr ? &tmr_ : nullptr, item.desc,
      *operands.a, *operands.b, std::move(first), config_.recovery);
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
    item.trace.detected = r.detected || outcome.rung != RecoveryRung::kNone;
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

}  // namespace aabft::serve
