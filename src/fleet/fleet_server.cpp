#include "fleet/fleet_server.hpp"

#include <algorithm>
#include <utility>

#include "core/require.hpp"
#include "fp/fault_vector.hpp"

namespace aabft::fleet {
namespace {

using Clock = std::chrono::steady_clock;

// The collector's two waits, for work on its deque and for the response
// future, are 500 µs polls rather than blocking waits. On the 4-vCPU VM the
// benchmark runs on, blocking waits cost fleet_zipf about 0.06 ms of p50
// and 0.17 ms of p95, and a 1 ms poll did not win it back (EXPERIMENTS.md
// "Fleet queues"): a vCPU left idle with no timer pending appears to wake
// late (EXPERIMENTS.md "Dispatcher poll").
constexpr std::chrono::microseconds kPoll{500};

[[nodiscard]] std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

[[nodiscard]] serve::GemmResponse failed_response(std::uint64_t id,
                                                  baselines::OpKind kind,
                                                  std::string diagnosis) {
  serve::GemmResponse resp;
  resp.id = id;
  resp.kind = kind;
  resp.status = serve::ResponseStatus::kFailed;
  resp.clean = false;
  resp.rung = serve::RecoveryRung::kFailed;
  resp.diagnosis = std::move(diagnosis);
  return resp;
}

}  // namespace

FleetServer::FleetServer(FleetConfig config)
    : config_(config),
      store_(config.devices),
      router_(config.router),
      chaos_rng_(config.chaos_seed) {
  AABFT_REQUIRE(config_.devices >= 3,
                "FleetServer: need >= 3 devices (erasure coding strips "
                "operands as devices-1 data + 1 parity)");
  shards_.reserve(config_.devices);
  for (std::size_t s = 0; s < config_.devices; ++s) {
    auto shard = std::make_unique<Shard>(config_.health);
    shard->index = s;
    gpusim::DeviceSpec spec = config_.device_spec;
    spec.name += " [device " + std::to_string(s) + "]";
    // One Launcher per shard = one failure domain per shard: distinct worker
    // pools, so thread-scoped fault controllers on shard s's launches can
    // never be observed by shard t's kernels.
    shard->launcher = std::make_unique<gpusim::Launcher>(
        std::move(spec), config_.workers_per_device);
    shard->server =
        std::make_unique<serve::GemmServer>(*shard->launcher, config_.serve);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->collector = std::thread([this, s] { collector_loop(*s); });
  }
}

FleetServer::~FleetServer() { stop(); }

serve::ShapeKey FleetServer::route_key(const FleetRequest& req) const {
  const auto dims_of = [&](const linalg::Matrix& m, std::uint64_t handle) {
    if (handle == FleetRequest::kInlineOperand)
      return std::make_pair(m.rows(), m.cols());
    auto d = store_.dims(handle);
    return d.ok() ? *d : std::make_pair<std::size_t, std::size_t>(0, 0);
  };
  serve::ShapeKey key;
  key.kind = req.request.kind;
  const auto [am, ak] = dims_of(req.request.a, req.a_handle);
  key.m = am;
  key.k = ak;
  key.q = key.kind == baselines::OpKind::kGemm
              ? dims_of(req.request.b, req.b_handle).second
              : am;
  // Operand affinity: keep a handle's traffic on the shard whose serve cache
  // already holds its encode. Fleet handles start at 0 and the serve-level
  // key uses 0 for "no handle", so shift by one.
  key.a_handle =
      req.a_handle == FleetRequest::kInlineOperand ? 0 : req.a_handle + 1;
  return key;
}

Result<std::future<FleetResponse>> FleetServer::submit(FleetRequest req) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const auto refuse = [&](Error error) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return error;
  };
  if (stopping_.load(std::memory_order_acquire))
    return refuse(Error{ErrorCode::kUnavailable, "fleet is stopping"});
  for (std::uint64_t handle : {req.a_handle, req.b_handle}) {
    if (handle == FleetRequest::kInlineOperand) continue;
    if (auto d = store_.dims(handle); !d.ok()) return refuse(d.error());
  }
  const auto target =
      router_.route(route_key(req), shard_loads(), availabilities());
  if (!target)
    return refuse(Error{ErrorCode::kUnavailable,
                        "every device in the fleet is fenced"});
  Shard& shard = *shards_[*target];

  Inflight item;
  item.job.req = std::move(req);
  item.job.fleet_id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // Shard admission preserves nonzero ids.
  item.job.req.request.id = item.job.fleet_id;
  item.job.submitted_at = Clock::now();
  auto admitted =
      dispatch(item.job, shard, item.reconstructed, item.chaos_armed);
  if (!admitted.ok()) return refuse(admitted.error());
  item.fut = std::move(*admitted);
  shard.routed.fetch_add(1, std::memory_order_relaxed);
  auto fut = item.job.promise.get_future();

  // Trust is decided at collection time, so the response is judged even if
  // the shard was fenced after routing. Once stop() has closed the
  // collector, this thread collects its own response: the shard's server
  // still answers it, because servers stop only after every collector has
  // joined and a stopping server drains what it admitted.
  bool queued = false;
  {
    core::MutexLock lk(shard.inflight_mu);
    if (!shard.closed) {
      shard.inflight.push_back(std::move(item));
      shard.inflight_count.store(shard.inflight.size(),
                                 std::memory_order_relaxed);
      queued = true;
    }
  }
  if (queued)
    shard.inflight_cv.notify_all();
  else
    collect(shard, std::move(item));
  return fut;
}

Result<serve::GemmRequest> FleetServer::resolve(const Job& job,
                                                bool& reconstructed) const {
  serve::GemmRequest out = job.req.request;  // keep the pristine copy intact
  const auto fetch = [&](std::uint64_t handle,
                         linalg::Matrix& into) -> Result<bool> {
    if (handle == FleetRequest::kInlineOperand) return true;
    auto fetched = store_.get(handle);
    if (!fetched.ok()) return fetched.error();
    into = std::move(fetched->matrix);
    reconstructed |= fetched->reconstructed;
    return true;
  };
  if (auto a = fetch(job.req.a_handle, out.a); !a.ok()) return a.error();
  if (auto b = fetch(job.req.b_handle, out.b); !b.ok()) return b.error();
  return out;
}

Result<serve::GemmRequest> FleetServer::resolve_for(const Job& job,
                                                    std::size_t shard,
                                                    bool& reconstructed) {
  // Only GEMM A handles ride the serve-layer operand cache; everything else
  // (B operands, single-operand kinds, inline A) resolves to matrices.
  const bool cacheable = job.req.request.kind == baselines::OpKind::kGemm &&
                         job.req.a_handle != FleetRequest::kInlineOperand;
  if (!cacheable) return resolve(job, reconstructed);

  serve::GemmRequest out = job.req.request;
  if (job.req.b_handle != FleetRequest::kInlineOperand) {
    auto fetched = store_.get(job.req.b_handle);
    if (!fetched.ok()) return fetched.error();
    out.b = std::move(fetched->matrix);
    reconstructed |= fetched->reconstructed;
  }

  const std::uint64_t epoch = store_epoch_.load(std::memory_order_acquire);
  std::uint64_t mapped = 0;  // current-epoch serve handle on this shard
  std::uint64_t stale = 0;   // older-epoch handle needing revalidation
  {
    core::MutexLock lk(cache_map_mu_);
    auto it = cache_map_.find(job.req.a_handle);
    if (it != cache_map_.end()) {
      const CacheMapEntry& entry = it->second[shard];
      if (entry.serve_handle != 0) {
        (entry.epoch == epoch ? mapped : stale) = entry.serve_handle;
      }
    }
  }
  if (mapped != 0) {
    out.a = linalg::Matrix();
    out.a_handle = mapped;
    return out;
  }

  // Unmapped on this shard, or the fleet fenced a device since the mapping
  // was validated: re-fetch from the store, which is where a parity
  // reconstruction of this operand would surface. Never performed while
  // holding cache_map_mu_ — the store's lock ranks below it.
  auto fetched = store_.get(job.req.a_handle);
  if (!fetched.ok()) return fetched.error();
  reconstructed |= fetched->reconstructed;

  std::uint64_t serve_handle = 0;
  if (stale != 0 && !fetched->reconstructed) {
    // The operand survived the fence with every data stripe intact: the
    // shard's cached encode is still the same bits. Revalidate, no re-encode.
    serve_handle = stale;
  } else {
    if (stale != 0) {
      // The operand came back through a parity rebuild: conservatively drop
      // the shard's cached entry *before* re-registering, so the cache's
      // content dedup publishes a fresh entry from the reconstructed bits.
      shards_[shard]->server->invalidate_operand(stale);
    }
    auto reg = shards_[shard]->server->register_operand(fetched->matrix);
    if (reg.ok()) serve_handle = *reg;
  }
  if (serve_handle == 0) {
    // The shard's cache refused the operand (disabled, or it alone exceeds
    // the byte budget): dispatch inline, correct but uncached.
    out.a = std::move(fetched->matrix);
    return out;
  }
  {
    core::MutexLock lk(cache_map_mu_);
    auto& slots = cache_map_[job.req.a_handle];
    if (slots.size() != shards_.size()) slots.resize(shards_.size());
    slots[shard] = CacheMapEntry{serve_handle, epoch};
  }
  out.a = linalg::Matrix();
  out.a_handle = serve_handle;
  return out;
}

void FleetServer::drop_cache_mapping(std::uint64_t fleet_handle,
                                     std::size_t shard) {
  core::MutexLock lk(cache_map_mu_);
  auto it = cache_map_.find(fleet_handle);
  if (it != cache_map_.end()) it->second[shard] = CacheMapEntry{};
}

Result<std::future<serve::GemmResponse>> FleetServer::dispatch(
    const Job& job, Shard& shard, bool& reconstructed,
    std::size_t& chaos_armed) {
  auto resolved = resolve_for(job, shard.index, reconstructed);
  if (!resolved.ok()) return resolved.error();
  const std::uint64_t used_handle = resolved->a_handle;
  chaos_armed = arm_chaos(shard, *resolved);
  auto admitted = shard.server->submit(std::move(*resolved));
  if (admitted.ok() || used_handle == 0 ||
      admitted.error().code != ErrorCode::kInvalidArgument)
    return admitted;
  // The shard's serve cache evicted the mapped entry between resolution and
  // admission: drop the stale mapping and resolve once more (the retry
  // re-registers or falls back to an inline operand).
  drop_cache_mapping(job.req.a_handle, shard.index);
  auto again = resolve_for(job, shard.index, reconstructed);
  if (!again.ok()) return again.error();
  chaos_armed = arm_chaos(shard, *again);
  return shard.server->submit(std::move(*again));
}

std::size_t FleetServer::arm_chaos(const Shard& shard,
                                   serve::GemmRequest& req) {
  // The fault plan travels inside the request and is consulted only by the
  // serving shard's worker pool, so the faults stay scoped to this device.
  std::size_t chaos = shard.chaos_faults.load(std::memory_order_relaxed);
  chaos = std::min(chaos, gpusim::FaultController::kMaxFaults -
                              std::min(gpusim::FaultController::kMaxFaults,
                                       req.fault_plan.size()));
  for (std::size_t i = 0; i < chaos; ++i) {
    gpusim::FaultConfig fault;
    fault.site = gpusim::FaultSite::kFinalAdd;
    fault.sm_id = 0;  // block 0 runs on SM 0: the fault always lands
    fault.module_id = 0;
    fault.k_injection = 0;
    {
      core::MutexLock lk(chaos_mu_);
      fault.error_vec =
          fp::make_error_vec(fp::BitField::kExponent, 1, chaos_rng_);
    }
    req.fault_plan.push_back(fault);
  }
  return chaos;
}

void FleetServer::collector_loop(Shard& shard) {
  for (;;) {
    Inflight item;
    {
      core::UniqueLock lk(shard.inflight_mu);
      while (shard.inflight.empty() && !shard.closed)
        shard.inflight_cv.wait_until(lk, Clock::now() + kPoll);
      if (shard.inflight.empty()) break;  // closed and drained
      item = std::move(shard.inflight.front());
      shard.inflight.pop_front();
      shard.inflight_count.store(shard.inflight.size(),
                                 std::memory_order_relaxed);
    }
    collect(shard, std::move(item));
  }
}

void FleetServer::collect(Shard& shard, Inflight&& item) {
  while (item.fut.wait_for(kPoll) != std::future_status::ready) {
  }
  serve::GemmResponse resp = item.fut.get();
  // Fence state *at collection time* decides trust: a response harvested
  // after the device was quarantined is discarded and replayed, even if it
  // looks clean.
  const bool untrusted = shard.fenced.load(std::memory_order_acquire);
  if (!untrusted) {
    // A correction explained by the request's *own* armed fault plan is the
    // A-ABFT ladder doing its job, not device pathology — don't let
    // client-injected test faults poison the device's health. Fleet chaos
    // injection (inject_device_faults) models real corruption and is
    // always blamed.
    const bool self_inflicted =
        !item.job.req.request.fault_plan.empty() && item.chaos_armed == 0;
    Observation obs;
    obs.ok = resp.status == serve::ResponseStatus::kOk;
    obs.corrected = resp.trace.corrected && !self_inflicted;
    obs.tmr_escalated = resp.trace.tmr_escalated && !self_inflicted;
    obs.retries = self_inflicted ? 0 : resp.trace.retries;
    shard.health.observe(obs);
    if (shard.health.fenced()) fence(shard.index);
  }

  std::size_t served_by = shard.index, replays = 0;
  bool recon = item.reconstructed;
  if (shard.fenced.load(std::memory_order_acquire) ||
      resp.status == serve::ResponseStatus::kFailed) {
    resp = replay_on_survivor(item.job, shard.index, served_by, replays,
                              recon);
    if (replays > 0) shard.replayed.fetch_add(1, std::memory_order_relaxed);
  }
  finish(shard, std::move(item.job), std::move(resp), served_by, replays,
         recon);
}

serve::GemmResponse FleetServer::replay_on_survivor(const Job& job,
                                                    std::size_t exclude,
                                                    std::size_t& served_by,
                                                    std::size_t& replays,
                                                    bool& reconstructed) {
  serve::GemmResponse last = failed_response(
      job.fleet_id, job.req.request.kind,
      "no surviving device could serve the request");
  for (std::size_t attempt = 0; attempt < config_.replay_budget; ++attempt) {
    // Healthiest surviving shard with the least in-flight work.
    std::size_t target = shards_.size();
    double best = 0.0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (s == exclude || shards_[s]->fenced.load(std::memory_order_acquire))
        continue;
      const double score =
          shards_[s]->health.availability() /
          (1.0 + static_cast<double>(
                     shards_[s]->inflight_count.load(std::memory_order_relaxed)) +
           static_cast<double>(shards_[s]->server->queue_depth()));
      if (target == shards_.size() || score > best) {
        target = s;
        best = score;
      }
    }
    if (target == shards_.size()) return last;  // nobody left

    bool recon = false;
    std::size_t chaos_armed = 0;
    auto admitted = dispatch(job, *shards_[target], recon, chaos_armed);
    if (!admitted.ok()) {
      last.diagnosis = admitted.error().message;
      exclude = target;
      continue;
    }
    ++replays;
    replays_.fetch_add(1, std::memory_order_relaxed);
    reconstructed |= recon;
    last = admitted->get();
    served_by = target;
    if (last.status == serve::ResponseStatus::kOk &&
        !shards_[target]->fenced.load(std::memory_order_acquire))
      return last;
    exclude = target;  // target failed (or got fenced meanwhile): try another
  }
  return last;
}

void FleetServer::fence(std::size_t shard) {
  bool expected = false;
  if (!shards_[shard]->fenced.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel))
    return;  // already fenced
  shards_[shard]->health.force_fence();
  store_.fence_shard(shard);
  // Every serve-cache mapping validated before this fence must re-check the
  // store on next use — that is where a parity reconstruction (and the
  // cache invalidation it mandates) surfaces.
  store_epoch_.fetch_add(1, std::memory_order_release);
  router_.forget_shard(shard);
  fenced_count_.fetch_add(1, std::memory_order_relaxed);
}

void FleetServer::force_fail(std::size_t shard) {
  AABFT_REQUIRE(shard < shards_.size(), "force_fail: shard out of range");
  fence(shard);
}

void FleetServer::inject_device_faults(std::size_t shard,
                                       std::size_t faults_per_request) {
  AABFT_REQUIRE(shard < shards_.size(),
                "inject_device_faults: shard out of range");
  shards_[shard]->chaos_faults.store(faults_per_request,
                                     std::memory_order_relaxed);
}

void FleetServer::finish(Shard& collector_shard, Job&& job,
                         serve::GemmResponse&& resp, std::size_t served_by,
                         std::size_t replays, bool reconstructed) {
  resp.id = job.fleet_id;  // fleet-scope id, whatever shard served it
  FleetResponse out;
  out.response = std::move(resp);
  out.shard = served_by;
  out.replays = replays;
  out.operands_reconstructed = reconstructed;
  {
    core::MutexLock lk(collector_shard.e2e_mu);
    collector_shard.fleet_e2e_ns.record(ns_since(job.submitted_at));
  }
  job.promise.set_value(std::move(out));
}

std::vector<ShardLoad> FleetServer::shard_loads() const {
  std::vector<ShardLoad> loads(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    loads[s].queued = shards_[s]->server->queue_depth();
    loads[s].inflight =
        shards_[s]->inflight_count.load(std::memory_order_relaxed);
    loads[s].backlog_flops =
        static_cast<double>(shards_[s]->server->backlog_flops());
  }
  return loads;
}

std::vector<double> FleetServer::availabilities() const {
  std::vector<double> avail(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s)
    avail[s] = shards_[s]->health.availability();
  return avail;
}

void FleetServer::stop() {
  core::MutexLock stop_lk(stop_mu_);
  if (stopped_) return;
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    {
      core::MutexLock lk(shard->inflight_mu);
      shard->closed = true;
    }
    shard->inflight_cv.notify_all();
  }
  for (auto& shard : shards_)
    if (shard->collector.joinable()) shard->collector.join();
  // Collectors may replay onto sibling servers right up to their exit, and a
  // submit that raced the close waits on its own shard's server, so the
  // per-shard servers stop only after every collector has joined.
  for (auto& shard : shards_) shard->server->stop();
  stopped_ = true;
}

FleetStats FleetServer::stats() const {
  FleetStats stats;
  stats.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats s;
    s.shard = shard->index;
    s.device = shard->launcher->device().name;
    s.server = shard->server->stats();
    s.state = shard->health.state();
    s.availability = shard->health.availability();
    s.correction_rate = shard->health.correction_rate();
    s.failure_rate = shard->health.failure_rate();
    s.observations = shard->health.observations();
    s.routed = shard->routed.load(std::memory_order_relaxed);
    s.replayed = shard->replayed.load(std::memory_order_relaxed);
    s.queued = shard->server->queue_depth();
    s.inflight = shard->inflight_count.load(std::memory_order_relaxed);
    {
      core::MutexLock lk(shard->e2e_mu);
      s.fleet_e2e_ns = shard->fleet_e2e_ns;
    }
    serve::merge_into(stats.totals, s.server);
    stats.shards.push_back(std::move(s));
  }
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.replays = replays_.load(std::memory_order_relaxed);
  stats.reconstructions = store_.reconstructions();
  stats.operand_dedups = store_.dedup_hits();
  stats.fenced_devices = fenced_count_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace aabft::fleet
