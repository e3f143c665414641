// GemmServer: the multi-tenant fault-tolerant BLAS-3 serving front end.
//
// One dispatcher thread pops priority-ordered batches of shape-and-kind-
// compatible requests from the bounded queue (pop_batch) and serves each
// request of a batch as one host task on the stream lanes: the task runs the
// primary A-ABFT scheme's execute() over borrowed operands (a cache-backed
// GEMM brings A's light encode), climbs the recovery ladder
// (serve/recovery.hpp) and answers the request. Clients talk to the server
// through submit(), which returns a future for the response or an admission
// refusal as a Result error; op kinds the primary scheme does not support
// are refused as kUnsupportedOp values, never asserted.
//
// Thread model: submit() is safe from any number of client threads (queue
// and admission are synchronized, stats counters are lock-free atomics on a
// StatsBoard); the dispatcher exclusively owns batch assembly and the lanes,
// and a batch's host tasks run concurrently on pool workers, each touching
// only its own request. stats() snapshots the board in one acquire pass, so
// a fleet aggregator can poll per-shard stats mid-run without torn reads.
// pause()/resume() gate the dispatcher between batches — test drivers use
// them to build up coalescible queues.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"

#include "abft/aabft.hpp"
#include "baselines/schemes.hpp"
#include "core/result.hpp"
#include "serve/admission.hpp"
#include "serve/queue.hpp"
#include "serve/recovery.hpp"
#include "serve/telemetry.hpp"

namespace aabft::serve {

struct BatchConfig {
  /// Max requests coalesced into one dispatch. 1 disables batching.
  std::size_t max_batch = 8;
};

struct ServeConfig {
  AdmissionConfig admission;
  BatchConfig batch;
  RecoveryPolicy recovery;
  /// Operand checksum cache (serve/opcache): one-time encode of registered
  /// weight operands, reused by every request that references them.
  opcache::OpCacheConfig opcache;
  /// Scheme configuration for the primary A-ABFT multiplier. The serving
  /// default adds one per-block recompute round to the library default, so
  /// single-block damage is repaired bit-exactly without a full re-execution.
  abft::AabftConfig aabft = default_aabft();
  /// Start with the dispatcher gated; call resume() to begin serving.
  bool start_paused = false;

  [[nodiscard]] static abft::AabftConfig default_aabft() noexcept {
    abft::AabftConfig config;
    config.max_block_recomputes = 1;
    return config;
  }
};

class GemmServer {
 public:
  explicit GemmServer(gpusim::Launcher& launcher, ServeConfig config = {});
  ~GemmServer();
  GemmServer(const GemmServer&) = delete;
  GemmServer& operator=(const GemmServer&) = delete;

  /// Admit a request. On success the future resolves to the response once
  /// the dispatcher has served it; refusals (shape, overload, deadline,
  /// unsupported op kind) come back immediately as Result errors.
  [[nodiscard]] Result<std::future<GemmResponse>> submit(GemmRequest request);

  /// One-time encode of a repeated-use GEMM A operand into the operand
  /// cache. Returns the handle for GemmRequest::a_handle; registrations of
  /// content-identical matrices dedup to the existing handle. Errors:
  /// kUnavailable (cache disabled), kOverloaded (entry exceeds the byte
  /// budget), kInvalidArgument (empty matrix).
  [[nodiscard]] Result<std::uint64_t> register_operand(const linalg::Matrix& a) {
    return opcache_.register_operand(a);
  }

  /// Drop a cached operand (the fleet calls this after a parity
  /// reconstruction). In-flight requests pinning the entry finish with it;
  /// later requests re-encode. False when the handle is unknown.
  bool invalidate_operand(std::uint64_t handle) {
    return opcache_.invalidate(handle);
  }

  [[nodiscard]] const opcache::OperandCache& operand_cache() const noexcept {
    return opcache_;
  }

  /// Gate / ungate the dispatcher between batches. While paused, admitted
  /// requests accumulate in the queue (and can then coalesce into batches).
  void pause();
  void resume();

  /// Refuse new work, drain every queued request, and join the dispatcher.
  /// Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] std::string telemetry_json() const { return to_json(stats()); }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }
  /// Outstanding admitted-but-not-completed flops (the admission backlog
  /// model) — the fleet router folds this into shard load.
  [[nodiscard]] std::uint64_t backlog_flops() const noexcept {
    return admission_.backlog_flops();
  }
  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }

  /// Nanoseconds on the server's monotonic clock (0 = construction time) —
  /// the timebase of every RequestTrace timestamp.
  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  void dispatch_loop();
  void serve_batch(std::vector<PendingRequest>&& batch);
  /// One request from compute to response; runs as the request's host task.
  void serve_one(PendingRequest& item);
  void ensure_lanes(std::size_t want);
  [[nodiscard]] bool paused() const AABFT_EXCLUDES(pause_mu_);

  gpusim::Launcher& launcher_;
  ServeConfig config_;
  baselines::AabftScheme primary_;
  baselines::TmrScheme tmr_;
  BoundedRequestQueue queue_;
  AdmissionController admission_;

  StatsBoard stats_;
  /// Declared after stats_ (counter sink) and before the dispatcher thread:
  /// every pin lives in a PendingRequest, and stop() drains those before any
  /// member is destroyed, so the cache safely outlives all pins.
  opcache::OperandCache opcache_;

  /// Serializes stop() calls (idempotent join). Held across queue close and
  /// the dispatcher join, so it ranks below every other serve lock.
  core::Mutex stop_mu_{core::LockRank::kServeControl, "serve.stop"};
  mutable core::Mutex pause_mu_{core::LockRank::kServePause, "serve.pause"};
  core::CondVar pause_cv_;
  bool paused_ AABFT_GUARDED_BY(pause_mu_) = false;
  bool stopping_ AABFT_GUARDED_BY(pause_mu_) = false;

  std::chrono::steady_clock::time_point start_;
  std::vector<gpusim::Stream> lanes_;  // dispatcher-owned, created lazily
  std::thread dispatcher_;
};

}  // namespace aabft::serve
