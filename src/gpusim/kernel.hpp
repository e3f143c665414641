// Kernel launch abstraction for the SIMT execution model.
//
// A "kernel" is any callable invoked once per thread block:
//
//     void kernel(BlockCtx& block);
//
// Inside the callable, code is written in the block-synchronous style: the
// work of the BS x 1 (or BM x BN) threads of one block is expressed as loops
// over thread ids, with shared memory as block-local arrays. Sequential
// execution of those per-thread loops gives the same operation set, operand
// values and rounding behaviour the CUDA kernels produce; barriers are
// implicit between loop nests, exactly where the CUDA code has __syncthreads.
//
// Blocks are distributed over a *persistent* host worker pool (see
// gpusim/executor.hpp) and deterministically assigned to virtual streaming
// multiprocessors (sm = linear_block_index mod num_sms), which the
// fault-injection machinery uses for SM targeting. All floating-point work
// inside a block goes through BlockCtx::math.
//
// Execution modes:
//   - launch():       synchronous, returns the launch's aggregated counters.
//   - launch_async(): enqueues onto a Stream; kernels execute in FIFO order
//                     within a stream and concurrently across streams
//                     (CUDA stream semantics). The launch environment
//                     (fault controller, precision, device) is snapshotted
//                     at enqueue time.
//   - launch_host_async(): enqueues a host function onto a stream, for
//                     host-side pipeline stages between kernels. The host
//                     function runs under the enqueuing thread's
//                     ScopedFaultController override.
//
// Thread-safety contract:
//   - launch() may be called concurrently from multiple host threads
//     (including from host functions enqueued on streams).
//   - The launch log is internally synchronized: entries are appended under
//     a mutex when each launch completes, and launch_log() returns a
//     *snapshot copy*. Within one stream, log order equals enqueue order;
//     across concurrently executing streams the interleaving is the
//     completion order and is not deterministic. Call synchronize() first
//     for a complete log.
//   - set_fault_controller() / set_precision() / set_hazard_mode() are not
//     synchronized against concurrent launches; set them while no
//     *synchronous* launch is in flight (enforced: a work-in-flight counter
//     turns misuse into an AABFT_REQUIRE failure). Async launches capture
//     all three at enqueue time, so reconfiguring while stream work is
//     pending is well-defined.
//
// Hazard analysis (racecheck / synccheck / memcheck — see gpusim/hazard.hpp):
// set_hazard_mode(HazardMode::kRecord) makes every subsequent launch track
// SharedArray accesses through shadow cells; detected hazards accumulate in
// hazard_records(). kAbort throws HazardError at the first hazard — out of
// launch() directly, or out of synchronize() for async launches. A block
// body that throws (hazard abort, shared-memory overflow) never kills a pool
// worker: the first exception is captured and rethrown on the waiting host
// thread; for stream work it is stored and rethrown by synchronize().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/require.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "gpusim/device.hpp"
#include "gpusim/dim.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/fault_site.hpp"
#include "gpusim/math_ctx.hpp"
#include "gpusim/perf_counters.hpp"

namespace aabft::gpusim {

/// Executes kernels over a grid of blocks.
class Launcher {
 public:
  /// workers == 0 selects std::thread::hardware_concurrency(). The worker
  /// pool is created lazily on the first parallel or asynchronous launch and
  /// persists for the lifetime of the Launcher.
  explicit Launcher(DeviceSpec spec = k20c(), unsigned workers = 0)
      : spec_(std::move(spec)),
        workers_(workers != 0 ? workers
                              : std::max(1u, std::thread::hardware_concurrency())) {}

  // Drain without rethrowing stored async errors (throwing from a destructor
  // would terminate); an unobserved async failure is dropped here.
  ~Launcher() { drain(); }

  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;

  [[nodiscard]] const DeviceSpec& device() const noexcept { return spec_; }
  [[nodiscard]] unsigned workers() const noexcept { return workers_; }

  /// Attach (or detach, with nullptr) the fault controller consulted by all
  /// subsequently launched kernels. A ScopedFaultController installed on the
  /// launching thread takes precedence (per-request fault lifecycles in
  /// serving loops — see fault_site.hpp); like precision and hazard mode,
  /// whichever controller is effective at launch/enqueue time is snapshotted
  /// for the whole launch.
  void set_fault_controller(FaultController* faults) {
    require_no_sync_inflight("set_fault_controller");
    faults_ = faults;
  }
  [[nodiscard]] FaultController* fault_controller() const noexcept { return faults_; }

  /// Arithmetic precision of subsequently launched kernels (default double;
  /// kSingle simulates a binary32 GPU pipeline — see MathCtx::Precision).
  void set_precision(Precision precision) {
    require_no_sync_inflight("set_precision");
    precision_ = precision;
  }
  [[nodiscard]] Precision precision() const noexcept { return precision_; }

  /// Hazard analysis of subsequently launched kernels (default kOff). Like
  /// the fault controller and precision, async launches snapshot the mode at
  /// enqueue time. Detected hazards accumulate in hazard_records().
  void set_hazard_mode(HazardMode mode) {
    require_no_sync_inflight("set_hazard_mode");
    hazard_mode_ = mode;
  }
  [[nodiscard]] HazardMode hazard_mode() const noexcept { return hazard_mode_; }

  /// Snapshot of the hazards recorded by launches of this launcher so far
  /// (bounded — see HazardSink). Synchronize() first for a complete view of
  /// async work.
  [[nodiscard]] std::vector<HazardRecord> hazard_records() const {
    return hazards_.records();
  }
  [[nodiscard]] std::size_t hazard_count() const { return hazards_.total(); }
  void clear_hazard_records() { hazards_.clear(); }

  /// Run `body(BlockCtx&)` for every block of the grid and wait. Returns op
  /// counts aggregated across blocks and records them in the launch log.
  /// The calling thread participates in executing blocks, so this is safe
  /// (and fast) to call from host functions running on the pool itself.
  template <typename Body>
  LaunchStats launch(const std::string& name, Dim3 grid, Body&& body) {
    AABFT_REQUIRE(grid.count() > 0, "empty grid");
    const std::size_t total = grid.count();
    const SyncInflightGuard inflight(sync_inflight_);

    if (workers_ <= 1 || total == 1) {
      LaunchStats stats;
      stats.kernel_name = name;
      stats.blocks = total;
      FaultController* const faults = effective_faults();
      for (std::size_t i = 0; i < total; ++i) {
        BlockCtx ctx(block_coord(grid, i), grid,
                     static_cast<int>(i % static_cast<std::size_t>(spec_.num_sms)),
                     faults, precision_, spec_.shared_mem_per_block);
        ctx.hazard.init(hazard_mode_, &hazards_, &name, i);
        body(ctx);
        stats.counters += ctx.math.counters();
      }
      append_log(stats);
      return stats;
    }

    Executor& pool = this->pool();
    // The body outlives the wait below, so capture it by reference — no copy
    // of the (potentially large) closure per launch.
    auto task = pool.submit_kernel(
        name, make_env(grid), [&body](BlockCtx& ctx) { body(ctx); });
    pool.wait(task, /*help=*/true);
    if (auto error = task->error()) std::rethrow_exception(error);
    append_log(task->stats());
    return task->stats();
  }

  /// Create a new stream. Streams created from the same launcher share the
  /// worker pool; see the header comment for ordering semantics.
  [[nodiscard]] Stream create_stream() AABFT_EXCLUDES(streams_mu_) {
    (void)pool();  // streams always need the pool, even with one worker
    auto state = std::make_shared<detail::StreamState>();
    {
      core::MutexLock lk(streams_mu_);
      // Drop the streams that are gone: each expired entry would keep its
      // StreamState allocation alive (make_shared), and every batch call
      // creates fresh lanes, so the registry would grow without bound.
      std::erase_if(streams_, [](const auto& weak) { return weak.expired(); });
      streams_.push_back(state);
    }
    return Stream(std::move(state));
  }

  /// Streams in the registry that drain() waits for: the live ones, plus
  /// any dropped since the last create_stream() (a test hook).
  [[nodiscard]] std::size_t registered_streams() const
      AABFT_EXCLUDES(streams_mu_) {
    core::MutexLock lk(streams_mu_);
    return streams_.size();
  }

  /// Enqueue a kernel launch on `stream` and return immediately. The body is
  /// copied (it must own or outlive everything it captures). Counters are
  /// appended to the launch log when the kernel completes.
  template <typename Body>
  void launch_async(Stream& stream, const std::string& name, Dim3 grid,
                    Body&& body) {
    AABFT_REQUIRE(stream.valid(), "stream is not attached to a launcher");
    AABFT_REQUIRE(grid.count() > 0, "empty grid");
    detail::StreamState::Op op;
    op.is_kernel = true;
    op.name = name;
    op.env = make_env(grid);
    op.body = Executor::KernelBody(std::forward<Body>(body));
    op.on_complete = [this](const LaunchStats& stats, std::exception_ptr error) {
      if (error)
        note_async_error(error);
      else
        append_log(stats);
    };
    detail::stream_enqueue(stream.state_, pool(), std::move(op));
  }

  /// Enqueue a host function on `stream` (not logged as a kernel). Host
  /// functions may perform nested synchronous launch() calls; they run under
  /// the enqueuing thread's ScopedFaultController override (none when it had
  /// none), so nested launches resolve the controller as they would have on
  /// that thread.
  void launch_host_async(Stream& stream, std::string name,
                         std::function<void()> fn) {
    AABFT_REQUIRE(stream.valid(), "stream is not attached to a launcher");
    detail::StreamState::Op op;
    op.is_kernel = false;
    op.name = std::move(name);
    op.host = [faults = thread_fault_controller(), fn = std::move(fn)] {
      ScopedFaultController scope(faults);
      fn();
    };
    op.on_complete = [this](const LaunchStats&, std::exception_ptr error) {
      if (error) note_async_error(error);
    };
    detail::stream_enqueue(stream.state_, pool(), std::move(op));
  }

  /// Wait until every stream created from this launcher is idle, then rethrow
  /// the first exception any async kernel/host task raised since the last
  /// synchronize() (hazard aborts, shared-memory overflows, ...).
  void synchronize() AABFT_EXCLUDES(async_error_mu_) {
    drain();
    std::exception_ptr error;
    {
      core::MutexLock lk(async_error_mu_);
      error = std::exchange(async_error_, nullptr);
    }
    if (error) std::rethrow_exception(error);
  }

  /// Launch log: one entry per completed kernel launch since the last clear.
  /// Returns a snapshot copy (see the thread-safety contract above).
  [[nodiscard]] std::vector<LaunchStats> launch_log() const
      AABFT_EXCLUDES(log_mu_) {
    core::MutexLock lk(log_mu_);
    return log_;
  }
  void clear_launch_log() AABFT_EXCLUDES(log_mu_) {
    core::MutexLock lk(log_mu_);
    log_.clear();
  }

 private:
  /// RAII in-flight marker for synchronous launches (the counter the
  /// reconfiguration assertions check). Async work is exempt: it snapshots
  /// its environment at enqueue time.
  class SyncInflightGuard {
   public:
    explicit SyncInflightGuard(std::atomic<int>& count) noexcept
        : count_(count) {
      count_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~SyncInflightGuard() { count_.fetch_sub(1, std::memory_order_acq_rel); }
    SyncInflightGuard(const SyncInflightGuard&) = delete;
    SyncInflightGuard& operator=(const SyncInflightGuard&) = delete;

   private:
    std::atomic<int>& count_;
  };

  void require_no_sync_inflight(const char* setter) const {
    AABFT_REQUIRE(sync_inflight_.load(std::memory_order_acquire) == 0,
                  (std::string(setter) +
                   "() while a synchronous launch is in flight — reconfigure "
                   "the launcher only between launches")
                      .c_str());
  }

  void note_async_error(std::exception_ptr error)
      AABFT_EXCLUDES(async_error_mu_) {
    core::MutexLock lk(async_error_mu_);
    if (!async_error_) async_error_ = error;
  }

  /// Wait until every stream created from this launcher is idle, without
  /// rethrowing stored async errors (destructor-safe).
  void drain() AABFT_EXCLUDES(streams_mu_) {
    std::vector<std::weak_ptr<detail::StreamState>> streams;
    {
      core::MutexLock lk(streams_mu_);
      streams = streams_;
    }
    // stream_synchronize (rank kDeviceStream) runs with streams_mu_ released:
    // waiting for stream idleness while holding the registry lock would stall
    // create_stream() on other threads for the whole drain.
    for (auto& weak : streams)
      if (auto state = weak.lock()) detail::stream_synchronize(state);
  }

  /// The controller for work initiated by the calling thread: its
  /// ScopedFaultController override when one is installed, else the
  /// launcher-attached controller.
  [[nodiscard]] FaultController* effective_faults() const noexcept {
    if (FaultController* scoped = thread_fault_controller()) return scoped;
    return faults_;
  }

  [[nodiscard]] Executor::Env make_env(Dim3 grid) noexcept {
    Executor::Env env;
    env.grid = grid;
    env.num_sms = spec_.num_sms;
    env.shared_limit = spec_.shared_mem_per_block;
    env.faults = effective_faults();
    env.precision = precision_;
    env.hazard_mode = hazard_mode_;
    env.hazard_sink = &hazards_;
    return env;
  }

  Executor& pool() {
    std::call_once(pool_once_, [this] {
      pool_ = std::make_unique<Executor>(workers_);
    });
    return *pool_;
  }

  void append_log(const LaunchStats& stats) AABFT_EXCLUDES(log_mu_) {
    core::MutexLock lk(log_mu_);
    log_.push_back(stats);
  }

  DeviceSpec spec_;
  unsigned workers_;
  FaultController* faults_ = nullptr;
  Precision precision_ = Precision::kDouble;
  HazardMode hazard_mode_ = HazardMode::kOff;
  HazardSink hazards_;
  std::atomic<int> sync_inflight_{0};

  core::Mutex async_error_mu_{core::LockRank::kDeviceAsyncError,
                              "device.async_error"};
  std::exception_ptr async_error_ AABFT_GUARDED_BY(async_error_mu_);

  std::once_flag pool_once_;
  std::unique_ptr<Executor> pool_;

  mutable core::Mutex streams_mu_{core::LockRank::kDeviceStreams,
                                  "device.streams"};
  std::vector<std::weak_ptr<detail::StreamState>> streams_
      AABFT_GUARDED_BY(streams_mu_);

  mutable core::Mutex log_mu_{core::LockRank::kDeviceLog, "device.log"};
  std::vector<LaunchStats> log_ AABFT_GUARDED_BY(log_mu_);
};

}  // namespace aabft::gpusim
