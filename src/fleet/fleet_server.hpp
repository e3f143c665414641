// FleetServer: N launcher "devices", each fronted by its own GemmServer,
// behind one fleet-wide front door — the device-level failure-domain layer
// on top of the element-level A-ABFT recovery ladder (DESIGN.md §9).
//
// Request path: submit() routes by load and health (ShardRouter) and then,
// on the caller's thread, resolves erasure-coded operand handles against the
// OperandStore and submits straight to the chosen shard's GemmServer, whose
// bounded queue is the only queue a request waits in. The admitted response
// future joins the shard's *collector* deque; the collector thread harvests
// responses in admission order, feeds the health model, and fulfils the
// fleet future.
//
// Failure domains: every device is a distinct gpusim::Launcher with its own
// worker pool, so per-request ScopedFaultControllers (and injected chaos
// faults) are scoped to one device and can never fire on another. When a
// device's EWMA correction rate spikes past the fence threshold — or
// force_fail() simulates an abrupt loss — the fleet fences it: the router
// stops placing there, responses the device returns after the fence are
// discarded and replayed on surviving shards, and the operand store
// reconstructs any operand stripes it held from XOR parity, bit-identically.
// Clients see only slower responses, never wrong ones.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/latency.hpp"
#include "core/result.hpp"
#include "core/rng.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "fleet/health.hpp"
#include "fleet/parity.hpp"
#include "fleet/router.hpp"
#include "fleet/telemetry.hpp"
#include "gpusim/kernel.hpp"
#include "serve/server.hpp"

namespace aabft::fleet {

struct FleetConfig {
  std::size_t devices = 3;          ///< launcher shards (>= 3 for parity)
  unsigned workers_per_device = 2;  ///< worker threads per simulated device
  gpusim::DeviceSpec device_spec = gpusim::k20c();
  serve::ServeConfig serve;  ///< per-shard server configuration
  HealthConfig health;
  RouterConfig router;
  std::size_t replay_budget = 2;     ///< re-run attempts per failed response
  std::uint64_t chaos_seed = 0x51cb75Full;  ///< device-corruption RNG seed
};

/// A fleet submission: a normal serve request whose operands may instead be
/// references into the fleet's erasure-coded operand store (set a handle and
/// leave the corresponding matrix empty).
struct FleetRequest {
  static constexpr std::uint64_t kInlineOperand = ~0ull;
  serve::GemmRequest request;
  std::uint64_t a_handle = kInlineOperand;
  std::uint64_t b_handle = kInlineOperand;
};

struct FleetResponse {
  serve::GemmResponse response;
  std::size_t shard = 0;  ///< shard whose result was accepted
  std::size_t replays = 0;
  /// An operand stripe was rebuilt from parity to serve this response.
  bool operands_reconstructed = false;
};

class FleetServer {
 public:
  explicit FleetServer(FleetConfig config = {});
  ~FleetServer();
  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Stripe an operand across the fleet with XOR parity; the handle goes in
  /// FleetRequest::a_handle / b_handle. Content-addressed: re-registering an
  /// identical matrix returns the existing handle. GEMM A handles also feed
  /// the per-shard serve-layer operand caches — the first dispatch on a
  /// shard encodes once, later dispatches reuse the cached checksums.
  [[nodiscard]] std::uint64_t register_operand(const linalg::Matrix& m) {
    return store_.put(m);
  }

  /// Route, resolve the operands and admit to the chosen shard's server.
  /// Refusals are values: kUnavailable (every device fenced, the fleet is
  /// stopping, or an operand lost too many stripes), kInvalidArgument
  /// (unknown operand handle), and the shard server's own admission
  /// refusals — kOverloaded (its queue is full), kShapeMismatch,
  /// kUnsupportedOp. Exactly one response answers every accepted submit,
  /// also one that races stop().
  [[nodiscard]] Result<std::future<FleetResponse>> submit(FleetRequest req);

  /// Abrupt device loss: fence `shard` now. Work already admitted there
  /// still runs, but its responses are discarded and replayed on survivors;
  /// stored operand stripes reconstruct from parity. Idempotent.
  void force_fail(std::size_t shard);

  /// Chaos: arm `faults_per_request` device-corruption faults on every
  /// subsequent request dispatched to `shard` (modelling a device whose
  /// hardware has gone bad). The health model should fence it autonomously.
  void inject_device_faults(std::size_t shard, std::size_t faults_per_request);

  /// Refuse new work, collect every admitted response, join the collector
  /// threads and stop the per-shard servers. Idempotent; the destructor
  /// calls it.
  void stop();

  [[nodiscard]] FleetStats stats() const;
  [[nodiscard]] std::string telemetry_json() const { return to_json(stats()); }
  [[nodiscard]] std::size_t devices() const noexcept { return shards_.size(); }
  [[nodiscard]] bool fenced(std::size_t shard) const {
    return shards_[shard]->fenced.load(std::memory_order_acquire);
  }
  [[nodiscard]] const OperandStore& operand_store() const noexcept {
    return store_;
  }
  [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }

 private:
  struct Job {
    FleetRequest req;  ///< pristine client request (operands retained)
    std::uint64_t fleet_id = 0;
    std::promise<FleetResponse> promise;
    std::chrono::steady_clock::time_point submitted_at;
  };

  struct Inflight {
    Job job;
    std::future<serve::GemmResponse> fut;
    std::size_t chaos_armed = 0;  ///< fleet-injected faults on this dispatch
    bool reconstructed = false;   ///< operands came through a parity rebuild
  };

  struct Shard {
    std::size_t index = 0;
    std::unique_ptr<gpusim::Launcher> launcher;
    std::unique_ptr<serve::GemmServer> server;
    DeviceHealth health;
    std::atomic<bool> fenced{false};
    std::atomic<std::size_t> chaos_faults{0};
    std::atomic<std::uint64_t> routed{0};
    std::atomic<std::uint64_t> replayed{0};

    /// Admitted, not yet collected, in admission order: the collector's
    /// work list.
    core::Mutex inflight_mu{core::LockRank::kFleetInflight, "fleet.inflight"};
    core::CondVar inflight_cv;
    std::deque<Inflight> inflight AABFT_GUARDED_BY(inflight_mu);
    std::atomic<std::size_t> inflight_count{0};  ///< lock-free load signal
    /// Set by stop(): the collector drains the deque and exits, and a
    /// submit that finds it set collects its own response.
    bool closed AABFT_GUARDED_BY(inflight_mu) = false;

    mutable core::Mutex e2e_mu{core::LockRank::kFleetTelemetry, "fleet.e2e"};
    LatencyRecorder fleet_e2e_ns AABFT_GUARDED_BY(e2e_mu);

    std::thread collector;

    explicit Shard(HealthConfig health_config) : health(health_config) {}
  };

  void collector_loop(Shard& shard);
  /// Wait for one admitted response, judge it (health, fence, replay when
  /// the shard is fenced or the response failed) and fulfil the job.
  void collect(Shard& shard, Inflight&& item);
  void fence(std::size_t shard);
  /// Resolve a job's operands into a dispatchable request (parity
  /// reconstruction when a holding shard is fenced).
  [[nodiscard]] Result<serve::GemmRequest> resolve(const Job& job,
                                                   bool& reconstructed) const;
  /// resolve() plus the operand-cache fast path for the dispatch target: a
  /// GEMM A handle maps to `shard`'s serve-cache handle (registered on first
  /// use), so the request ships without the matrix and the shard reuses its
  /// cached checksum encode. A store-epoch bump (any fence) forces
  /// revalidation; an A that came back through parity reconstruction
  /// invalidates the shard's cached entry before re-registering.
  [[nodiscard]] Result<serve::GemmRequest> resolve_for(const Job& job,
                                                       std::size_t shard,
                                                       bool& reconstructed);
  /// Forget a shard's serve-cache mapping for a fleet handle (after the
  /// serve cache evicted or invalidated the entry underneath us).
  void drop_cache_mapping(std::uint64_t fleet_handle, std::size_t shard)
      AABFT_EXCLUDES(cache_map_mu_);
  /// resolve_for(), chaos faults armed for `shard`, and admission to its
  /// server — resolved and submitted once more when the shard's serve cache
  /// evicted the mapped A entry between resolution and admission.
  [[nodiscard]] Result<std::future<serve::GemmResponse>> dispatch(
      const Job& job, Shard& shard, bool& reconstructed,
      std::size_t& chaos_armed);
  /// Device-corruption chaos: append `shard`'s injected faults to the
  /// request's fault plan. Returns how many were armed.
  std::size_t arm_chaos(const Shard& shard, serve::GemmRequest& req)
      AABFT_EXCLUDES(chaos_mu_);
  /// Run the job synchronously on the healthiest surviving shard (the replay
  /// path for fenced/failed responses). Fulfils nothing — returns the
  /// response for the caller to judge.
  [[nodiscard]] serve::GemmResponse replay_on_survivor(
      const Job& job, std::size_t exclude, std::size_t& served_by,
      std::size_t& replays, bool& reconstructed);
  void finish(Shard& collector_shard, Job&& job, serve::GemmResponse&& resp,
              std::size_t served_by, std::size_t replays, bool reconstructed);
  [[nodiscard]] std::vector<ShardLoad> shard_loads() const;
  [[nodiscard]] std::vector<double> availabilities() const;
  [[nodiscard]] serve::ShapeKey route_key(const FleetRequest& req) const;

  FleetConfig config_;
  OperandStore store_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// One slot per shard: the serve-cache handle this fleet operand maps to
  /// there, and the store epoch the mapping was validated at. 0 = unmapped.
  struct CacheMapEntry {
    std::uint64_t serve_handle = 0;
    std::uint64_t epoch = 0;
  };
  core::Mutex cache_map_mu_{core::LockRank::kFleetCacheMap, "fleet.cache_map"};
  std::unordered_map<std::uint64_t, std::vector<CacheMapEntry>> cache_map_
      AABFT_GUARDED_BY(cache_map_mu_);
  /// Bumped by every fence: mappings validated at an older epoch re-check
  /// the operand store (which is where a reconstruction would surface).
  std::atomic<std::uint64_t> store_epoch_{1};
  core::Mutex chaos_mu_{core::LockRank::kFleetChaos, "fleet.chaos"};
  Rng chaos_rng_ AABFT_GUARDED_BY(chaos_mu_);
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> replays_{0};
  std::atomic<std::size_t> fenced_count_{0};
  std::atomic<bool> stopping_{false};
  core::Mutex stop_mu_{core::LockRank::kFleetControl, "fleet.stop"};
  bool stopped_ AABFT_GUARDED_BY(stop_mu_) = false;
};

}  // namespace aabft::fleet
