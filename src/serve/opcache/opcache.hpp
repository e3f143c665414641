// Operand checksum cache: fingerprint-keyed reuse of encoded-operand
// artifacts for repeated-weight serving traffic (DESIGN.md §12).
//
// In inference-shaped serving most requests reuse one operand — a weight
// matrix A multiplied against a stream of activations B — yet each request
// pays the full O(m k) checksum encode of A. This cache converts that
// per-request cost into a one-time cost: register_operand() pads A to a
// checksum-block multiple and runs encode_columns_light once (the compact
// checksum side-buffer + p-max table of the fused pipeline); requests that
// reference the entry (by explicit handle or by content fingerprint) hand
// the cached encode to the multiplier (abft::Operands::a_light) and skip A's
// encode entirely. Results are bit-identical to the cold path: the cached
// sums are exactly what a fresh encode produces, and the sampled consistency
// guard (AabftConfig::cache_verify_every) enforces that invariant in debug
// soaks.
//
// Eviction is LRU under a configurable byte budget, with pin semantics: an
// entry referenced by an admitted-but-unfinished request holds a Pin (a
// shared_ptr whose release unpins), and pinned entries are never evicted —
// the cache tolerates transient over-budget instead of stranding an
// in-flight batch. Invalidation (the fleet layer calls it when an operand is
// reconstructed from parity) removes the entry from the index immediately;
// in-flight pins keep the storage alive until they drain.
//
// Thread model: every index mutation sits under one mutex
// (LockRank::kServeOpCache); encodes run outside the lock (they launch
// kernels). Pin release is lock-free (atomics only) so request teardown
// never touches the cache lock. Counters go to the owning server's
// StatsBoard (hits / misses / registered / evictions / invalidations, plus
// the bytes and pinned-bytes gauges).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>

#include "abft/aabft.hpp"
#include "core/result.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matrix.hpp"
#include "serve/telemetry.hpp"

namespace aabft::serve::opcache {

struct OpCacheConfig {
  /// Master switch; a disabled cache refuses registrations (kUnavailable)
  /// and serves no implicit hits, so every request cold-encodes.
  bool enabled = true;
  /// LRU byte budget over all cached artifacts (padded operand + checksum
  /// side-buffer + p-max table). A single entry larger than the budget is
  /// refused at registration (kOverloaded).
  std::size_t byte_budget = 64ull << 20;
  /// Fingerprint inline GEMM A operands at admission and serve implicit
  /// hits: a request whose A content-matches a registered entry uses the
  /// cached encode without carrying a handle.
  bool implicit_fingerprinting = true;
};

class OperandCache {
 public:
  /// One cached operand. Immutable once published (the index hands out
  /// shared_ptr snapshots); requests borrow `padded` and `light`.
  struct Entry {
    std::uint64_t handle = 0;
    std::uint64_t fingerprint = 0;
    std::size_t orig_rows = 0;  ///< pre-padding extents of the registration
    std::size_t orig_cols = 0;
    linalg::Matrix padded;      ///< rows padded to a checksum-block multiple
    abft::LightEncoded light;   ///< compact checksum side-buffer + p-max
    std::size_t bytes = 0;      ///< budget charge of this entry
    /// Outstanding pins; > 0 blocks eviction. Lock-free so pin release never
    /// takes the cache lock.
    mutable std::atomic<std::size_t> pins{0};
    std::uint64_t last_used = 0;  ///< LRU epoch; cache-mutex-guarded
  };

  /// A pin: holding one keeps the entry's storage alive and blocks its
  /// eviction. Release (destruction) is lock-free. The cache must outlive
  /// every pin it hands out (the owning server guarantees this by draining
  /// its queue before teardown).
  using Pin = std::shared_ptr<const Entry>;

  /// `aabft` supplies the block size and p. `stats` may be null (standalone
  /// use in tests); when set, the cache bumps the opcache_* counters on it.
  OperandCache(gpusim::Launcher& launcher, const abft::AabftConfig& aabft,
               OpCacheConfig config, StatsBoard* stats);
  OperandCache(const OperandCache&) = delete;
  OperandCache& operator=(const OperandCache&) = delete;

  /// Encode and publish an operand; returns its handle (handles start at 1;
  /// 0 means "no handle" in requests). Registrations of content-identical
  /// matrices dedup by fingerprint and return the existing handle. Errors:
  /// kUnavailable (cache disabled), kInvalidArgument (empty operand),
  /// kOverloaded (entry alone exceeds the byte budget).
  [[nodiscard]] Result<std::uint64_t> register_operand(const linalg::Matrix& a)
      AABFT_EXCLUDES(mu_);

  /// Fingerprint-index probe (the implicit-hit path). Returns the handle of
  /// the content-matching entry, or nullopt (counted as a miss; hits are
  /// counted by the acquire that follows).
  [[nodiscard]] std::optional<std::uint64_t> lookup(std::uint64_t fingerprint)
      AABFT_EXCLUDES(mu_);

  /// Pin an entry for an in-flight request. Null when the handle is unknown
  /// or was evicted. Touches the LRU clock; bumps the hit counter unless
  /// `count_hit` is false (internal re-acquisitions).
  [[nodiscard]] Pin acquire(std::uint64_t handle, bool count_hit = true)
      AABFT_EXCLUDES(mu_);

  /// Drop an entry from the index (fleet parity-reconstruction path). False
  /// when the handle is unknown. In-flight pins keep the storage alive; new
  /// requests miss and re-encode.
  bool invalidate(std::uint64_t handle) AABFT_EXCLUDES(mu_);

  [[nodiscard]] std::size_t size() const AABFT_EXCLUDES(mu_);
  [[nodiscard]] std::size_t bytes() const AABFT_EXCLUDES(mu_);
  [[nodiscard]] const OpCacheConfig& config() const noexcept { return config_; }

 private:
  void evict_locked(std::uint64_t keep) AABFT_REQUIRES(mu_);
  void unpin(const Entry& entry) const noexcept;

  gpusim::Launcher& launcher_;
  const abft::AabftConfig aabft_;
  const OpCacheConfig config_;
  abft::PartitionedCodec codec_;
  StatsBoard* stats_;

  mutable core::Mutex mu_{core::LockRank::kServeOpCache, "serve.opcache"};
  std::unordered_map<std::uint64_t, std::shared_ptr<Entry>> entries_
      AABFT_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, std::uint64_t> fp_index_
      AABFT_GUARDED_BY(mu_);
  std::uint64_t next_handle_ AABFT_GUARDED_BY(mu_) = 1;
  std::uint64_t epoch_ AABFT_GUARDED_BY(mu_) = 0;
  std::size_t bytes_ AABFT_GUARDED_BY(mu_) = 0;
};

}  // namespace aabft::serve::opcache
