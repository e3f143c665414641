#include "serve/opcache/opcache.hpp"

#include <string>
#include <utility>

#include "abft/fused_gemm.hpp"
#include "abft/padding.hpp"
#include "serve/opcache/fingerprint.hpp"

namespace aabft::serve::opcache {
namespace {

[[nodiscard]] std::size_t matrix_bytes(const linalg::Matrix& m) noexcept {
  return m.rows() * m.cols() * sizeof(double);
}

}  // namespace

OperandCache::OperandCache(gpusim::Launcher& launcher,
                           const abft::AabftConfig& aabft,
                           OpCacheConfig config, StatsBoard* stats)
    : launcher_(launcher),
      aabft_(aabft),
      config_(config),
      codec_(aabft.bs),
      stats_(stats) {}

Result<std::uint64_t> OperandCache::register_operand(const linalg::Matrix& a) {
  if (!config_.enabled)
    return Error{ErrorCode::kUnavailable, "operand cache is disabled"};
  if (a.rows() == 0 || a.cols() == 0)
    return Error{ErrorCode::kInvalidArgument,
                 "cannot register an empty operand"};
  const std::uint64_t fp = fingerprint_matrix(a);
  {
    core::MutexLock lk(mu_);
    auto it = fp_index_.find(fp);
    if (it != fp_index_.end()) {
      entries_.at(it->second)->last_used = ++epoch_;
      return it->second;
    }
  }

  // Encode outside the lock: the light encode launches kernels and is the
  // whole point of the one-time cost.
  auto entry = std::make_shared<Entry>();
  entry->fingerprint = fp;
  entry->orig_rows = a.rows();
  entry->orig_cols = a.cols();
  const std::size_t padded_rows = abft::padded_dim(a.rows(), aabft_.bs);
  entry->padded =
      padded_rows == a.rows() ? a : abft::pad_to(a, padded_rows, a.cols());
  entry->light =
      abft::encode_columns_light(launcher_, entry->padded, codec_, aabft_.p);
  entry->bytes = matrix_bytes(entry->padded) + matrix_bytes(entry->light.sums) +
                 entry->light.pmax.size() * sizeof(abft::PMaxList);
  if (entry->bytes > config_.byte_budget)
    return Error{ErrorCode::kOverloaded,
                 "operand entry of " + std::to_string(entry->bytes) +
                     " bytes exceeds the cache byte budget of " +
                     std::to_string(config_.byte_budget)};

  core::MutexLock lk(mu_);
  // A concurrent registration of the same content may have won the race
  // while we encoded; dedup to its handle and drop our duplicate work.
  auto again = fp_index_.find(fp);
  if (again != fp_index_.end()) {
    entries_.at(again->second)->last_used = ++epoch_;
    return again->second;
  }
  const std::uint64_t handle = next_handle_++;
  entry->handle = handle;
  entry->last_used = ++epoch_;
  bytes_ += entry->bytes;
  if (stats_) {
    StatsBoard::bump(stats_->opcache_registered);
    StatsBoard::bump(stats_->opcache_bytes, entry->bytes);
  }
  fp_index_.emplace(fp, handle);
  entries_.emplace(handle, std::move(entry));
  evict_locked(handle);
  return handle;
}

std::optional<std::uint64_t> OperandCache::lookup(std::uint64_t fingerprint) {
  core::MutexLock lk(mu_);
  auto it = fp_index_.find(fingerprint);
  if (it == fp_index_.end()) {
    if (stats_) StatsBoard::bump(stats_->opcache_misses);
    return std::nullopt;
  }
  return it->second;
}

OperandCache::Pin OperandCache::acquire(std::uint64_t handle, bool count_hit) {
  std::shared_ptr<Entry> sp;
  {
    core::MutexLock lk(mu_);
    auto it = entries_.find(handle);
    if (it == entries_.end()) return nullptr;
    sp = it->second;
    sp->last_used = ++epoch_;
    // 0 -> 1 transition charges the pinned-bytes gauge once per entry, not
    // per pin; the matching 1 -> 0 release in unpin() retires it.
    if (sp->pins.fetch_add(1, std::memory_order_acq_rel) == 0 && stats_)
      StatsBoard::bump(stats_->opcache_pinned_bytes, sp->bytes);
  }
  if (count_hit && stats_) StatsBoard::bump(stats_->opcache_hits);
  // The aliasing control block captures `sp` (keeping the storage alive even
  // past eviction/invalidation) and unpins on release without locking.
  const OperandCache* self = this;
  return Pin(sp.get(),
             [self, sp](const Entry*) noexcept { self->unpin(*sp); });
}

void OperandCache::unpin(const Entry& entry) const noexcept {
  if (entry.pins.fetch_sub(1, std::memory_order_acq_rel) == 1 && stats_)
    StatsBoard::drop(stats_->opcache_pinned_bytes, entry.bytes);
}

bool OperandCache::invalidate(std::uint64_t handle) {
  std::shared_ptr<Entry> sp;
  {
    core::MutexLock lk(mu_);
    auto it = entries_.find(handle);
    if (it == entries_.end()) return false;
    sp = std::move(it->second);
    entries_.erase(it);
    fp_index_.erase(sp->fingerprint);
    bytes_ -= sp->bytes;
  }
  if (stats_) {
    StatsBoard::bump(stats_->opcache_invalidations);
    StatsBoard::drop(stats_->opcache_bytes, sp->bytes);
  }
  return true;
}

void OperandCache::evict_locked(std::uint64_t keep) {
  while (bytes_ > config_.byte_budget) {
    std::uint64_t victim = 0;
    std::uint64_t oldest = 0;
    bool found = false;
    for (const auto& [handle, entry] : entries_) {
      if (handle == keep) continue;  // never evict the entry being published
      if (entry->pins.load(std::memory_order_acquire) != 0) continue;
      if (!found || entry->last_used < oldest) {
        victim = handle;
        oldest = entry->last_used;
        found = true;
      }
    }
    // Everything else is pinned by in-flight requests: tolerate transient
    // over-budget rather than strand a batch mid-flight.
    if (!found) return;
    auto it = entries_.find(victim);
    const std::size_t freed = it->second->bytes;
    fp_index_.erase(it->second->fingerprint);
    entries_.erase(it);
    bytes_ -= freed;
    if (stats_) {
      StatsBoard::bump(stats_->opcache_evictions);
      StatsBoard::drop(stats_->opcache_bytes, freed);
    }
  }
}

std::size_t OperandCache::size() const {
  core::MutexLock lk(mu_);
  return entries_.size();
}

std::size_t OperandCache::bytes() const {
  core::MutexLock lk(mu_);
  return bytes_;
}

}  // namespace aabft::serve::opcache
