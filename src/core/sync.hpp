// Annotated synchronisation primitives with lock-rank validation
// (DESIGN.md §11).
//
// core::Mutex wraps std::mutex with two compile/run-time contracts layered on
// top:
//
//   1. **Thread-safety capability** (Clang -Wthread-safety): the class is an
//      AABFT_CAPABILITY, so shared fields can be declared
//      AABFT_GUARDED_BY(mu_) and the analysis proves every access happens
//      under the lock. Locking goes through the RAII guards below
//      (core::MutexLock / core::UniqueLock) — never bare lock()/unlock()
//      pairs in client code.
//
//   2. **Lock-rank validation** (runtime, all builds unless
//      AABFT_NO_LOCK_RANK_CHECKS is defined): every Mutex carries a
//      documented LockRank; a thread may only acquire a mutex whose rank is
//      *strictly greater* than every lock it already holds. Acquiring out of
//      order — the shape every cross-subsystem deadlock in a collector
//      /dispatcher system takes — throws LockOrderError naming both locks
//      and the full held stack, so a seeded inversion aborts the test that
//      introduced it instead of deadlocking a soak run years later. The
//      validator is a per-thread vector push/pop plus one integer compare per
//      acquisition — noise next to the cost of the lock itself — which is why
//      it stays on outside of explicitly opted-out builds (the TSan lane
//      inherits it for free).
//
// The rank bands (gaps left for future locks; a lock may nest inside any
// lock of a *lower* band):
//
//   100..199  fleet control plane   (FleetServer stop / chaos / store /
//                                    router / cache map / inflight /
//                                    telemetry)
//   200..299  serve layer           (GemmServer stop / pause / request queue
//                                    / stats recorders)
//   300..399  device layer (gpusim) (stream FIFO / executor pool / task
//                                    completion / launcher registries / logs
//                                    / hazard sink)
//
// Fleet holds its stop lock across per-shard server shutdown, and serve holds
// its stop lock across queue close — hence fleet < serve < device. Locks
// within one band never nest (each critical section is self-contained); the
// strict ordering check also rejects recursive acquisition of the same
// mutex.
#pragma once

#include <condition_variable>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/thread_annotations.hpp"

namespace aabft::core {

/// Documented acquisition order (see the band table above). Values are
/// compared numerically: a thread holding rank R may only acquire ranks > R.
enum class LockRank : int {
  // -- fleet control plane (src/fleet) --
  kFleetControl = 100,   ///< FleetServer::stop_mu_ (held across shard stops)
  kFleetChaos = 110,     ///< chaos RNG draw per injected fault
  kFleetRouter = 120,    ///< ShardRouter shape-affinity map
  kFleetOperandStore = 130,  ///< OperandStore stripe index
  kFleetCacheMap = 135,  ///< fleet-handle -> per-shard serve-cache handle map
  kFleetInflight = 150,  ///< per-shard admitted-uncollected collector deque
  kFleetTelemetry = 160, ///< per-shard fleet e2e latency recorder

  // -- serve layer (src/serve) --
  kServeControl = 200,   ///< GemmServer::stop_mu_ (held across queue close)
  kServePause = 210,     ///< dispatcher pause/resume gate
  kServeQueue = 220,     ///< BoundedRequestQueue buckets
  kServeOpCache = 225,   ///< OperandCache index + LRU bookkeeping
  kServeStats = 230,     ///< StatsBoard latency recorders

  // -- device layer (src/gpusim) --
  kDeviceStream = 300,   ///< StreamState FIFO + in-flight flag
  kDeviceExecutor = 310, ///< Executor ready queue
  kDeviceTask = 320,     ///< per-task counter merge + completion
  kDeviceStreams = 330,  ///< Launcher stream registry
  kDeviceLog = 340,      ///< Launcher launch log
  kDeviceAsyncError = 350,  ///< Launcher stored async failure
  kDeviceHazard = 360,   ///< HazardSink record buffer

  // -- kernel-local state (stack mutexes inside one launch) --
  kKernelReduction = 400,  ///< per-launch result-merge locks in block bodies
};

/// Thrown (debug validator, all builds unless opted out) when a thread
/// acquires mutexes against the documented rank order — the compile-time
/// annotations' runtime companion for ordering, which Clang's analysis does
/// not model.
class LockOrderError : public std::logic_error {
 public:
  explicit LockOrderError(std::string what) : std::logic_error(std::move(what)) {}
};

#if !defined(AABFT_NO_LOCK_RANK_CHECKS)
#define AABFT_LOCK_RANK_CHECKS 1
#endif

namespace detail {

struct HeldLock {
  int rank;
  const char* name;
  const void* mutex;
};

#if AABFT_LOCK_RANK_CHECKS
inline thread_local std::vector<HeldLock> t_held_locks;

/// Validate-and-record one acquisition. The held stack is strictly
/// increasing by construction, so its back is the highest-ranked held lock.
inline void note_acquire(int rank, const char* name, const void* mutex) {
  auto& held = t_held_locks;
  if (!held.empty() && held.back().rank >= rank) {
    std::string what = "LockOrderError: acquiring '" + std::string(name) +
                       "' (rank " + std::to_string(rank) +
                       ") while holding '" + std::string(held.back().name) +
                       "' (rank " + std::to_string(held.back().rank) +
                       "); ranks must strictly increase. Held stack:";
    for (const HeldLock& h : held)
      what += " '" + std::string(h.name) + "'(" + std::to_string(h.rank) + ")";
    throw LockOrderError(std::move(what));
  }
  held.push_back(HeldLock{rank, name, mutex});
}

inline void note_release(const void* mutex) noexcept {
  auto& held = t_held_locks;
  for (std::size_t i = held.size(); i-- > 0;)
    if (held[i].mutex == mutex) {
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
}
#else
inline void note_acquire(int, const char*, const void*) {}
inline void note_release(const void*) noexcept {}
#endif

}  // namespace detail

/// Number of core::Mutex locks the calling thread currently holds (0 with
/// rank checks compiled out). Test hook: a clean soak must end every thread
/// at 0, and RAII guards must restore it on every path.
[[nodiscard]] inline std::size_t held_lock_count() noexcept {
#if AABFT_LOCK_RANK_CHECKS
  return detail::t_held_locks.size();
#else
  return 0;
#endif
}

/// Names of the calling thread's held locks, innermost last (empty with rank
/// checks compiled out).
[[nodiscard]] inline std::vector<std::string> held_lock_names() {
  std::vector<std::string> names;
#if AABFT_LOCK_RANK_CHECKS
  names.reserve(detail::t_held_locks.size());
  for (const auto& h : detail::t_held_locks) names.emplace_back(h.name);
#endif
  return names;
}

/// std::mutex with a thread-safety capability and a documented rank. Lock it
/// through MutexLock / UniqueLock; the raw lock()/unlock() surface exists for
/// the guards and for tests of the validator itself.
class AABFT_CAPABILITY("mutex") Mutex {
 public:
  Mutex(LockRank rank, const char* name) noexcept
      : rank_(static_cast<int>(rank)), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() AABFT_ACQUIRE() {
    detail::note_acquire(rank_, name_, this);  // throws before blocking
    m_.lock();
  }
  void unlock() AABFT_RELEASE() {
    m_.unlock();
    detail::note_release(this);
  }
  [[nodiscard]] bool try_lock() AABFT_TRY_ACQUIRE(true) {
    detail::note_acquire(rank_, name_, this);
    if (m_.try_lock()) return true;
    detail::note_release(this);
    return false;
  }

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] const char* name() const noexcept { return name_; }

 private:
  friend class CondVar;
  friend class UniqueLock;
  std::mutex m_;
  const int rank_;
  const char* const name_;
};

/// std::lock_guard equivalent over core::Mutex (scoped capability).
class AABFT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) AABFT_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() AABFT_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// std::unique_lock equivalent over core::Mutex: relockable (CondVar waits
/// need the underlying std::unique_lock) and manually unlockable.
class AABFT_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) AABFT_ACQUIRE(mu)
      : mu_(mu), lk_(mu.m_, std::defer_lock) {
    lock_impl();
  }
  ~UniqueLock() AABFT_RELEASE() {
    if (lk_.owns_lock()) unlock_impl();
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() AABFT_ACQUIRE() { lock_impl(); }
  void unlock() AABFT_RELEASE() { unlock_impl(); }
  [[nodiscard]] bool owns_lock() const noexcept { return lk_.owns_lock(); }

 private:
  friend class CondVar;

  void lock_impl() {
    detail::note_acquire(mu_.rank(), mu_.name(), &mu_);
    lk_.lock();
  }
  void unlock_impl() {
    lk_.unlock();
    detail::note_release(&mu_);
  }

  Mutex& mu_;
  std::unique_lock<std::mutex> lk_;
};

/// Condition variable over core::Mutex. The predicate-free wait/wait_until
/// primitives keep guarded-field predicates *in the calling function's body*
/// (as explicit while-loops), where Clang's analysis can see the lock held —
/// a lambda predicate would be analysed as a separate unannotated function
/// and flagged. While blocked, the waiting thread's rank stack still lists
/// the mutex (the internal release/reacquire is invisible to the validator);
/// that is sound because ordering was validated at the original acquisition
/// and a blocked thread acquires nothing.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(UniqueLock& lk) { cv_.wait(lk.lk_); }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      UniqueLock& lk, const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(lk.lk_, deadline);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace aabft::core
