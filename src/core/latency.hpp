// Streaming latency recorder: count / mean / quantiles / max over a fixed
// log-bucket histogram (an HDR-histogram-lite).
//
// Values (nanoseconds, but any non-negative integer works) are binned into
// power-of-two octaves, each split into 2^kSubBits linear sub-buckets, so a
// quantile read is exact for values < 2^kSubBits and within a relative
// 2^-kSubBits (0.78 %) of the true value everywhere else — fine enough that
// p50/p95/p99 of nearby distributions read apart, with 59 KB of fixed state
// per recorder and O(1) inserts.
//
// Thread-ownership model: a recorder is NOT internally synchronized. Each
// thread records into its own instance; aggregation merges them (merge() is
// exact: histograms, counts, sums and maxima all add/compose losslessly).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace aabft {

class LatencyRecorder {
 public:
  static constexpr std::size_t kSubBits = 7;  ///< 128 sub-buckets per octave

  void record(std::uint64_t value) noexcept {
    ++count_;
    sum_ += value;
    max_ = std::max(max_, value);
    ++buckets_[bucket_of(value)];
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }

  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Value at quantile q in [0, 1]: the lower bound of the bucket holding
  /// the ceil(q * count)-th smallest sample (0 when empty). At most
  /// 2^-kSubBits below the true sample value.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept {
    if (count_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(q * static_cast<double>(count_) + 0.999999));
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      cumulative += buckets_[i];
      if (cumulative >= rank) return lower_bound_of(i);
    }
    return max_;
  }

  [[nodiscard]] std::uint64_t p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] std::uint64_t p95() const noexcept { return quantile(0.95); }
  [[nodiscard]] std::uint64_t p99() const noexcept { return quantile(0.99); }

  /// Exact aggregation of another recorder into this one.
  void merge(const LatencyRecorder& other) noexcept {
    count_ += other.count_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  }

  void reset() noexcept { *this = LatencyRecorder{}; }

 private:
  // Octave of the value's most significant bit, split into 2^kSubBits linear
  // sub-buckets; values below 2^kSubBits get one exact bucket each. Indices
  // are contiguous and monotone in the value.
  static constexpr std::size_t kBuckets =
      ((64 - kSubBits + 1) << kSubBits);  // last octave: msb = 63

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v < (std::uint64_t{1} << kSubBits)) return static_cast<std::size_t>(v);
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned shift = msb - kSubBits;
    const auto sub =
        static_cast<std::size_t>((v >> shift) & ((std::uint64_t{1} << kSubBits) - 1));
    return ((static_cast<std::size_t>(msb) - kSubBits + 1) << kSubBits) + sub;
  }

  [[nodiscard]] static std::uint64_t lower_bound_of(std::size_t bucket) noexcept {
    const std::size_t group = bucket >> kSubBits;
    const std::uint64_t sub = bucket & ((std::size_t{1} << kSubBits) - 1);
    if (group == 0) return sub;  // exact small-value buckets
    const unsigned msb = static_cast<unsigned>(group) + kSubBits - 1;
    return (std::uint64_t{1} << msb) + (sub << (msb - kSubBits));
  }

  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

}  // namespace aabft
