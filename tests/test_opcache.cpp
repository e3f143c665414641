// Operand checksum cache tests: fingerprinting, register/dedup, LRU byte
// budget with pin semantics, invalidation, the cached-encode multiply's
// bit-identity to the cold pipeline (clean and under 1-8-fault campaigns),
// the sampled cache-consistency guard, the opcache StatsBoard counters, and
// GemmServer end-to-end handle / implicit-hit / batching behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "abft/aabft.hpp"
#include "core/rng.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"
#include "serve/opcache/fingerprint.hpp"
#include "serve/opcache/opcache.hpp"
#include "serve/server.hpp"

namespace {

using namespace aabft;
using namespace aabft::serve;
using gpusim::FaultConfig;
using gpusim::FaultSite;
using gpusim::Launcher;
using linalg::Matrix;
using linalg::naive_matmul;
using linalg::uniform_matrix;
using opcache::OperandCache;
using opcache::OpCacheConfig;

abft::AabftConfig small_aabft() {
  abft::AabftConfig config;
  config.bs = 8;
  config.max_block_recomputes = 1;
  return config;
}

// ---------------------------------------------------------------------------
// Fingerprinting.

TEST(OpCacheFingerprint, EqualContentHashesEqual) {
  Rng rng(11);
  const Matrix a = uniform_matrix(16, 12, -1.0, 1.0, rng);
  Matrix copy = a;
  EXPECT_EQ(opcache::fingerprint_matrix(a), opcache::fingerprint_matrix(copy));
}

TEST(OpCacheFingerprint, ContentAndShapeChangeTheHash) {
  Rng rng(12);
  const Matrix a = uniform_matrix(16, 12, -1.0, 1.0, rng);
  Matrix tweaked = a;
  // One-ulp nudge: the smallest representable content change must already
  // change the fingerprint (an additive epsilon could be absorbed by
  // rounding and leave the bits untouched).
  tweaked(3, 4) = std::nextafter(tweaked(3, 4), 2.0);
  EXPECT_NE(opcache::fingerprint_matrix(a),
            opcache::fingerprint_matrix(tweaked));

  // Same payload bits, different shape: a 16x12 and a 12x16 of the same
  // buffer must not collide (shape is hashed before the payload).
  Matrix reshaped(12, 16);
  for (std::size_t i = 0; i < 12 * 16; ++i)
    reshaped.data()[i] = a.data()[i];
  EXPECT_NE(opcache::fingerprint_matrix(a),
            opcache::fingerprint_matrix(reshaped));
}

// ---------------------------------------------------------------------------
// Cache unit behaviour (standalone, StatsBoard-attached).

TEST(OpCache, RegisterDedupsByContent) {
  Launcher launcher;
  StatsBoard stats;
  OperandCache cache(launcher, small_aabft(), OpCacheConfig{}, &stats);
  Rng rng(21);
  const Matrix a = uniform_matrix(24, 16, -1.0, 1.0, rng);

  auto first = cache.register_operand(a);
  ASSERT_TRUE(first.ok());
  EXPECT_GE(*first, 1u) << "0 is the 'no handle' sentinel";
  auto second = cache.register_operand(a);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(stats.snapshot().opcache_registered, 1u)
      << "dedup must not count as a fresh registration";
}

TEST(OpCache, EntryCarriesPaddedOperandAndItsEncode) {
  Launcher launcher;
  const abft::AabftConfig aabft = small_aabft();
  OperandCache cache(launcher, aabft, OpCacheConfig{}, nullptr);
  Rng rng(22);
  const Matrix a = uniform_matrix(20, 16, -1.0, 1.0, rng);  // pads 20 -> 24

  auto handle = cache.register_operand(a);
  ASSERT_TRUE(handle.ok());
  OperandCache::Pin pin = cache.acquire(*handle);
  ASSERT_TRUE(pin != nullptr);
  EXPECT_EQ(pin->orig_rows, 20u);
  EXPECT_EQ(pin->orig_cols, 16u);
  EXPECT_EQ(pin->padded.rows(), 24u);
  // The cached side-buffer is exactly a fresh light encode of the padded A.
  const abft::LightEncoded fresh = abft::encode_columns_light(
      launcher, pin->padded, abft::PartitionedCodec(aabft.bs), aabft.p);
  EXPECT_EQ(pin->light.sums, fresh.sums);
}

TEST(OpCache, LruEvictsUnpinnedWithinBudgetAndNeverPinned) {
  Launcher launcher;
  StatsBoard stats;
  // Measure one 16x16 entry's real footprint with an unbounded probe cache,
  // then size the budget to fit exactly two entries but not three.
  std::size_t entry_bytes = 0;
  {
    OperandCache probe(launcher, small_aabft(), OpCacheConfig{}, nullptr);
    Rng probe_rng(230);
    auto h = probe.register_operand(uniform_matrix(16, 16, -1.0, 1.0,
                                                   probe_rng));
    ASSERT_TRUE(h.ok());
    entry_bytes = probe.bytes();
    ASSERT_GT(entry_bytes, 0u);
  }
  OpCacheConfig config;
  config.byte_budget = 2 * entry_bytes;
  OperandCache cache(launcher, small_aabft(), config, &stats);
  Rng rng(23);
  const Matrix a = uniform_matrix(16, 16, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(16, 16, -2.0, 2.0, rng);
  const Matrix c = uniform_matrix(16, 16, -3.0, 3.0, rng);

  auto ha = cache.register_operand(a);
  auto hb = cache.register_operand(b);
  ASSERT_TRUE(ha.ok() && hb.ok());
  ASSERT_LE(cache.bytes(), config.byte_budget);

  // Touch a so b is the LRU victim when c arrives.
  { auto pin = cache.acquire(*ha); ASSERT_TRUE(pin != nullptr); }
  auto hc = cache.register_operand(c);
  ASSERT_TRUE(hc.ok());
  EXPECT_LE(cache.bytes(), config.byte_budget);
  EXPECT_TRUE(cache.acquire(*ha, /*count_hit=*/false) != nullptr);
  EXPECT_TRUE(cache.acquire(*hb, /*count_hit=*/false) == nullptr)
      << "the least-recently-used unpinned entry must be the victim";
  EXPECT_GE(stats.snapshot().opcache_evictions, 1u);

  // Pin everything; a further registration must overflow the budget rather
  // than evict a pinned entry, and the pinned entries must stay acquirable.
  auto pa = cache.acquire(*ha, false);
  auto pc = cache.acquire(*hc, false);
  ASSERT_TRUE(pa != nullptr && pc != nullptr);
  Matrix d = uniform_matrix(16, 16, -4.0, 4.0, rng);
  auto hd = cache.register_operand(d);
  ASSERT_TRUE(hd.ok());
  EXPECT_GT(cache.bytes(), config.byte_budget)
      << "with every entry pinned the cache tolerates transient over-budget";
  EXPECT_TRUE(cache.acquire(*ha, false) != nullptr);
  EXPECT_TRUE(cache.acquire(*hc, false) != nullptr);

  // Releasing the pins lets the next registration shrink back under budget.
  pa.reset();
  pc.reset();
  Matrix e = uniform_matrix(16, 16, -5.0, 5.0, rng);
  auto he = cache.register_operand(e);
  ASSERT_TRUE(he.ok());
  EXPECT_LE(cache.bytes(), config.byte_budget);
}

TEST(OpCache, OversizedEntryIsRefused) {
  Launcher launcher;
  OpCacheConfig config;
  config.byte_budget = 1024;  // smaller than any 16x16 entry
  OperandCache cache(launcher, small_aabft(), config, nullptr);
  Rng rng(24);
  const Matrix a = uniform_matrix(16, 16, -1.0, 1.0, rng);
  auto handle = cache.register_operand(a);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.error().code, ErrorCode::kOverloaded);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(OpCache, DisabledCacheRefusesRegistration) {
  Launcher launcher;
  OpCacheConfig config;
  config.enabled = false;
  OperandCache cache(launcher, small_aabft(), config, nullptr);
  Rng rng(25);
  auto handle = cache.register_operand(uniform_matrix(8, 8, -1.0, 1.0, rng));
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.error().code, ErrorCode::kUnavailable);
}

TEST(OpCache, InvalidateRemovesEntryButPinsKeepStorage) {
  Launcher launcher;
  StatsBoard stats;
  OperandCache cache(launcher, small_aabft(), OpCacheConfig{}, &stats);
  Rng rng(26);
  const Matrix a = uniform_matrix(16, 16, -1.0, 1.0, rng);
  auto handle = cache.register_operand(a);
  ASSERT_TRUE(handle.ok());

  OperandCache::Pin pin = cache.acquire(*handle);
  ASSERT_TRUE(pin != nullptr);
  EXPECT_TRUE(cache.invalidate(*handle));
  EXPECT_FALSE(cache.invalidate(*handle)) << "second invalidate: unknown";
  EXPECT_TRUE(cache.acquire(*handle, false) == nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(stats.snapshot().opcache_invalidations, 1u);

  // The pinned snapshot stays readable after the index dropped the entry.
  EXPECT_EQ(pin->padded.rows(), 16u);
  EXPECT_EQ(pin->light.sums.rows(), 2u);
  // A re-registration of the same content gets a *new* handle: the old
  // fingerprint index entry went away with the invalidation.
  auto again = cache.register_operand(a);
  ASSERT_TRUE(again.ok());
  EXPECT_NE(*again, *handle);
}

// ---------------------------------------------------------------------------
// Multiplying with the cached encode: bit-identity to the cold pipeline.

TEST(OpCacheBitIdentity, CachedEncodeMatchesColdCleanRun) {
  Launcher launcher;
  const abft::AabftConfig aabft = small_aabft();
  abft::AabftMultiplier mult(launcher, aabft);
  OperandCache cache(launcher, aabft, OpCacheConfig{}, nullptr);
  Rng rng(31);
  const Matrix a = uniform_matrix(32, 24, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(24, 16, -1.0, 1.0, rng);

  auto cold = mult.multiply(a, b);
  ASSERT_TRUE(cold.ok());

  auto handle = cache.register_operand(a);
  ASSERT_TRUE(handle.ok());
  OperandCache::Pin pin = cache.acquire(*handle);
  ASSERT_TRUE(pin != nullptr);
  auto warm = mult.multiply(pin->padded, b, &pin->light);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->c, cold->c) << "cached encode must not change a single bit";
  EXPECT_EQ(warm->c_fc, cold->c_fc);

  // Batch path, several B's sharing one cached A, beside a cold problem.
  const Matrix b2 = uniform_matrix(24, 16, -2.0, 2.0, rng);
  auto cold2 = mult.multiply(a, b2);
  ASSERT_TRUE(cold2.ok());
  const std::vector<abft::Operands> problems = {
      {&pin->padded, &b, &pin->light},
      {&pin->padded, &b2, &pin->light},
      {&a, &b2}};
  auto batch = mult.multiply_batch(problems);
  ASSERT_EQ(batch.size(), 3u);
  ASSERT_TRUE(batch[0].ok() && batch[1].ok() && batch[2].ok());
  EXPECT_EQ(batch[0]->c, cold->c);
  EXPECT_EQ(batch[1]->c, cold2->c);
  EXPECT_EQ(batch[2]->c, cold2->c);
}

// ---------------------------------------------------------------------------
// The sampled cache-consistency guard.

TEST(OpCache, ConsistencyGuardThrowsOnStaleEntry) {
  Launcher launcher;
  abft::AabftConfig aabft = small_aabft();
  aabft.cache_verify_every = 1;  // verify every problem with a cached encode
  abft::AabftMultiplier mult(launcher, aabft);
  Rng rng(41);
  Matrix a = uniform_matrix(16, 16, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(16, 8, -1.0, 1.0, rng);

  const abft::LightEncoded light = abft::encode_columns_light(
      launcher, a, abft::PartitionedCodec(aabft.bs), aabft.p);
  ASSERT_TRUE(mult.multiply(a, b, &light).ok())
      << "a consistent entry must pass the guard";

  a(0, 0) += 1.0;  // the cached side-buffer is now stale
  EXPECT_THROW((void)mult.multiply(a, b, &light), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// StatsBoard opcache counters.

TEST(OpCacheStats, MergeAndSnapshotCoverOpcacheCounters) {
  StatsBoard board;
  StatsBoard::bump(board.opcache_hits, 5);
  StatsBoard::bump(board.opcache_misses, 3);
  StatsBoard::bump(board.opcache_registered, 2);
  StatsBoard::bump(board.opcache_evictions, 1);
  StatsBoard::bump(board.opcache_invalidations, 4);
  StatsBoard::bump(board.opcache_bytes, 1000);
  StatsBoard::drop(board.opcache_bytes, 100);
  StatsBoard::bump(board.opcache_pinned_bytes, 50);

  const ServerStats snap = board.snapshot();
  EXPECT_EQ(snap.opcache_hits, 5u);
  EXPECT_EQ(snap.opcache_misses, 3u);
  EXPECT_EQ(snap.opcache_registered, 2u);
  EXPECT_EQ(snap.opcache_evictions, 1u);
  EXPECT_EQ(snap.opcache_invalidations, 4u);
  EXPECT_EQ(snap.opcache_bytes, 900u);
  EXPECT_EQ(snap.opcache_pinned_bytes, 50u);

  ServerStats totals;
  merge_into(totals, snap);
  merge_into(totals, snap);
  EXPECT_EQ(totals.opcache_hits, 10u);
  EXPECT_EQ(totals.opcache_misses, 6u);
  EXPECT_EQ(totals.opcache_bytes, 1800u)
      << "gauges add across shards in a fleet total";

  const std::string json = to_json(snap);
  EXPECT_NE(json.find("\"opcache_hits\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"opcache_bytes\": 900"), std::string::npos);
}

TEST(OpCacheStats, ConcurrentBumpsSnapshotWithoutTearing) {
  StatsBoard board;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&board] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        StatsBoard::bump(board.opcache_hits);
        StatsBoard::bump(board.opcache_bytes, 8);
        StatsBoard::drop(board.opcache_bytes, 8);
      }
    });
  // Concurrent snapshots race the writers; TSan verifies no torn reads, and
  // the monotone hit counter can never exceed the final total.
  for (int i = 0; i < 50; ++i) {
    const ServerStats snap = board.snapshot();
    EXPECT_LE(snap.opcache_hits, kThreads * kPerThread);
  }
  for (auto& w : writers) w.join();
  const ServerStats final_snap = board.snapshot();
  EXPECT_EQ(final_snap.opcache_hits, kThreads * kPerThread);
  EXPECT_EQ(final_snap.opcache_bytes, 0u);
}

// ---------------------------------------------------------------------------
// GemmServer end-to-end.

ServeConfig cached_serve_config() {
  ServeConfig config;
  config.aabft = small_aabft();
  config.aabft.max_block_recomputes = 1;
  return config;
}

TEST(OpCacheServe, ExplicitHandleServesBitIdenticalResults) {
  Launcher launcher;
  GemmServer server(launcher, cached_serve_config());
  Rng rng(51);
  // Non-block-multiple rows exercise the pad-at-registration path.
  const Matrix a = uniform_matrix(20, 16, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(16, 12, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  auto handle = server.register_operand(a);
  ASSERT_TRUE(handle.ok());

  GemmRequest request;
  request.a_handle = *handle;  // a stays empty: the handle stands in
  request.b = b;
  auto admitted = server.submit(std::move(request));
  ASSERT_TRUE(admitted.ok());
  const GemmResponse response = admitted->get();
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_TRUE(response.trace.cache_hit);
  EXPECT_EQ(response.c.rows(), 20u);
  EXPECT_EQ(response.c, ref) << "cached path must be bit-identical";

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.opcache_hits, 1u);
  EXPECT_EQ(stats.opcache_registered, 1u);
}

TEST(OpCacheServe, InlineOperandHitsImplicitlyByFingerprint) {
  Launcher launcher;
  GemmServer server(launcher, cached_serve_config());
  Rng rng(52);
  const Matrix a = uniform_matrix(16, 16, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(16, 8, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  ASSERT_TRUE(server.register_operand(a).ok());
  GemmRequest request;
  request.a = a;  // inline operand, same content as the registered entry
  request.b = b;
  auto admitted = server.submit(std::move(request));
  ASSERT_TRUE(admitted.ok());
  const GemmResponse response = admitted->get();
  EXPECT_EQ(response.c, ref);
  EXPECT_TRUE(response.trace.cache_hit);
  EXPECT_GE(server.stats().opcache_hits, 1u);
}

TEST(OpCacheServe, UnknownHandleIsRefusedAtAdmission) {
  Launcher launcher;
  GemmServer server(launcher, cached_serve_config());
  Rng rng(53);
  GemmRequest request;
  request.a_handle = 777;  // never registered
  request.b = uniform_matrix(16, 8, -1.0, 1.0, rng);
  auto admitted = server.submit(std::move(request));
  ASSERT_FALSE(admitted.ok());
  EXPECT_EQ(admitted.error().code, ErrorCode::kInvalidArgument);

  // Handles stand in for GEMM A operands only.
  GemmRequest syrk;
  syrk.kind = OpKind::kSyrk;
  syrk.a_handle = 1;
  auto refused = server.submit(std::move(syrk));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, ErrorCode::kInvalidArgument);
}

TEST(OpCacheServe, HandleRequestsCoalesceIntoOneBatch) {
  Launcher launcher;
  ServeConfig config = cached_serve_config();
  config.start_paused = true;
  GemmServer server(launcher, config);
  Rng rng(54);
  const Matrix a = uniform_matrix(16, 16, -1.0, 1.0, rng);
  auto handle = server.register_operand(a);
  ASSERT_TRUE(handle.ok());

  constexpr std::size_t kRequests = 4;
  std::vector<std::future<GemmResponse>> futures;
  std::vector<Matrix> bs;
  for (std::size_t i = 0; i < kRequests; ++i)
    bs.push_back(uniform_matrix(16, 8, -1.0, 1.0, rng));
  for (std::size_t i = 0; i < kRequests; ++i) {
    GemmRequest request;
    request.a_handle = *handle;
    request.b = bs[i];
    auto admitted = server.submit(std::move(request));
    ASSERT_TRUE(admitted.ok());
    futures.push_back(std::move(*admitted));
  }
  server.resume();
  for (std::size_t i = 0; i < kRequests; ++i) {
    const GemmResponse response = futures[i].get();
    EXPECT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_TRUE(response.trace.cache_hit);
    EXPECT_EQ(response.c, naive_matmul(a, bs[i], false));
    EXPECT_EQ(response.trace.batch_size, kRequests)
        << "equal-shape requests on one handle share one dispatch";
  }
}

TEST(OpCacheServe, CachedPathIsBitIdenticalUnderFaultCampaigns) {
  Launcher launcher_cold;
  Launcher launcher_warm;
  ServeConfig cold_config = cached_serve_config();
  cold_config.opcache.enabled = false;  // every request cold-encodes
  ServeConfig warm_config = cached_serve_config();
  warm_config.aabft.cache_verify_every = 2;  // exercise the guard in-band
  GemmServer cold(launcher_cold, cold_config);
  GemmServer warm(launcher_warm, warm_config);
  Rng rng(55);
  const Matrix a = uniform_matrix(32, 24, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(24, 16, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);
  auto handle = warm.register_operand(a);
  ASSERT_TRUE(handle.ok());

  for (std::size_t nfaults : {1u, 2u, 4u, 8u}) {
    std::vector<FaultConfig> plan(nfaults);
    for (std::size_t i = 0; i < nfaults; ++i) {
      plan[i].site = FaultSite::kFinalAdd;
      plan[i].sm_id = 0;  // block 0 runs on SM 0: deterministic landing
      plan[i].module_id = i % 2;
      plan[i].error_vec = 1ULL << (50 + i);
    }

    GemmRequest cold_req;
    cold_req.a = a;
    cold_req.b = b;
    cold_req.fault_plan = plan;
    auto cold_admitted = cold.submit(std::move(cold_req));
    ASSERT_TRUE(cold_admitted.ok());
    const GemmResponse cold_resp = cold_admitted->get();

    GemmRequest warm_req;
    warm_req.a_handle = *handle;
    warm_req.b = b;
    warm_req.fault_plan = plan;
    auto warm_admitted = warm.submit(std::move(warm_req));
    ASSERT_TRUE(warm_admitted.ok());
    const GemmResponse warm_resp = warm_admitted->get();

    ASSERT_EQ(cold_resp.status, ResponseStatus::kOk) << nfaults << " faults";
    ASSERT_EQ(warm_resp.status, ResponseStatus::kOk) << nfaults << " faults";
    EXPECT_TRUE(warm_resp.trace.cache_hit);
    EXPECT_EQ(warm_resp.c, cold_resp.c)
        << "cached and cold recovery must agree bit-for-bit under " << nfaults
        << " faults";
    // Against the naive reference the repo-wide contract applies: recompute
    // rungs are bit-exact; additive checksum correction lands within
    // rounding of the true value (cf. test_serve FaultedRequestIsRepaired).
    if (warm_resp.trace.corrections == 0) {
      EXPECT_EQ(warm_resp.c, ref);
    } else {
      for (std::size_t i = 0; i < ref.rows(); ++i)
        for (std::size_t j = 0; j < ref.cols(); ++j)
          EXPECT_NEAR(warm_resp.c(i, j), ref(i, j),
                      1e-9 * std::max(1.0, std::abs(ref(i, j))));
    }
  }
}

}  // namespace
