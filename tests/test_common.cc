// Unit tests for the common substrate: hashing, RNG, queues, thread
// pool, statistics, env/path helpers, Result plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>

#include "common/buffer_pool.h"
#include "common/env.h"
#include "common/hash.h"
#include "common/mpmc_queue.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"

namespace hvac {
namespace {

// ---- hash ----------------------------------------------------------------

TEST(Hash, Fnv1a64KnownVectors) {
  // Reference values for the canonical FNV-1a 64-bit function.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Hash, StableAcrossCalls) {
  const uint64_t h1 = stable_hash("class_0001/img_000042.jpg");
  const uint64_t h2 = stable_hash("class_0001/img_000042.jpg");
  EXPECT_EQ(h1, h2);
  EXPECT_NE(stable_hash("a"), stable_hash("b"));
}

TEST(Hash, Mix64Bijective) {
  // mix64 is a bijection; distinct inputs in a small range must stay
  // distinct.
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 4096; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(Hash, CombineOrderDependent) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(Hash, JumpConsistentHashInRange) {
  for (uint64_t key = 0; key < 1000; ++key) {
    const int32_t b = jump_consistent_hash(mix64(key), 17);
    EXPECT_GE(b, 0);
    EXPECT_LT(b, 17);
  }
}

TEST(Hash, JumpConsistentHashMinimalMovement) {
  // Growing the bucket count must only move keys into the new bucket.
  int moved_elsewhere = 0;
  for (uint64_t key = 0; key < 2000; ++key) {
    const int32_t before = jump_consistent_hash(mix64(key), 16);
    const int32_t after = jump_consistent_hash(mix64(key), 17);
    if (before != after && after != 16) ++moved_elsewhere;
  }
  EXPECT_EQ(moved_elsewhere, 0);
}

TEST(Hash, JumpConsistentHashInvalidBuckets) {
  EXPECT_EQ(jump_consistent_hash(123, 0), -1);
  EXPECT_EQ(jump_consistent_hash(123, -5), -1);
}

// ---- rng ------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, NextBelowBounds) {
  SplitMix64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  SplitMix64 rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  SplitMix64 rng(11);
  OnlineStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.next_gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, LognormalMeanMatches) {
  SplitMix64 rng(13);
  OnlineStats s;
  for (int i = 0; i < 50000; ++i) {
    s.add(rng.next_lognormal_with_mean(163.0 * 1024, 0.6));
  }
  EXPECT_NEAR(s.mean() / (163.0 * 1024), 1.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  SplitMix64 rng(15);
  OnlineStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.next_exponential(3.5));
  EXPECT_NEAR(s.mean(), 3.5, 0.15);
}

TEST(Rng, FisherYatesIsPermutation) {
  std::vector<int> v(500);
  for (int i = 0; i < 500; ++i) v[i] = i;
  SplitMix64 rng(17);
  fisher_yates_shuffle(v, rng);
  std::set<int> seen(v.begin(), v.end());
  EXPECT_EQ(seen.size(), 500u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 499);
}

TEST(Rng, FisherYatesDeterministic) {
  std::vector<int> a(100), b(100);
  for (int i = 0; i < 100; ++i) a[i] = b[i] = i;
  SplitMix64 r1(21), r2(21);
  fisher_yates_shuffle(a, r1);
  fisher_yates_shuffle(b, r2);
  EXPECT_EQ(a, b);
}

// ---- result ----------------------------------------------------------------

Result<int> parse_positive(int x) {
  if (x <= 0) return Error(ErrorCode::kInvalidArgument, "not positive");
  return x;
}

Result<int> doubled(int x) {
  HVAC_ASSIGN_OR_RETURN(int v, parse_positive(x));
  return v * 2;
}

TEST(Result, ValueAndError) {
  EXPECT_TRUE(parse_positive(3).ok());
  EXPECT_EQ(parse_positive(3).value(), 3);
  EXPECT_FALSE(parse_positive(-1).ok());
  EXPECT_EQ(parse_positive(-1).error().code, ErrorCode::kInvalidArgument);
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(doubled(5).value(), 10);
  EXPECT_FALSE(doubled(0).ok());
}

TEST(Result, ErrnoRoundTrip) {
  EXPECT_EQ(error_code_to_errno(ErrorCode::kNotFound), ENOENT);
  EXPECT_EQ(errno_to_error_code(ENOENT), ErrorCode::kNotFound);
  EXPECT_EQ(errno_to_error_code(EACCES), ErrorCode::kPermission);
  EXPECT_EQ(error_code_to_errno(errno_to_error_code(ENOSPC)), ENOSPC);
}

TEST(Result, StatusOkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status e = Error(ErrorCode::kTimeout, "x");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.error().code, ErrorCode::kTimeout);
}

// ---- mpmc queue -------------------------------------------------------------

TEST(MpmcQueue, FifoOrder) {
  MpmcQueue<int> q(10);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.push(i).ok());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop().value(), i);
}

TEST(MpmcQueue, TryPushFullReportsCapacity) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1).ok());
  EXPECT_TRUE(q.try_push(2).ok());
  const Status s = q.try_push(3);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::kCapacity);
}

TEST(MpmcQueue, CloseDrainsThenCancels) {
  MpmcQueue<int> q(10);
  ASSERT_TRUE(q.push(1).ok());
  ASSERT_TRUE(q.push(2).ok());
  q.close();
  EXPECT_FALSE(q.push(3).ok());
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  const auto r = q.pop();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kCancelled);
}

TEST(MpmcQueue, CloseWakesBlockedConsumer) {
  MpmcQueue<int> q(4);
  std::thread consumer([&] {
    const auto r = q.pop();
    EXPECT_FALSE(r.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
}

TEST(MpmcQueue, ManyProducersManyConsumers) {
  MpmcQueue<int> q(64);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  std::atomic<long> sum{0};
  std::atomic<int> count{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i).ok());
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        auto v = q.pop();
        if (!v.ok()) return;
        sum += *v;
        ++count;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  for (int c = 0; c < kConsumers; ++c) threads[kProducers + c].join();

  const long n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// ---- stats ----------------------------------------------------------------

TEST(Stats, WelfordMatchesClosedForm) {
  OnlineStats s;
  for (int i = 1; i <= 5; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Stats, MergeEqualsSequential) {
  OnlineStats a, b, all;
  SplitMix64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
}

TEST(Stats, Ci95ShrinksWithSamples) {
  OnlineStats small, large;
  SplitMix64 rng(5);
  for (int i = 0; i < 10; ++i) small.add(rng.next_gaussian());
  for (int i = 0; i < 1000; ++i) large.add(rng.next_gaussian());
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
}

TEST(Stats, Percentiles) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Stats, CdfAtPoints) {
  std::vector<double> samples{1, 2, 3, 4};
  const auto cdf = cdf_at(samples, {0.5, 2.0, 10.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0], 0.0);
  EXPECT_DOUBLE_EQ(cdf[1], 0.5);
  EXPECT_DOUBLE_EQ(cdf[2], 1.0);
}

TEST(Stats, GiniOfUniformIsZero) {
  EXPECT_NEAR(gini({5, 5, 5, 5}), 0.0, 1e-12);
  // All mass on one holder approaches 1 - 1/n.
  EXPECT_NEAR(gini({0, 0, 0, 100}), 0.75, 1e-12);
}

TEST(Stats, HistogramBinsAndClamping) {
  Histogram h(0, 10, 5);
  h.add(-1);   // clamps to bin 0
  h.add(0.5);
  h.add(9.9);
  h.add(25);   // clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_FALSE(h.to_ascii().empty());
}

// ---- env / path --------------------------------------------------------------

TEST(Env, SplitCsv) {
  const auto v = split_csv("a:1,b:2,c:3");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "a:1");
  EXPECT_EQ(v[2], "c:3");
  EXPECT_TRUE(split_csv("").empty());
  EXPECT_EQ(split_csv("x,").size(), 1u);
}

TEST(Env, PathJoin) {
  EXPECT_EQ(path_join("/a", "b"), "/a/b");
  EXPECT_EQ(path_join("/a/", "b"), "/a/b");
  EXPECT_EQ(path_join("/a/", "/b"), "/a/b");
  EXPECT_EQ(path_join("", "b"), "b");
}

TEST(Env, LexicallyNormal) {
  EXPECT_EQ(lexically_normal("/a//b/./c"), "/a/b/c");
  EXPECT_EQ(lexically_normal("/a/b/../c"), "/a/c");
  EXPECT_EQ(lexically_normal("a/./b"), "a/b");
  EXPECT_EQ(lexically_normal("/"), "/");
  EXPECT_EQ(lexically_normal(""), ".");
}

TEST(Env, PathUnder) {
  EXPECT_TRUE(path_under("/data/set/f.bin", "/data/set"));
  EXPECT_TRUE(path_under("/data/set", "/data/set"));
  EXPECT_FALSE(path_under("/data/setx/f.bin", "/data/set"));
  EXPECT_FALSE(path_under("/other", "/data/set"));
  EXPECT_TRUE(path_under("/data/set/../set/f.bin", "/data/set"));
}

TEST(Env, IntAndBoolParsing) {
  ::setenv("HVAC_TEST_INT", "42", 1);
  EXPECT_EQ(env_int_or("HVAC_TEST_INT", 0), 42);
  ::setenv("HVAC_TEST_INT", "nonsense", 1);
  EXPECT_EQ(env_int_or("HVAC_TEST_INT", 7), 7);
  ::setenv("HVAC_TEST_BOOL", "true", 1);
  EXPECT_TRUE(env_bool_or("HVAC_TEST_BOOL", false));
  ::setenv("HVAC_TEST_BOOL", "0", 1);
  EXPECT_FALSE(env_bool_or("HVAC_TEST_BOOL", true));
  EXPECT_TRUE(env_bool_or("HVAC_TEST_UNSET_XYZ", true));
}

// ---- parameterized uniformity sweep -------------------------------------------

class HashUniformity : public ::testing::TestWithParam<int> {};

TEST_P(HashUniformity, StableHashBalancedModuloN) {
  const int buckets = GetParam();
  std::vector<int> counts(buckets, 0);
  constexpr int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "file_" + std::to_string(i) + ".bin";
    ++counts[stable_hash(key) % buckets];
  }
  // Chi-squared against uniform; dof = buckets-1. Bound is generous
  // (3x dof) — catches systematic skew, not noise.
  const double expected = double(kKeys) / buckets;
  double chi2 = 0;
  for (int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 3.0 * buckets) << "buckets=" << buckets;
}

INSTANTIATE_TEST_SUITE_P(Buckets, HashUniformity,
                         ::testing::Values(2, 3, 7, 16, 64, 128, 1024));

// ---- buffer pool ---------------------------------------------------------

TEST(BufferPool, AcquireRoundsUpToClassAndRecycles) {
  BufferPool pool({.max_per_class = 4});
  void* first_data = nullptr;
  {
    auto lease = pool.acquire(5000);
    ASSERT_TRUE(lease.valid());
    EXPECT_EQ(lease.size(), 5000u);
    EXPECT_EQ(lease.capacity(), 8192u);  // next power-of-two class
    first_data = lease.data();
  }  // returned to the free list
  auto again = pool.acquire(6000);
  EXPECT_EQ(again.data(), first_data);  // same backing buffer reused
  const auto s = pool.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.recycled, 1u);
}

TEST(BufferPool, OversizeAndDisabledGoUnpooled) {
  BufferPool pool({.max_per_class = 4, .max_class_bytes = 1u << 20});
  { auto big = pool.acquire(2u << 20); EXPECT_EQ(big.size(), 2u << 20); }
  EXPECT_EQ(pool.stats().unpooled, 1u);
  EXPECT_EQ(pool.stats().recycled, 0u);

  BufferPool off({.max_per_class = 0});
  { auto lease = off.acquire(4096); EXPECT_EQ(lease.size(), 4096u); }
  EXPECT_EQ(off.stats().unpooled, 1u);
}

TEST(BufferPool, FreeListIsBounded) {
  BufferPool pool({.max_per_class = 2});
  {
    auto a = pool.acquire(100);
    auto b = pool.acquire(100);
    auto c = pool.acquire(100);
  }  // three leases die; only two fit in the free list
  const auto s = pool.stats();
  EXPECT_EQ(s.recycled, 2u);
  EXPECT_EQ(s.dropped, 1u);
}

TEST(BufferPool, ResizeShrinksLogicalSizeOnly) {
  BufferPool pool(BufferPoolOptions{});
  auto lease = pool.acquire(1000);
  lease.resize(10);
  EXPECT_EQ(lease.size(), 10u);
  EXPECT_EQ(lease.capacity(), 4096u);
  lease.resize(1u << 30);  // cannot grow past the class capacity
  EXPECT_EQ(lease.size(), 4096u);
}

TEST(BufferPool, DetachKeepsBytesOutOfPool) {
  BufferPool pool({.max_per_class = 4});
  auto lease = pool.acquire(16);
  std::memset(lease.data(), 0xab, 16);
  std::vector<uint8_t> bytes = lease.detach();
  ASSERT_EQ(bytes.size(), 16u);
  EXPECT_EQ(bytes[0], 0xab);
  EXPECT_FALSE(lease.valid());
  EXPECT_EQ(pool.stats().recycled, 0u);  // buffer left with the caller
}

TEST(BufferPool, ConcurrentAcquireReleaseIsSafe) {
  BufferPool pool({.max_per_class = 8});
  constexpr int kThreads = 8, kIters = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kIters; ++i) {
        auto lease = pool.acquire(size_t(1) << (10 + (t + i) % 4));
        lease.data()[0] = uint8_t(i);
        lease.resize(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto s = pool.stats();
  EXPECT_EQ(s.hits + s.misses + s.unpooled, uint64_t(kThreads) * kIters);
}

}  // namespace
}  // namespace hvac
