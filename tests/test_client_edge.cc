// Client-library edge cases: EOF semantics, bad fds, chunked bulk
// reads across the RPC frame cap, env bootstrap, and path hygiene.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

#include "client/hvac_client.h"
#include "client/meta_cache.h"
#include "rpc/health.h"
#include "server/hvac_proto.h"
#include "server/node_runtime.h"
#include "workload/file_tree.h"

namespace hvac {
namespace {

namespace fs = std::filesystem;
using client::HvacClient;
using client::HvacClientOptions;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_edge_" + name +
                          "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

class EdgeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    pfs_root_ = temp_dir("pfs");
    rel_ = "f.bin";
    expected_ = workload::expected_contents(rel_, 20'000);
    ASSERT_TRUE(storage::write_file(pfs_root_ + "/" + rel_,
                                    expected_.data(), expected_.size())
                    .ok());
    server::NodeRuntimeOptions o;
    o.pfs_root = pfs_root_;
    o.cache_root = temp_dir("cache");
    node_ = std::make_unique<server::NodeRuntime>(o);
    ASSERT_TRUE(node_->start().ok());
  }

  HvacClientOptions base_options() const {
    HvacClientOptions o;
    o.dataset_dir = pfs_root_;
    o.server_endpoints = node_->endpoints();
    return o;
  }

  std::string pfs_root_, rel_;
  std::vector<uint8_t> expected_;
  std::unique_ptr<server::NodeRuntime> node_;
};

TEST_F(EdgeFixture, ReadAtAndPastEofReturnsZero) {
  HvacClient client(base_options());
  auto vfd = client.open(pfs_root_ + "/" + rel_);
  ASSERT_TRUE(vfd.ok());
  uint8_t buf[64];
  // Exactly at EOF.
  ASSERT_EQ(client.lseek(*vfd, 0, SEEK_END).value(), 20'000);
  EXPECT_EQ(client.read(*vfd, buf, sizeof(buf)).value(), 0u);
  // Far past EOF via pread.
  EXPECT_EQ(client.pread(*vfd, buf, sizeof(buf), 1u << 30).value(), 0u);
  // Short final read.
  ASSERT_EQ(client.lseek(*vfd, 19'990, SEEK_SET).value(), 19'990);
  EXPECT_EQ(client.read(*vfd, buf, sizeof(buf)).value(), 10u);
  ASSERT_TRUE(client.close(*vfd).ok());
}

TEST_F(EdgeFixture, BadFdOperationsReportBadFd) {
  HvacClient client(base_options());
  uint8_t buf[8];
  EXPECT_EQ(client.read(12345 + (1 << 20), buf, 8).error().code,
            ErrorCode::kBadFd);
  EXPECT_EQ(client.lseek(12345 + (1 << 20), 0, SEEK_SET).error().code,
            ErrorCode::kBadFd);
  EXPECT_EQ(client.close(12345 + (1 << 20)).error().code,
            ErrorCode::kBadFd);
}

TEST_F(EdgeFixture, DoubleCloseFails) {
  HvacClient client(base_options());
  auto vfd = client.open(pfs_root_ + "/" + rel_);
  ASSERT_TRUE(vfd.ok());
  EXPECT_TRUE(client.close(*vfd).ok());
  EXPECT_FALSE(client.close(*vfd).ok());
}

TEST_F(EdgeFixture, TinyChunkSizeStillCorrect) {
  // Force many bulk RPCs per read: 512-byte chunks over a 20 KB file.
  auto options = base_options();
  options.read_chunk_bytes = 512;
  HvacClient client(options);
  auto vfd = client.open(pfs_root_ + "/" + rel_);
  ASSERT_TRUE(vfd.ok());
  std::vector<uint8_t> data(expected_.size());
  const auto n = client.pread(*vfd, data.data(), data.size(), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, expected_.size());
  EXPECT_EQ(data, expected_);
  ASSERT_TRUE(client.close(*vfd).ok());
}

TEST_F(EdgeFixture, UnnormalizedPathsResolve) {
  HvacClient client(base_options());
  const std::string messy =
      pfs_root_ + "/./sub/../" + rel_;  // normalizes to f.bin
  auto vfd = client.open(messy);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  ASSERT_TRUE(client.close(*vfd).ok());
  EXPECT_EQ(client.home_of(messy), client.home_of(pfs_root_ + "/" + rel_));
}

TEST_F(EdgeFixture, SequentialThenSeekInterleavedOffsets) {
  HvacClient client(base_options());
  auto vfd = client.open(pfs_root_ + "/" + rel_);
  ASSERT_TRUE(vfd.ok());
  uint8_t a[10], b[10];
  ASSERT_TRUE(client.read(*vfd, a, 10).ok());   // offset now 10
  ASSERT_TRUE(client.pread(*vfd, b, 10, 0).ok());  // must not move it
  ASSERT_TRUE(client.read(*vfd, b, 10).ok());   // continues at 10
  EXPECT_TRUE(std::equal(b, b + 10, expected_.begin() + 10));
  ASSERT_TRUE(client.close(*vfd).ok());
}

TEST(ClientEnv, OptionsFromEnvRoundTrip) {
  ::setenv("HVAC_DATASET_DIR", "/data//set/", 1);
  ::setenv("HVAC_SERVERS", "127.0.0.1:1,127.0.0.1:2", 1);
  ::setenv("HVAC_REPLICAS", "2", 1);
  ::setenv("HVAC_PLACEMENT", "rendezvous", 1);
  ::setenv("HVAC_SEGMENT_BYTES", "1048576", 1);
  const auto o = client::options_from_env();
  ASSERT_TRUE(o.ok());
  EXPECT_EQ(o->dataset_dir, "/data/set");
  EXPECT_EQ(o->server_endpoints.size(), 2u);
  EXPECT_EQ(o->replicas, 2u);
  EXPECT_EQ(o->placement, core::PlacementPolicy::kRendezvous);
  EXPECT_EQ(o->segment_bytes, 1048576u);
  ::unsetenv("HVAC_DATASET_DIR");
  EXPECT_FALSE(client::options_from_env().ok());
  ::setenv("HVAC_DATASET_DIR", "/data/set", 1);
  ::unsetenv("HVAC_SERVERS");
  EXPECT_FALSE(client::options_from_env().ok());
  ::unsetenv("HVAC_DATASET_DIR");
  ::unsetenv("HVAC_REPLICAS");
  ::unsetenv("HVAC_PLACEMENT");
  ::unsetenv("HVAC_SEGMENT_BYTES");
}

TEST_F(EdgeFixture, StatSizeFallsBackWhenServersDie) {
  auto options = base_options();
  options.rpc.connect_timeout_ms = 200;
  options.rpc.recv_timeout_ms = 200;
  HvacClient client(options);
  node_->stop();
  const auto size = client.stat_size(pfs_root_ + "/" + rel_);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, expected_.size());
}

// ---- read-ahead -----------------------------------------------------------

TEST_F(EdgeFixture, ReadAheadSequentialStreamIsCorrectAndHits) {
  // The open answers the first kOpenPrefixBytes itself; this file runs
  // 20 KB past them, where reads reach the server.
  const std::string rel = "long.bin";
  const auto expected =
      workload::expected_contents(rel, proto::kOpenPrefixBytes + 20'000);
  ASSERT_TRUE(storage::write_file(pfs_root_ + "/" + rel, expected.data(),
                                  expected.size())
                  .ok());
  auto options = base_options();
  options.read_chunk_bytes = 1024;  // 20 chunks past the prefix
  options.readahead_chunks = 3;
  HvacClient client(options);
  auto vfd = client.open(pfs_root_ + "/" + rel);
  ASSERT_TRUE(vfd.ok());

  // Stream front to back in chunk-sized reads — the DL sample pattern
  // the read-ahead targets.
  std::vector<uint8_t> data(expected.size());
  size_t pos = 0;
  while (pos < data.size()) {
    const auto n = client.read(*vfd, data.data() + pos, 1024);
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    pos += *n;
  }
  EXPECT_EQ(pos, expected.size());
  EXPECT_EQ(data, expected);
  ASSERT_TRUE(client.close(*vfd).ok());

  const auto s = client.stats();
  EXPECT_GT(s.readahead_issued, 0u);
  EXPECT_GT(s.readahead_hits, 0u);
  EXPECT_LE(s.readahead_hits, s.readahead_issued);
}

TEST_F(EdgeFixture, ReadAheadSurvivesRandomAccess) {
  auto options = base_options();
  options.read_chunk_bytes = 1024;
  options.readahead_chunks = 2;
  HvacClient client(options);
  auto vfd = client.open(pfs_root_ + "/" + rel_);
  ASSERT_TRUE(vfd.ok());

  // Sequential run to spin the window up, then random jumps that must
  // invalidate it, then sequential again — bytes must stay correct
  // throughout.
  std::vector<uint8_t> buf(1024);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.pread(*vfd, buf.data(), 1024, i * 1024u).ok());
    EXPECT_TRUE(std::equal(buf.begin(), buf.end(),
                           expected_.begin() + i * 1024));
  }
  for (const uint64_t off : {9000u, 300u, 17'500u, 0u}) {
    const auto n = client.pread(*vfd, buf.data(), 1024, off);
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, std::min<size_t>(1024, expected_.size() - off));
    EXPECT_TRUE(std::equal(buf.begin(), buf.begin() + *n,
                           expected_.begin() + off));
  }
  for (int i = 10; i < 14; ++i) {
    ASSERT_TRUE(client.pread(*vfd, buf.data(), 1024, i * 1024u).ok());
    EXPECT_TRUE(std::equal(buf.begin(), buf.end(),
                           expected_.begin() + i * 1024));
  }
  ASSERT_TRUE(client.close(*vfd).ok());
}

TEST_F(EdgeFixture, ReadAheadDisabledMatchesSeedBehaviour) {
  auto options = base_options();
  options.read_chunk_bytes = 1024;
  options.readahead_chunks = 0;  // HVAC_READAHEAD=0
  HvacClient client(options);
  auto vfd = client.open(pfs_root_ + "/" + rel_);
  ASSERT_TRUE(vfd.ok());
  std::vector<uint8_t> data(expected_.size());
  ASSERT_EQ(client.pread(*vfd, data.data(), data.size(), 0).value(),
            expected_.size());
  EXPECT_EQ(data, expected_);
  ASSERT_TRUE(client.close(*vfd).ok());
  EXPECT_EQ(client.stats().readahead_issued, 0u);
  EXPECT_EQ(client.stats().readahead_hits, 0u);
}

TEST_F(EdgeFixture, ReadAheadFailsOpenWhenServersDie) {
  auto options = base_options();
  options.read_chunk_bytes = 1024;
  options.readahead_chunks = 2;
  options.rpc.connect_timeout_ms = 200;
  options.rpc.recv_timeout_ms = 200;
  HvacClient client(options);
  auto vfd = client.open(pfs_root_ + "/" + rel_);
  ASSERT_TRUE(vfd.ok());

  // Spin the window up, then kill the servers: pending chunks turn
  // into transport errors that must degrade to the PFS, not corrupt
  // the stream.
  std::vector<uint8_t> data(expected_.size());
  ASSERT_EQ(client.pread(*vfd, data.data(), 2048, 0).value(), 2048u);
  node_->stop();
  size_t pos = 2048;
  while (pos < data.size()) {
    const auto n = client.pread(*vfd, data.data() + pos,
                                data.size() - pos, pos);
    ASSERT_TRUE(n.ok()) << n.error().to_string();
    if (*n == 0) break;
    pos += *n;
  }
  EXPECT_EQ(pos, expected_.size());
  EXPECT_EQ(data, expected_);
}

// A server whose frame bound admits opens (tiny request) but drops
// every read (20-byte header + path exceeds 16 bytes) is the nastiest
// failure shape: recover_fd re-opens remotely just fine, then the
// next read dies again. The recovery budget must bottom out at the
// PFS instead of recursing, and the stream must stay byte-exact —
// the fd-table's logical offset is the only position that survives
// the mid-stream swap.
TEST(HostileServer, OpensPassReadsDroppedDegradesToPfsExactly) {
  const std::string pfs_root = temp_dir("hostile_pfs");
  const std::string rel = "h.bin";
  const auto expected = workload::expected_contents(rel, 20'000);
  ASSERT_TRUE(storage::write_file(pfs_root + "/" + rel,
                                  expected.data(), expected.size())
                  .ok());

  // The bound is read from the environment at server construction;
  // scope it tightly so parallel tests never see it.
  ASSERT_EQ(::setenv("HVAC_MAX_FRAME_BYTES", "16", 1), 0);
  server::NodeRuntimeOptions o;
  o.pfs_root = pfs_root;
  o.cache_root = temp_dir("hostile_cache");
  auto node = std::make_unique<server::NodeRuntime>(o);
  const auto started = node->start();
  ::unsetenv("HVAC_MAX_FRAME_BYTES");
  ASSERT_TRUE(started.ok());

  HvacClientOptions co;
  co.dataset_dir = pfs_root;
  co.server_endpoints = node->endpoints();
  co.read_chunk_bytes = 4096;
  co.rpc.connect_timeout_ms = 500;
  co.rpc.recv_timeout_ms = 500;
  HvacClient client(co);

  auto vfd = client.open(pfs_root + "/" + rel);
  ASSERT_TRUE(vfd.ok());

  // Sequential read() drives both the bounded recovery and the
  // logical-offset bookkeeping: a kernel-offset desync would double
  // or skip bytes here.
  std::vector<uint8_t> data;
  data.reserve(expected.size());
  uint8_t buf[3000];
  for (;;) {
    const auto n = client.read(*vfd, buf, sizeof(buf));
    ASSERT_TRUE(n.ok()) << n.error().to_string();
    if (*n == 0) break;
    data.insert(data.end(), buf, buf + *n);
    ASSERT_LE(data.size(), expected.size());
  }
  EXPECT_EQ(data, expected);

  // And the positional path straddling a recovery boundary.
  std::vector<uint8_t> tail(expected.size() - 5'000);
  const auto n = client.pread(*vfd, tail.data(), tail.size(), 5'000);
  ASSERT_TRUE(n.ok()) << n.error().to_string();
  ASSERT_EQ(*n, tail.size());
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                         expected.begin() + 5'000));
  ASSERT_TRUE(client.close(*vfd).ok());
  node->stop();
}

// Same hostile shape with the PFS escape hatch closed: the bounded
// recovery budget must surface an error after kMaxRecoveries instead
// of looping open/fail forever.
TEST(HostileServer, RecoveryBudgetExhaustsWithoutPfsFallback) {
  const std::string pfs_root = temp_dir("budget_pfs");
  const std::string rel = "b.bin";
  // Longer than the open's prefix: the read below lies past it, so it
  // needs a read request.
  const auto expected =
      workload::expected_contents(rel, proto::kOpenPrefixBytes + 8'000);
  ASSERT_TRUE(storage::write_file(pfs_root + "/" + rel,
                                  expected.data(), expected.size())
                  .ok());

  ASSERT_EQ(::setenv("HVAC_MAX_FRAME_BYTES", "16", 1), 0);
  server::NodeRuntimeOptions o;
  o.pfs_root = pfs_root;
  o.cache_root = temp_dir("budget_cache");
  auto node = std::make_unique<server::NodeRuntime>(o);
  const auto started = node->start();
  ::unsetenv("HVAC_MAX_FRAME_BYTES");
  ASSERT_TRUE(started.ok());

  HvacClientOptions co;
  co.dataset_dir = pfs_root;
  co.server_endpoints = node->endpoints();
  co.allow_pfs_fallback = false;
  co.rpc.connect_timeout_ms = 500;
  co.rpc.recv_timeout_ms = 500;
  co.rpc.max_retries = 0;
  HvacClient client(co);

  auto vfd = client.open(pfs_root + "/" + rel);
  ASSERT_TRUE(vfd.ok());  // tiny open frames pass the 16-byte bound

  uint8_t buf[256];
  const auto t0 = std::chrono::steady_clock::now();
  const auto n =
      client.pread(*vfd, buf, sizeof(buf), proto::kOpenPrefixBytes);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.error().code, ErrorCode::kUnavailable);
  // kMaxRecoveries re-opens plus the dropped reads, each bounded by
  // the 500 ms recv timeout — nowhere near an unbounded loop.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed)
                .count(),
            20);

  // The fd is still usable bookkeeping-wise: close must not hang.
  (void)client.close(*vfd);
  node->stop();
}

// ---- client metadata cache ------------------------------------------------

TEST(MetaCacheUnit, PutLookupInvalidateHomeAndTtl) {
  client::MetaCache cache(60);
  ASSERT_TRUE(cache.enabled());
  cache.put("a", client::MetaEntry{100, 0, true});
  cache.put("b", client::MetaEntry{200, 1, false});
  const auto a = cache.lookup("a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->size, 100u);
  EXPECT_EQ(a->home, 0u);
  EXPECT_TRUE(a->cached);
  EXPECT_EQ(cache.size(), 2u);

  cache.invalidate("a");
  EXPECT_FALSE(cache.lookup("a").has_value());
  EXPECT_TRUE(cache.lookup("b").has_value());

  // invalidate_home drops every entry routed to that server, and only
  // those.
  cache.put("c", client::MetaEntry{1, 1, true});
  cache.put("d", client::MetaEntry{2, 0, true});
  cache.invalidate_home(1);
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_FALSE(cache.lookup("c").has_value());
  EXPECT_TRUE(cache.lookup("d").has_value());

  // Entries expire after the TTL.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(cache.lookup("d").has_value());
  EXPECT_EQ(cache.size(), 0u);

  // ttl_ms = 0 disables the cache entirely.
  client::MetaCache off(0);
  EXPECT_FALSE(off.enabled());
  off.put("x", client::MetaEntry{1, 0, true});
  EXPECT_FALSE(off.lookup("x").has_value());
}

TEST_F(EdgeFixture, MetaCachePathModeReopenSkipsOpenRpc) {
  HvacClient client(base_options());  // default HVAC_META_TTL_MS: 3 s
  const std::string path = pfs_root_ + "/" + rel_;
  std::vector<uint8_t> buf(expected_.size());

  // Warm the server cache: the pass-1 read-through schedules caching
  // (possibly asynchronously), so loop until reads come from cache.
  for (int i = 0; i < 200; ++i) {
    auto vfd = client.open(path);
    ASSERT_TRUE(vfd.ok());
    ASSERT_TRUE(client.pread(*vfd, buf.data(), buf.size(), 0).ok());
    ASSERT_TRUE(client.close(*vfd).ok());
    if (node_->aggregated_metrics().bytes_from_cache >=
        expected_.size()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // One more open/close: its reply says "served from cache", which is
  // what makes the client remember {size, home, cached=true}.
  {
    auto vfd = client.open(path);
    ASSERT_TRUE(vfd.ok());
    ASSERT_TRUE(client.close(*vfd).ok());
  }

  const uint64_t opens_before =
      node_->aggregated_frame().op_latency[proto::kOpen].count;
  const auto stats_before = client.stats();

  // This open must be answered from the meta cache alone: no kOpen
  // RPC reaches the server, and the path-mode fd still reads the
  // exact bytes.
  auto vfd = client.open(path);
  ASSERT_TRUE(vfd.ok());
  std::fill(buf.begin(), buf.end(), 0);
  const auto n = client.pread(*vfd, buf.data(), buf.size(), 0);
  ASSERT_TRUE(n.ok()) << n.error().to_string();
  EXPECT_EQ(*n, expected_.size());
  EXPECT_EQ(buf, expected_);
  ASSERT_TRUE(client.close(*vfd).ok());

  EXPECT_EQ(node_->aggregated_frame().op_latency[proto::kOpen].count,
            opens_before);
  EXPECT_GT(client.stats().meta_hits, stats_before.meta_hits);
}

TEST_F(EdgeFixture, MetaCacheTtlExpiryForcesRestat) {
  auto options = base_options();
  options.meta_ttl_ms = 80;
  HvacClient client(options);
  const std::string path = pfs_root_ + "/" + rel_;

  ASSERT_TRUE(client.stat_size(path).ok());  // miss: populates
  const auto s1 = client.stats();
  ASSERT_TRUE(client.stat_size(path).ok());  // within TTL
  const auto s2 = client.stats();
  EXPECT_EQ(s2.meta_hits, s1.meta_hits + 1);

  std::this_thread::sleep_for(std::chrono::milliseconds(160));
  const auto size = client.stat_size(path);  // expired: re-stats
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, expected_.size());
  const auto s3 = client.stats();
  EXPECT_EQ(s3.meta_hits, s2.meta_hits);
  EXPECT_GT(s3.meta_misses, s2.meta_misses);
}

TEST_F(EdgeFixture, BreakerTripInvalidatesMetaEntries) {
  rpc::HealthRegistry::global().reset();
  HvacClient client(base_options());
  const std::string path = pfs_root_ + "/" + rel_;

  ASSERT_TRUE(client.stat_size(path).ok());  // populate {size, home}
  const auto s1 = client.stats();
  ASSERT_TRUE(client.stat_size(path).ok());
  EXPECT_GT(client.stats().meta_hits, s1.meta_hits);

  // Trip the breaker on the entry's home endpoint by hand.
  auto health = rpc::HealthRegistry::global().get(node_->endpoints()[0]);
  while (health->state() != rpc::EndpointHealth::State::kOpen) {
    health->record_failure();
  }

  // The next lookup sees the open circuit and drops everything cached
  // for that home instead of trusting a route that would fail fast —
  // a miss, answered via re-stat or the PFS fallback.
  const auto s2 = client.stats();
  const auto size = client.stat_size(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, expected_.size());
  const auto s3 = client.stats();
  EXPECT_EQ(s3.meta_hits, s2.meta_hits);
  EXPECT_GT(s3.meta_misses, s2.meta_misses);
  rpc::HealthRegistry::global().reset();
}

}  // namespace
}  // namespace hvac
