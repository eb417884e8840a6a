// Tests for segment-level caching (the paper's §III-E extension for
// datasets with highly skewed file sizes): segment math, the cache
// manager's per-segment dedup/fetch, and end-to-end segmented reads
// through live servers.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <thread>

#include "client/hvac_client.h"
#include "common/fault_injection.h"
#include "core/cache_manager.h"
#include "core/placement.h"
#include "core/segment.h"
#include "server/node_runtime.h"
#include "storage/posix_file.h"
#include "workload/file_tree.h"

namespace hvac {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_seg_" + name +
                          "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---- segment math ------------------------------------------------------------

TEST(Segment, KeyStableAndDistinct) {
  EXPECT_EQ(core::segment_key("a/b.bin", 3), "a/b.bin#3");
  EXPECT_NE(core::segment_key("a/b.bin", 3), core::segment_key("a/b.bin", 4));
}

TEST(Segment, CountRoundsUp) {
  EXPECT_EQ(core::segment_count(100, 64), 2u);
  EXPECT_EQ(core::segment_count(128, 64), 2u);
  EXPECT_EQ(core::segment_count(129, 64), 3u);
  EXPECT_EQ(core::segment_count(1, 64), 1u);
  EXPECT_EQ(core::segment_count(0, 64), 1u);
  EXPECT_EQ(core::segment_count(100, 0), 1u);
}

TEST(Segment, SegmentsOfOneFileSpreadAcrossServers) {
  core::Placement placement(64);
  std::set<uint32_t> homes;
  for (uint64_t seg = 0; seg < 64; ++seg) {
    homes.insert(placement.home(core::segment_key("huge.tfrecord", seg)));
  }
  // One giant file no longer hammers a single home server.
  EXPECT_GT(homes.size(), 24u);
}

// ---- cache manager segments ----------------------------------------------------

struct SegFixture {
  std::string pfs_root;
  std::unique_ptr<storage::PfsBackend> pfs;
  std::unique_ptr<core::CacheManager> cache;
  std::vector<uint8_t> file_data;

  explicit SegFixture(const std::string& name, uint64_t file_size,
                      uint64_t capacity = 0) {
    pfs_root = temp_dir(name + "_pfs");
    file_data.resize(file_size);
    for (size_t i = 0; i < file_data.size(); ++i) {
      file_data[i] = uint8_t((i * 131) % 251);
    }
    EXPECT_TRUE(storage::write_file(pfs_root + "/big.bin",
                                    file_data.data(), file_data.size())
                    .ok());
    pfs = std::make_unique<storage::PfsBackend>(pfs_root);
    cache = std::make_unique<core::CacheManager>(
        pfs.get(),
        std::make_unique<storage::LocalStore>(temp_dir(name + "_cache"),
                                              capacity),
        core::make_eviction_policy("fifo"));
  }
};

TEST(SegmentCache, FetchesOnlyRequestedSegment) {
  SegFixture fx("fetch", 10000);
  constexpr uint64_t kSeg = 1024;
  const auto cached = fx.cache->ensure_segment_cached("big.bin", 3, kSeg);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(*cached);
  // Only one segment's bytes crossed the PFS.
  EXPECT_EQ(fx.pfs->bytes_read(), kSeg);
  EXPECT_TRUE(fx.cache->store().contains(core::segment_key("big.bin", 3)));
  EXPECT_FALSE(fx.cache->store().contains("big.bin"));
}

TEST(SegmentCache, PreadSegmentReturnsCorrectBytes) {
  SegFixture fx("bytes", 10000);
  constexpr uint64_t kSeg = 1024;
  uint8_t buf[200];
  // Read 200 bytes at offset 100 of segment 2 (file offset 2148).
  const auto n =
      fx.cache->pread_through("big.bin", buf, sizeof(buf), 100, 2, kSeg);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 200u);
  EXPECT_TRUE(std::equal(buf, buf + 200,
                         fx.file_data.begin() + 2 * kSeg + 100));
}

TEST(SegmentCache, FinalShortSegmentClamped) {
  SegFixture fx("tail", 2500);
  constexpr uint64_t kSeg = 1024;
  // Segment 2 holds only [2048, 2500).
  uint8_t buf[1024];
  const auto n =
      fx.cache->pread_through("big.bin", buf, sizeof(buf), 0, 2, kSeg);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 452u);
  // Past-EOF segment is an error.
  EXPECT_FALSE(fx.cache->ensure_segment_cached("big.bin", 3, kSeg).ok());
}

TEST(SegmentCache, SingleCopyPerSegmentUnderConcurrency) {
  SegFixture fx("conc", 64 * 1024);
  constexpr uint64_t kSeg = 8 * 1024;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      uint8_t buf[64];
      // Everyone hammers segment 5.
      const auto n =
          fx.cache->pread_through("big.bin", buf, sizeof(buf), 0, 5, kSeg);
      if (n.ok() && *n == 64) ++ok;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), 8);
  EXPECT_EQ(fx.pfs->bytes_read(), kSeg);  // one fetch total
  EXPECT_EQ(fx.cache->metrics().misses, 1u);
}

TEST(SegmentCache, SegmentsEvictIndependently) {
  // Capacity for ~2 segments; reading 4 distinct segments must evict.
  SegFixture fx("evict", 8 * 1024, /*capacity=*/2 * 1024 + 512);
  constexpr uint64_t kSeg = 1024;
  uint8_t buf[8];
  for (uint64_t seg = 0; seg < 4; ++seg) {
    ASSERT_TRUE(
        fx.cache->pread_through("big.bin", buf, 8, 0, seg, kSeg).ok());
  }
  EXPECT_GT(fx.cache->metrics().evictions, 0u);
  EXPECT_LE(fx.cache->store().bytes_used(), 2 * 1024 + 512);
}

// ---- end-to-end through servers -------------------------------------------------

// One 300 KB file — big enough to split into many 32 KB segments —
// served by `servers` single-instance nodes.
struct SegAllocation {
  static constexpr uint64_t kSegBytes = 32 * 1024;
  const std::string rel = "class_0000/huge.bin";
  std::string pfs_root;
  std::vector<uint8_t> expected;
  std::vector<std::unique_ptr<server::NodeRuntime>> nodes;
  client::HvacClientOptions copts;

  SegAllocation(const std::string& name, int servers) {
    pfs_root = temp_dir(name + "_pfs");
    expected = workload::expected_contents(rel, 300 * 1024);
    EXPECT_TRUE(storage::write_file(pfs_root + "/" + rel, expected.data(),
                                    expected.size())
                    .ok());
    copts.dataset_dir = pfs_root;
    copts.segment_bytes = kSegBytes;
    for (int n = 0; n < servers; ++n) {
      server::NodeRuntimeOptions o;
      o.pfs_root = pfs_root;
      o.cache_root = temp_dir(name + "_cache" + std::to_string(n));
      o.instances = 1;
      nodes.push_back(std::make_unique<server::NodeRuntime>(o));
      EXPECT_TRUE(nodes.back()->start().ok());
      copts.server_endpoints.push_back(nodes.back()->endpoints()[0]);
    }
  }
  ~SegAllocation() {
    for (auto& node : nodes) node->stop();
  }

  std::string abs() const { return pfs_root + "/" + rel; }
};

// Sequential whole-file read in deliberately unaligned 10 KB calls, so
// reads cross segment boundaries mid-call.
Result<std::vector<uint8_t>> read_whole(client::HvacClient& client,
                                        const std::string& path) {
  HVAC_ASSIGN_OR_RETURN(int vfd, client.open(path));
  std::vector<uint8_t> data;
  std::vector<uint8_t> buf(10'000);
  for (;;) {
    HVAC_ASSIGN_OR_RETURN(size_t n, client.read(vfd, buf.data(), buf.size()));
    if (n == 0) break;
    data.insert(data.end(), buf.begin(), buf.begin() + n);
  }
  HVAC_RETURN_IF_ERROR(client.close(vfd));
  return data;
}

TEST(SegmentSystem, SegmentedReadsMatchWholeFile) {
  SegAllocation alloc("sys", 3);
  client::HvacClient client(alloc.copts);

  auto data = read_whole(client, alloc.abs());
  ASSERT_TRUE(data.ok()) << data.error().to_string();
  EXPECT_EQ(*data, alloc.expected);

  // Random pread inside one segment.
  auto vfd = client.open(alloc.abs());
  ASSERT_TRUE(vfd.ok());
  std::vector<uint8_t> buf(500);
  const auto n = client.pread(*vfd, buf.data(), 500, 123'456);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 500u);
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(),
                         alloc.expected.begin() + 123'456));
  ASSERT_TRUE(client.close(*vfd).ok());

  // The segments really spread across the three nodes' stores.
  int nodes_with_segments = 0;
  size_t total_entries = 0;
  for (auto& node : alloc.nodes) {
    const size_t entries = node->instance(0).cache().store().entry_count();
    total_entries += entries;
    if (entries > 0) ++nodes_with_segments;
  }
  EXPECT_EQ(total_entries,
            core::segment_count(alloc.expected.size(), alloc.kSegBytes));
  EXPECT_GE(nodes_with_segments, 2);
}

TEST(SegmentSystem, DeadSegmentHomeFailsOver) {
  SegAllocation alloc("dead", 2);
  // Stop the home of segment 0 before the read: its segments must come
  // back through recovery (re-open, then the PFS), byte-exact.
  const uint32_t dead = core::Placement(2).home(
      core::segment_key(alloc.rel, 0));
  alloc.nodes[dead]->stop();
  alloc.copts.rpc.connect_timeout_ms = 300;
  client::HvacClient client(alloc.copts);

  auto data = read_whole(client, alloc.abs());
  ASSERT_TRUE(data.ok()) << data.error().to_string();
  EXPECT_EQ(*data, alloc.expected);
  EXPECT_GE(client.stats().failovers, 1u);
}

TEST(SegmentSystem, StoreReadFaultFallsBackToPfs) {
  SegAllocation alloc("store_fault", 2);
  client::HvacClient client(alloc.copts);
  // Every local-store open fails: segments still fetch into the store,
  // but serving them must degrade to the PFS instead of failing.
  ASSERT_TRUE(fault::configure("store_read:error").ok());
  struct ResetFaults {
    ~ResetFaults() { fault::reset(); }
  } reset_faults;

  auto data = read_whole(client, alloc.abs());
  ASSERT_TRUE(data.ok()) << data.error().to_string();
  EXPECT_EQ(*data, alloc.expected);
  EXPECT_GT(fault::stats(fault::Site::kStoreRead).errors, 0u);
  uint64_t fallbacks = 0;
  for (auto& node : alloc.nodes) {
    fallbacks += node->instance(0).metrics().pfs_fallbacks;
  }
  EXPECT_GT(fallbacks, 0u);
}

TEST(SegmentSystem, SmallFilesBypassSegmentation) {
  const std::string pfs_root = temp_dir("small_pfs");
  const std::string rel = "tiny.bin";
  const auto expected = workload::expected_contents(rel, 2048);
  ASSERT_TRUE(storage::write_file(pfs_root + "/" + rel, expected.data(),
                                  expected.size())
                  .ok());
  server::NodeRuntimeOptions o;
  o.pfs_root = pfs_root;
  o.cache_root = temp_dir("small_cache");
  server::NodeRuntime node(o);
  ASSERT_TRUE(node.start().ok());

  client::HvacClientOptions copts;
  copts.dataset_dir = pfs_root;
  copts.segment_bytes = 32 * 1024;  // tiny.bin is below the threshold
  copts.server_endpoints = node.endpoints();
  client::HvacClient client(copts);

  auto vfd = client.open(pfs_root + "/" + rel);
  ASSERT_TRUE(vfd.ok());
  std::vector<uint8_t> buf(4096);
  const auto n = client.read(*vfd, buf.data(), buf.size());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2048u);
  ASSERT_TRUE(client.close(*vfd).ok());
  // Cached as a whole file, not a segment.
  EXPECT_TRUE(node.instance(0).cache().store().contains(rel));
  node.stop();
}

}  // namespace
}  // namespace hvac
