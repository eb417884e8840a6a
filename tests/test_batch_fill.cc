// Batch-container fill: a kPrefetchBatch lands its small unpacked files
// in one local container file instead of one file each. Covers the one
// container per batch, one PFS metadata op per fetched file, every
// reader of a store entry honouring the sample's range (kOpen fds,
// path-mode kReadScatter, kStat, read_through/pread_through), per-sample
// eviction under capacity pressure (ranges freed, container unlinked
// after its last sample, in-flight readers unharmed), a write-open
// moving a sample to its own file, and purge leaving nothing behind.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/hvac_client.h"
#include "core/cache_manager.h"
#include "core/data_mover.h"
#include "core/eviction.h"
#include "rpc/rpc_client.h"
#include "rpc/wire.h"
#include "server/hvac_proto.h"
#include "server/hvac_server.h"
#include "storage/local_store.h"
#include "storage/pfs_backend.h"
#include "workload/dataset_spec.h"
#include "workload/file_tree.h"

namespace hvac {
namespace {

namespace fs = std::filesystem;
using client::HvacClient;
using client::HvacClientOptions;
using rpc::Bytes;
using rpc::WireReader;
using rpc::WireWriter;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_batch_" + name + "_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Regular files in `dir` whose names start with `prefix`.
size_t count_files(const std::string& dir, const std::string& prefix = "") {
  size_t n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() &&
        e.path().filename().string().rfind(prefix, 0) == 0) {
      ++n;
    }
  }
  return n;
}

// One server instance over a generated tree of small files.
struct BatchNode {
  std::string pfs_root;
  std::string cache_root;
  workload::GeneratedTree tree;
  std::unique_ptr<storage::PfsBackend> pfs;
  std::unique_ptr<server::HvacServer> server;

  BatchNode(const std::string& name, uint64_t files, bool write_enabled) {
    pfs_root = temp_dir(name + "_pfs");
    cache_root = temp_dir(name + "_cache");
    auto generated = workload::generate_tree(
        pfs_root, workload::synthetic_small(files, 2048, 0.3));
    EXPECT_TRUE(generated.ok());
    tree = std::move(generated).value();
    pfs = std::make_unique<storage::PfsBackend>(pfs_root);
    server::HvacServerOptions so;
    so.cache_dir = cache_root;
    so.data_mover_threads = 4;
    so.write_enabled = write_enabled;
    server = std::make_unique<server::HvacServer>(pfs.get(), so);
    EXPECT_TRUE(server->start().ok());
  }

  ~BatchNode() { server->stop(); }

  HvacClientOptions client_options() const {
    HvacClientOptions o;
    o.dataset_dir = pfs_root;
    o.server_endpoints = {server->address()};
    o.readahead_chunks = 0;
    return o;
  }

  // Warms tree files [first, first + n) with one kPrefetchBatch.
  void prefetch(HvacClient& client, size_t first, size_t n) {
    std::vector<std::string> paths(tree.relative_paths.begin() + first,
                                   tree.relative_paths.begin() + first + n);
    auto statuses = client.prefetch_batch_status(paths);
    ASSERT_TRUE(statuses.ok()) << statuses.error().to_string();
    for (uint8_t st : *statuses) ASSERT_EQ(st, proto::kPrefetchCached);
  }

  std::vector<uint8_t> expected(size_t i) const {
    return workload::expected_contents(tree.relative_paths[i],
                                       tree.sizes[i]);
  }
};

Bytes path_request(const std::string& path) {
  WireWriter w;
  w.put_string(path);
  return std::move(w).take();
}

// kReadScatter of one extent [offset, offset + count): by remote fd
// when `path` is empty, else by logical path.
std::vector<uint8_t> scatter(rpc::RpcClient& rpc, uint64_t remote_fd,
                             const std::string& path, uint64_t offset,
                             uint32_t count) {
  WireWriter w;
  if (path.empty()) {
    w.put_u8(proto::kSourceFd);
    w.put_u64(remote_fd);
  } else {
    w.put_u8(proto::kSourcePath);
    w.put_string(path);
  }
  w.put_u32(1);
  w.put_u64(offset);
  w.put_u32(count);
  auto resp = rpc.call_payload(proto::kReadScatter, w.bytes());
  EXPECT_TRUE(resp.ok()) << resp.error().to_string();
  if (!resp.ok()) return {};
  auto view = rpc::decode_scatter(resp->data(), resp->size());
  EXPECT_TRUE(view.ok());
  if (!view.ok() || view->extents.size() != 1) return {};
  const auto& e = view->extents[0];
  return std::vector<uint8_t>(e.data, e.data + e.length);
}

TEST(BatchFill, OneContainerPerBatchAndOneMetadataOpPerFile) {
  BatchNode node("one", 72, /*write_enabled=*/false);
  HvacClient client(node.client_options());
  node.prefetch(client, 0, 64);

  // 64 samples, one inode: the batch's container.
  EXPECT_EQ(count_files(node.cache_root), 1u);
  EXPECT_EQ(count_files(node.cache_root, "batch-"), 1u);
  EXPECT_EQ(node.server->metrics().misses, 64u);
  // Each fetch opened its PFS source once and sized it with fstat.
  EXPECT_EQ(node.pfs->metadata_ops(), 64u);
  EXPECT_EQ(node.pfs->bytes_read(), [&] {
    uint64_t sum = 0;
    for (size_t i = 0; i < 64; ++i) sum += node.tree.sizes[i];
    return sum;
  }());

  // Demand misses keep their own file, at one metadata op each too.
  rpc::RpcClient rpc(rpc::Endpoint{node.server->address()});
  for (size_t i = 64; i < 72; ++i) {
    auto opened =
        rpc.call(proto::kOpen, path_request(node.tree.relative_paths[i]));
    ASSERT_TRUE(opened.ok()) << opened.error().to_string();
  }
  EXPECT_EQ(node.pfs->metadata_ops(), 72u);
  EXPECT_EQ(count_files(node.cache_root), 9u);
}

TEST(BatchFill, EveryReaderSeesEachSampleRange) {
  // Both server send paths: zero-copy extents off the container fd,
  // and the pooled pread into one lease.
  for (const char* zc : {"sendfile", "off"}) {
    SCOPED_TRACE(zc);
    ::setenv("HVAC_ZEROCOPY", zc, 1);
    BatchNode node(std::string("read_") + zc, 16, /*write_enabled=*/false);
    ::unsetenv("HVAC_ZEROCOPY");
    HvacClient client(node.client_options());
    node.prefetch(client, 0, 16);
    ASSERT_EQ(count_files(node.cache_root, "batch-"), 1u);

    rpc::RpcClient rpc(rpc::Endpoint{node.server->address()});
    for (size_t i = 0; i < 16; ++i) {
      const std::string& rel = node.tree.relative_paths[i];
      const std::vector<uint8_t> want = node.expected(i);
      const uint32_t size = static_cast<uint32_t>(want.size());

      auto opened = rpc.call(proto::kOpen, path_request(rel));
      ASSERT_TRUE(opened.ok()) << opened.error().to_string();
      WireReader r(*opened);
      const uint64_t remote_fd = *r.get_u64();
      EXPECT_EQ(*r.get_u64(), want.size());
      EXPECT_EQ(*r.get_u8(), proto::kFromCache);

      // Whole sample, a middle range, and a read past the end that
      // must stop at the sample, not bleed into its neighbour.
      EXPECT_EQ(scatter(rpc, remote_fd, "", 0, size), want);
      EXPECT_EQ(scatter(rpc, remote_fd, "", 100, 50),
                std::vector<uint8_t>(want.begin() + 100, want.begin() + 150));
      EXPECT_EQ(scatter(rpc, remote_fd, "", size - 10, 4096),
                std::vector<uint8_t>(want.end() - 10, want.end()));
      EXPECT_EQ(scatter(rpc, 0, rel, 0, size + 4096), want);

      auto stat = rpc.call(proto::kStat, path_request(rel));
      ASSERT_TRUE(stat.ok()) << stat.error().to_string();
      WireReader sr(*stat);
      EXPECT_EQ(*sr.get_u64(), want.size());
      EXPECT_EQ(*sr.get_u8(), 1);

      core::CacheManager& cache = node.server->cache();
      auto whole = cache.read_through(rel);
      ASSERT_TRUE(whole.ok()) << whole.error().to_string();
      EXPECT_EQ(*whole, want);
      std::vector<uint8_t> part(64);
      auto n = cache.pread_through(rel, part.data(), part.size(), 10);
      ASSERT_TRUE(n.ok()) << n.error().to_string();
      EXPECT_EQ(part, std::vector<uint8_t>(want.begin() + 10,
                                           want.begin() + 74));

      WireWriter close;
      close.put_u64(remote_fd);
      ASSERT_TRUE(rpc.call(proto::kClose, close).ok());
    }
    // Every read above was a hit: nothing went back to the PFS.
    EXPECT_EQ(node.server->metrics().misses, 16u);
    EXPECT_EQ(node.server->metrics().pfs_fallbacks, 0u);
  }
}

TEST(BatchFill, EvictionFreesRangesAndUnlinksTheLastContainer) {
  // Room for exactly 32 of the 64 equal-sized samples, FIFO victims:
  // filling batch B evicts every sample of batch A.
  constexpr size_t kFiles = 64;
  constexpr size_t kBytes = 2048;
  const std::string pfs_root = temp_dir("evict_pfs");
  const std::string cache_root = temp_dir("evict_cache");
  auto content = [](size_t i) {
    std::vector<uint8_t> data(kBytes);
    for (size_t k = 0; k < kBytes; ++k) data[k] = uint8_t(i * 7 + k);
    return data;
  };
  std::vector<std::string> paths;
  for (size_t i = 0; i < kFiles; ++i) {
    paths.push_back("f" + std::to_string(i) + ".bin");
    const auto data = content(i);
    ASSERT_TRUE(storage::write_file(pfs_root + "/" + paths[i], data.data(),
                                    data.size())
                    .ok());
  }
  storage::PfsBackend pfs(pfs_root);
  core::CacheManager cache(
      &pfs,
      std::make_unique<storage::LocalStore>(cache_root, 32 * kBytes),
      core::make_eviction_policy("fifo"));
  storage::LocalStore& store = cache.store();
  // Several movers: each fill reserves its bytes while it evicts, so
  // concurrent fills never take one another's room and answer "not
  // cached".
  core::DataMover mover(&cache, /*movers=*/4);

  auto fill = [&](size_t first) {
    auto container = store.new_container();
    std::vector<std::shared_future<Result<bool>>> futs;
    for (size_t i = first; i < first + 32; ++i) {
      futs.push_back(mover.submit(paths[i], container));
    }
    for (auto& f : futs) {
      const Result<bool>& r = f.get();
      ASSERT_TRUE(r.ok()) << r.error().to_string();
      ASSERT_TRUE(*r);
    }
  };
  fill(0);
  EXPECT_EQ(count_files(cache_root, "batch-"), 1u);
  EXPECT_EQ(store.bytes_used(), 32 * kBytes);

  // A reader holding sample 0 across its eviction keeps reading it.
  std::optional<storage::StoredFile> held;
  {
    auto pinned = store.open_pinned(paths[0]);
    ASSERT_TRUE(pinned.ok()) << pinned.error().to_string();
    held = std::move(pinned).value();
  }

  fill(32);
  EXPECT_EQ(cache.metrics().evictions, 32u);
  EXPECT_EQ(store.bytes_used(), 32 * kBytes);
  for (size_t i = 0; i < 32; ++i) EXPECT_FALSE(store.contains(paths[i]));
  std::vector<uint8_t> buf(kBytes);
  ASSERT_EQ(held->pread(buf.data(), buf.size(), 0).value(), kBytes);
  EXPECT_EQ(buf, content(0));
  // Batch A's container outlives its samples only while read.
  EXPECT_EQ(count_files(cache_root, "batch-"), 2u);
  held.reset();
  EXPECT_EQ(count_files(cache_root, "batch-"), 1u);

  // Batch B serves its samples; evicting half of them frees their
  // bytes and leaves the rest readable.
  for (size_t i = 32; i < 48; ++i) ASSERT_TRUE(cache.evict(paths[i]).ok());
  EXPECT_EQ(store.bytes_used(), 16 * kBytes);
  for (size_t i = 48; i < kFiles; ++i) {
    auto data = cache.read_through(paths[i]);
    ASSERT_TRUE(data.ok()) << data.error().to_string();
    EXPECT_EQ(*data, content(i));
  }
  EXPECT_EQ(count_files(cache_root, "batch-"), 1u);
  for (size_t i = 48; i < kFiles; ++i) ASSERT_TRUE(cache.evict(paths[i]).ok());
  EXPECT_EQ(store.bytes_used(), 0u);
  EXPECT_EQ(count_files(cache_root), 0u);

  // An evicted sample reads right again: it is fetched anew.
  auto again = cache.read_through(paths[3]);
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_EQ(*again, content(3));
  mover.shutdown();
}

TEST(BatchFill, WriteOpenMovesASampleToItsOwnFile) {
  BatchNode node("write", 8, /*write_enabled=*/true);
  HvacClient client(node.client_options());
  node.prefetch(client, 0, 8);
  ASSERT_EQ(count_files(node.cache_root, "batch-"), 1u);

  // A non-truncating write-open keeps the old bytes: they are copied
  // out of the container into the sample's own file first.
  const std::string target = node.pfs_root + "/" + node.tree.relative_paths[0];
  auto wfd = client.open_write(target, /*trunc=*/false);
  ASSERT_TRUE(wfd.ok()) << wfd.error().to_string();
  const std::string patch = "HVAC";
  ASSERT_TRUE(client.pwrite(*wfd, patch.data(), patch.size(), 16).ok());
  ASSERT_TRUE(client.close(*wfd).ok());

  std::vector<uint8_t> want = node.expected(0);
  std::copy(patch.begin(), patch.end(), want.begin() + 16);
  auto own = storage::read_file(
      node.server->cache().store().physical_path(node.tree.relative_paths[0]));
  ASSERT_TRUE(own.ok()) << own.error().to_string();
  EXPECT_EQ(*own, want);

  // Reads see the write; the container still serves the rest.
  rpc::RpcClient rpc(rpc::Endpoint{node.server->address()});
  for (size_t i = 0; i < 8; ++i) {
    const std::string& rel = node.tree.relative_paths[i];
    const uint32_t size = static_cast<uint32_t>(node.tree.sizes[i]);
    EXPECT_EQ(scatter(rpc, 0, rel, 0, size), i == 0 ? want : node.expected(i));
  }
  EXPECT_EQ(count_files(node.cache_root, "batch-"), 1u);
}

TEST(BatchFill, PurgeLeavesTheCacheDirEmpty) {
  BatchNode node("purge", 140, /*write_enabled=*/false);
  HvacClient client(node.client_options());
  node.prefetch(client, 0, 64);
  node.prefetch(client, 64, 64);
  rpc::RpcClient rpc(rpc::Endpoint{node.server->address()});
  for (size_t i = 128; i < 140; ++i) {
    ASSERT_TRUE(
        rpc.call(proto::kStat, path_request(node.tree.relative_paths[i]))
            .ok());
    ASSERT_TRUE(
        rpc.call(proto::kOpen, path_request(node.tree.relative_paths[i]))
            .ok());
  }
  EXPECT_EQ(count_files(node.cache_root, "batch-"), 2u);
  EXPECT_EQ(count_files(node.cache_root), 2u + 12u);
  node.server->cache().purge();
  EXPECT_EQ(count_files(node.cache_root), 0u);
  EXPECT_EQ(node.server->cache().store().bytes_used(), 0u);
}

}  // namespace
}  // namespace hvac
