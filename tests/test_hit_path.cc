// Run-to-completion cache hits: kOpen, kRead and kReadScatter serve a
// resident file on the reactor thread and defer to the handler pool
// only on a miss. Covers head-of-line freedom (hit opens and reads on
// one connection never wait behind a miss stalled in the mover on
// another), one count per request however many attempts it took, the
// client answering EOF without a round trip, and a short read mid-file
// still recovering.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/hvac_client.h"
#include "common/fault_injection.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_server.h"
#include "server/hvac_proto.h"
#include "server/node_runtime.h"
#include "storage/packed_format.h"
#include "workload/file_tree.h"

namespace hvac {
namespace {

namespace fs = std::filesystem;
using client::HvacClient;
using client::HvacClientOptions;
using rpc::Bytes;
using rpc::WireReader;
using rpc::WireWriter;
using server::NodeRuntime;
using server::NodeRuntimeOptions;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_hit_" + name + "_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

uint64_t op_count(const core::MetricsFrame& frame, uint16_t op) {
  for (const auto& [code, snap] : frame.op_latency) {
    if (code == op) return snap.count;
  }
  return 0;
}

uint64_t all_op_counts(const core::MetricsFrame& frame) {
  uint64_t total = 0;
  for (const auto& [code, snap] : frame.op_latency) total += snap.count;
  return total;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// One node over a generated tree; `packed` packs it first (originals
// kept, so the PFS fallback can still serve them).
struct Allocation {
  std::string pfs_root;
  workload::GeneratedTree tree;
  uint32_t containers = 0;
  std::unique_ptr<NodeRuntime> node;

  Allocation(const std::string& name, uint64_t files, bool packed,
             size_t handler_threads = 2) {
    pfs_root = temp_dir(name + "_pfs");
    auto generated = workload::generate_tree(
        pfs_root, workload::synthetic_small(files, 2048, 0.3));
    EXPECT_TRUE(generated.ok());
    tree = std::move(generated).value();
    if (packed) {
      storage::PackOptions po;
      po.container_bytes = 16 << 10;
      auto report = storage::pack_tree(pfs_root, po);
      EXPECT_TRUE(report.ok());
      containers = report->containers;
    }
    NodeRuntimeOptions o;
    o.pfs_root = pfs_root;
    o.cache_root = temp_dir(name + "_cache");
    o.instances = 1;
    o.rpc_reactors = 1;
    o.rpc_handler_threads = handler_threads;
    node = std::make_unique<NodeRuntime>(o);
    EXPECT_TRUE(node->start().ok());
  }

  HvacClientOptions client_options() const {
    HvacClientOptions o;
    o.dataset_dir = pfs_root;
    o.server_endpoints = node->endpoints();
    return o;
  }

  std::string abs(size_t i) const {
    return pfs_root + "/" + tree.relative_paths[i];
  }
};

// Reads `path` to EOF through read(), `chunk` bytes per call.
Result<std::vector<uint8_t>> read_to_eof(HvacClient& client,
                                         const std::string& path,
                                         size_t chunk) {
  HVAC_ASSIGN_OR_RETURN(int vfd, client.open(path));
  std::vector<uint8_t> data;
  std::vector<uint8_t> buf(chunk);
  for (;;) {
    HVAC_ASSIGN_OR_RETURN(size_t n, client.read(vfd, buf.data(), buf.size()));
    if (n == 0) break;
    data.insert(data.end(), buf.begin(), buf.begin() + n);
  }
  HVAC_RETURN_IF_ERROR(client.close(vfd));
  return data;
}

Bytes open_request(const std::string& logical) {
  WireWriter w;
  w.put_string(logical);
  return std::move(w).take();
}

// kReadScatter for one extent [0, count): by remote fd (mode 0) when
// `path` is empty, else by logical path (mode 1).
Bytes scatter_request(uint64_t remote_fd, const std::string& path,
                      uint32_t count) {
  WireWriter w;
  if (path.empty()) {
    w.put_u8(0);
    w.put_u64(remote_fd);
  } else {
    w.put_u8(1);
    w.put_string(path);
  }
  w.put_u32(1);
  w.put_u64(0);
  w.put_u32(count);
  return std::move(w).take();
}

std::vector<uint8_t> scatter_bytes(const rpc::Payload& resp) {
  auto view = rpc::decode_scatter(resp.data(), resp.size());
  EXPECT_TRUE(view.ok());
  if (!view.ok() || view->extents.size() != 1) return {};
  const auto& e = view->extents[0];
  return std::vector<uint8_t>(e.data, e.data + e.length);
}

// ---- head of line ---------------------------------------------------------

TEST(HitPath, HitsOnOneConnectionNeverWaitBehindAStalledMiss) {
  // One reactor and ONE pool worker: a miss parks that worker on the
  // mover for the whole injected PFS stall, so any hit that still
  // needed the pool (or the mover) would wait the stall out too.
  Allocation alloc("hol", 2, /*packed=*/false, /*handler_threads=*/1);
  const std::string hot = alloc.tree.relative_paths[0];
  const std::string cold = alloc.tree.relative_paths[1];
  const rpc::Endpoint endpoint{alloc.node->endpoints()[0]};

  // The hot file is opened (and cached) before the stall; the opens
  // and reads below are the hits.
  rpc::RpcClient hits(endpoint);
  uint64_t remote_fd = 0;
  {
    auto opened = hits.call(proto::kOpen, open_request(hot));
    ASSERT_TRUE(opened.ok()) << opened.error().to_string();
    WireReader r(*opened);
    remote_fd = *r.get_u64();
  }

  constexpr int kStallMs = 2000;
  ASSERT_TRUE(
      fault::configure("pfs_read:delay_ms=" + std::to_string(kStallMs)).ok());
  struct ResetFaults {
    ~ResetFaults() { fault::reset(); }
  } reset_faults;
  const auto miss_start = std::chrono::steady_clock::now();
  auto miss = std::async(std::launch::async, [&] {
    rpc::RpcClient other(endpoint);
    return other.call(proto::kOpen, open_request(cold));
  });
  while (fault::stats(fault::Site::kPfsRead).delays == 0) {
    ASSERT_LT(ms_since(miss_start), 5000.0) << "the miss never reached the PFS";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The stated bound: every hit answers within a quarter of the stall.
  constexpr double kHitBoundMs = kStallMs / 4.0;
  const auto expected = workload::expected_contents(hot, alloc.tree.sizes[0]);
  const uint32_t size = static_cast<uint32_t>(alloc.tree.sizes[0]);
  for (int round = 0; round < 3; ++round) {
    auto t0 = std::chrono::steady_clock::now();
    auto reopened = hits.call(proto::kOpen, open_request(hot));
    EXPECT_LT(ms_since(t0), kHitBoundMs) << "hit kOpen waited";
    ASSERT_TRUE(reopened.ok()) << reopened.error().to_string();
    {
      WireReader r(*reopened);
      WireWriter close;
      close.put_u64(*r.get_u64());
      EXPECT_EQ(*r.get_u64(), alloc.tree.sizes[0]);
      EXPECT_EQ(*r.get_u8(), proto::kFromCache);
      ASSERT_TRUE(hits.call(proto::kClose, close).ok());
    }

    t0 = std::chrono::steady_clock::now();
    WireWriter read;
    read.put_u64(remote_fd);
    read.put_u64(0);
    read.put_u32(size);
    auto by_read = hits.call_payload(proto::kRead, read.bytes());
    EXPECT_LT(ms_since(t0), kHitBoundMs) << "hit kRead waited";
    ASSERT_TRUE(by_read.ok()) << by_read.error().to_string();
    WireReader rr(by_read->data(), by_read->size());
    auto blob = rr.get_blob_view();
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(std::vector<uint8_t>(blob->data, blob->data + blob->size),
              expected);

    t0 = std::chrono::steady_clock::now();
    auto by_fd = hits.call_payload(proto::kReadScatter,
                                   scatter_request(remote_fd, "", size));
    EXPECT_LT(ms_since(t0), kHitBoundMs) << "fd-mode scatter waited";
    ASSERT_TRUE(by_fd.ok()) << by_fd.error().to_string();
    EXPECT_EQ(scatter_bytes(*by_fd), expected);

    t0 = std::chrono::steady_clock::now();
    auto by_path = hits.call_payload(proto::kReadScatter,
                                     scatter_request(0, hot, size));
    EXPECT_LT(ms_since(t0), kHitBoundMs) << "path-mode scatter waited";
    ASSERT_TRUE(by_path.ok()) << by_path.error().to_string();
    EXPECT_EQ(scatter_bytes(*by_path), expected);
  }
  {
    WireWriter close;
    close.put_u64(remote_fd);
    ASSERT_TRUE(hits.call(proto::kClose, close).ok());
  }
  EXPECT_LT(ms_since(miss_start), double(kStallMs))
      << "the hits finished only after the stall ended";

  // The miss still completes, on the pool, with the right bytes.
  auto opened = miss.get();
  ASSERT_TRUE(opened.ok()) << opened.error().to_string();
  EXPECT_GE(ms_since(miss_start), double(kStallMs));
  WireReader r(*opened);
  const uint64_t cold_fd = *r.get_u64();
  const uint64_t cold_size = *r.get_u64();
  EXPECT_EQ(cold_size, alloc.tree.sizes[1]);
  EXPECT_EQ(*r.get_u8(), proto::kFromCache);
  WireWriter read;
  read.put_u64(cold_fd);
  read.put_u64(0);
  read.put_u32(static_cast<uint32_t>(cold_size));
  auto data = hits.call_payload(proto::kRead, read.bytes());
  ASSERT_TRUE(data.ok()) << data.error().to_string();
  WireReader dr(data->data(), data->size());
  auto blob = dr.get_blob_view();
  ASSERT_TRUE(blob.ok());
  EXPECT_TRUE(workload::verify_contents(
      cold, std::vector<uint8_t>(blob->data, blob->data + blob->size)));
}

// ---- accounting and client-side EOF ---------------------------------------

TEST(HitPath, PackedScatterMissesCountOnceAndEofCostsNoRpc) {
  // Cold containers: each one's first sample read defers from the
  // reactor to the pool. Either way every request counts once, and a
  // sample read to EOF is exactly one kReadScatter — the read at
  // offset == size is answered by the client.
  Allocation alloc("packed_once", 24, /*packed=*/true);
  ASSERT_GT(alloc.containers, 1u);
  HvacClient client(alloc.client_options());
  for (size_t i = 0; i < alloc.tree.relative_paths.size(); ++i) {
    auto data = read_to_eof(client, alloc.abs(i), 1 << 16);
    ASSERT_TRUE(data.ok()) << data.error().to_string();
    EXPECT_TRUE(workload::verify_contents(alloc.tree.relative_paths[i], *data));
  }
  const size_t samples = alloc.tree.relative_paths.size();
  const core::MetricsFrame frame = alloc.node->aggregated_frame();
  EXPECT_EQ(op_count(frame, proto::kReadScatter), samples);
  EXPECT_EQ(op_count(frame, proto::kOpen), 0u);
  // One miss per container, a hit for every other sample: the inline
  // probe that missed and deferred did not count a second time.
  EXPECT_EQ(frame.cache.misses, alloc.containers);
  EXPECT_EQ(frame.cache.hits + frame.cache.misses, samples);
  EXPECT_EQ(alloc.node->instance(0).rpc().requests_served(),
            all_op_counts(frame));
}

TEST(HitPath, PrefixReadToEofIsOneOpenRpc) {
  Allocation alloc("prefix_eof", 16, /*packed=*/false);
  HvacClientOptions options = alloc.client_options();
  options.meta_ttl_ms = 0;  // every open is a kOpen
  HvacClient client(options);
  const size_t files = alloc.tree.relative_paths.size();
  // Cold pass (opens fetch through the mover), then a warm pass. Every
  // file fits the open's prefix, and a buffer of exactly the file size
  // leaves the final read at offset == size: no read reaches the server.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < files; ++i) {
      auto data = read_to_eof(client, alloc.abs(i), alloc.tree.sizes[i]);
      ASSERT_TRUE(data.ok()) << data.error().to_string();
      EXPECT_TRUE(
          workload::verify_contents(alloc.tree.relative_paths[i], *data));
    }
  }
  const core::MetricsFrame frame = alloc.node->aggregated_frame();
  EXPECT_EQ(op_count(frame, proto::kOpen), 2 * files);
  EXPECT_EQ(op_count(frame, proto::kReadScatter), 0u);
  EXPECT_EQ(op_count(frame, proto::kRead), 0u);
  EXPECT_EQ(op_count(frame, proto::kClose), 0u);
  EXPECT_EQ(frame.cache.misses, files);
  EXPECT_EQ(frame.cache.hits, files);
  EXPECT_EQ(alloc.node->instance(0).rpc().requests_served(),
            all_op_counts(frame));
  EXPECT_EQ(client.stats().reads, 4 * files);  // EOF reads still count
}

// ---- scripted servers -----------------------------------------------------

// The source mode and extents of a kReadScatter request (fd or path
// mode).
struct ScatterRequest {
  uint8_t mode = 0;
  std::vector<std::pair<uint64_t, uint32_t>> extents;
};

ScatterRequest parse_scatter(const Bytes& req) {
  ScatterRequest sr;
  WireReader r(req);
  sr.mode = *r.get_u8();
  if (sr.mode == proto::kSourcePath) {
    (void)r.get_string();
  } else {
    (void)r.get_u64();
  }
  sr.extents.resize(*r.get_u32());
  for (auto& [off, len] : sr.extents) {
    off = *r.get_u64();
    len = *r.get_u32();
  }
  return sr;
}

// A scatter frame answering `extents` from `file`, each extent clamped
// to EOF and to `cap` bytes.
Bytes scatter_reply(const std::vector<uint8_t>& file,
                    const std::vector<std::pair<uint64_t, uint32_t>>& extents,
                    uint32_t cap) {
  WireWriter w;
  w.put_u32(static_cast<uint32_t>(extents.size()));
  std::vector<uint8_t> data;
  for (const auto& [off, len] : extents) {
    const uint64_t avail = off < file.size() ? file.size() - off : 0;
    const uint64_t n = std::min<uint64_t>({len, avail, cap});
    w.put_u64(off);
    w.put_u32(static_cast<uint32_t>(n));
    data.insert(data.end(), file.begin() + off, file.begin() + off + n);
  }
  Bytes out = std::move(w).take();
  out.insert(out.end(), data.begin(), data.end());
  return out;
}

// ---- fd mode against an old-shape server -----------------------------

TEST(HitPath, FdModeReadToEofIsOneReadRpc) {
  // A scripted server from before prefix opens: kOpen ignores the mode
  // byte and answers a bare header with a remote fd, so the client
  // reads by fd and closes remotely. A buffer of exactly the file size
  // leaves the final read at offset == size, which the client answers
  // without a round trip.
  const std::vector<std::string> names = {"a.bin", "b.bin", "c.bin"};
  std::vector<std::vector<uint8_t>> contents;
  for (size_t i = 0; i < names.size(); ++i) {
    contents.push_back(workload::expected_contents(names[i], 1000 + 900 * i));
  }
  std::atomic<int> opens{0};
  std::atomic<int> fd_scatters{0};
  std::atomic<int> other_scatters{0};
  std::atomic<int> closes{0};
  rpc::RpcServerOptions so;
  so.reactors = 1;
  rpc::RpcServer fake(so);
  fake.register_handler(proto::kOpen, [&](const Bytes& req) -> Result<Bytes> {
    ++opens;
    WireReader r(req);
    const std::string name = *r.get_string();
    for (size_t i = 0; i < names.size(); ++i) {
      if (name != names[i]) continue;
      WireWriter w;
      w.put_u64(i + 1);  // remote fd
      w.put_u64(contents[i].size());
      w.put_u8(proto::kFromCache);
      return std::move(w).take();
    }
    return Error(ErrorCode::kNotFound, name);
  });
  fake.register_handler(proto::kClose, [&](const Bytes&) -> Result<Bytes> {
    ++closes;
    return Bytes{};
  });
  fake.register_handler(proto::kReadScatter,
                        [&](const Bytes& req) -> Result<Bytes> {
    const ScatterRequest sr = parse_scatter(req);
    if (sr.mode != proto::kSourceFd) {
      ++other_scatters;
      return Error(ErrorCode::kInvalidArgument, "not an fd read");
    }
    ++fd_scatters;
    WireReader r(req);
    (void)r.get_u8();
    const uint64_t fd = *r.get_u64();
    return scatter_reply(contents.at(fd - 1), sr.extents, UINT32_MAX);
  });
  ASSERT_TRUE(fake.start().ok());

  const std::string root = temp_dir("fd_eof_pfs");
  HvacClientOptions o;
  o.dataset_dir = root;
  o.server_endpoints = {fake.endpoint().address};
  o.packed_enabled = false;
  o.meta_ttl_ms = 0;  // every open is a kOpen
  HvacClient client(o);
  const int files = static_cast<int>(names.size());
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < files; ++i) {
      auto data = read_to_eof(client, root + "/" + names[i],
                              contents[i].size());
      ASSERT_TRUE(data.ok()) << data.error().to_string();
      EXPECT_EQ(*data, contents[i]);
    }
  }
  EXPECT_EQ(opens.load(), 2 * files);
  EXPECT_EQ(fd_scatters.load(), 2 * files);
  EXPECT_EQ(other_scatters.load(), 0);
  EXPECT_EQ(closes.load(), 2 * files);
  EXPECT_EQ(client.stats().reads, 4u * files);  // EOF reads still count
  EXPECT_EQ(client.stats().prefix_bytes, 0u);
  fake.stop();
}

// ---- short read mid-file --------------------------------------------------

TEST(HitPath, ShortScatterMidFileStillRecovers) {
  // A scripted server: kOpen says "1000 bytes, cached"; a path-mode
  // kReadScatter answers short mid-file (a cut serving copy); an
  // fd-mode one on the re-opened fd answers in full. The EOF rule must
  // not swallow the short read: the client recovers and returns every
  // byte.
  constexpr uint32_t kSize = 1000;
  const std::vector<uint8_t> expected =
      workload::expected_contents("s.bin", kSize);
  std::atomic<int> opens{0};
  std::atomic<int> path_scatters{0};
  rpc::RpcServerOptions so;
  so.reactors = 1;
  rpc::RpcServer fake(so);
  fake.register_handler(proto::kOpen, [&](const Bytes&) -> Result<Bytes> {
    ++opens;
    WireWriter w;
    w.put_u64(7);
    w.put_u64(kSize);
    w.put_u8(proto::kFromCache);
    return std::move(w).take();
  });
  fake.register_handler(proto::kClose,
                        [](const Bytes&) -> Result<Bytes> { return Bytes{}; });
  fake.register_handler(proto::kReadScatter,
                        [&](const Bytes& req) -> Result<Bytes> {
    const ScatterRequest sr = parse_scatter(req);
    uint32_t cap = UINT32_MAX;
    if (sr.mode == proto::kSourcePath) {
      ++path_scatters;
      cap = 100;
    }
    return scatter_reply(expected, sr.extents, cap);
  });
  ASSERT_TRUE(fake.start().ok());

  const std::string root = temp_dir("short_pfs");
  HvacClientOptions o;
  o.dataset_dir = root;
  o.server_endpoints = {fake.endpoint().address};
  o.packed_enabled = false;
  o.readahead_chunks = 0;
  HvacClient client(o);
  const std::string path = root + "/s.bin";
  // The first open caches {size, home, cached} in the meta cache, so
  // the second opens a path-mode fd and reads by kReadScatter.
  auto first = client.open(path);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  ASSERT_TRUE(client.close(*first).ok());
  ASSERT_EQ(opens.load(), 1);

  auto data = read_to_eof(client, path, kSize);
  ASSERT_TRUE(data.ok()) << data.error().to_string();
  EXPECT_EQ(*data, expected);
  EXPECT_EQ(path_scatters.load(), 1);
  EXPECT_EQ(opens.load(), 2);  // recover_fd re-opened the file
  EXPECT_GE(client.stats().failovers, 1u);
  fake.stop();
}

// ---- read-ahead wait bound ------------------------------------------------

TEST(HitPath, StalledReadAheadWaitIsBounded) {
  // A scripted server that stalls every multi-extent kReadScatter (a
  // read-ahead batch) for 3 s and answers single-extent ones at once.
  // With a 200 ms call deadline, a read waits at most that long on the
  // stalled window, drops it and finishes on the synchronous path.
  constexpr uint32_t kSize = 4000;
  constexpr int kStallMs = 3000;
  const std::vector<uint8_t> expected =
      workload::expected_contents("s.bin", kSize);
  rpc::RpcServerOptions so;
  so.reactors = 1;
  so.handler_threads = 4;  // stalled batches must not starve the syncs
  rpc::RpcServer fake(so);
  fake.register_handler(proto::kOpen, [&](const Bytes&) -> Result<Bytes> {
    WireWriter w;
    w.put_u64(7);
    w.put_u64(kSize);
    w.put_u8(proto::kFromCache);
    return std::move(w).take();
  });
  fake.register_handler(proto::kClose,
                        [](const Bytes&) -> Result<Bytes> { return Bytes{}; });
  fake.register_handler(proto::kReadScatter,
                        [&](const Bytes& req) -> Result<Bytes> {
    const ScatterRequest sr = parse_scatter(req);
    if (sr.extents.size() > 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kStallMs));
    }
    return scatter_reply(expected, sr.extents, UINT32_MAX);
  });
  ASSERT_TRUE(fake.start().ok());

  const std::string root = temp_dir("stall_pfs");
  HvacClientOptions o;
  o.dataset_dir = root;
  o.server_endpoints = {fake.endpoint().address};
  o.packed_enabled = false;
  o.readahead_chunks = 2;
  o.rpc.call_timeout_ms = 200;
  HvacClient client(o);
  // The first open caches the file's metadata, so the timed read below
  // goes by path: the same kReadScatter mode a meta-cache or packed
  // open uses.
  const std::string path = root + "/s.bin";
  auto first = client.open(path);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  ASSERT_TRUE(client.close(*first).ok());
  const auto t0 = std::chrono::steady_clock::now();
  auto data = read_to_eof(client, path, kSize / 4);
  const double elapsed_ms = ms_since(t0);
  ASSERT_TRUE(data.ok()) << data.error().to_string();
  EXPECT_EQ(*data, expected);
  EXPECT_LT(elapsed_ms, 1500.0);
  EXPECT_GT(client.stats().readahead_issued, 0u);
  EXPECT_GT(client.stats().readahead_wasted, 0u);
  fake.stop();
}

}  // namespace
}  // namespace hvac
