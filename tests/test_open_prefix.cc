// Prefix-mode kOpen: one round trip per fitting sample. The reply
// carries the file's first proto::kOpenPrefixBytes, the fd holds no
// server state, reads inside the prefix are answered by the client,
// reads past it go by path, and close is local. Covers byte, return
// value and offset parity with a direct read of the PFS copy for
// files smaller than, equal to and larger than the prefix and for an
// empty file; a copy evicted (or a server lost) between open and read;
// the per-opcode server counts of a fitting sample; the old request
// shape still opening a remote fd for kRead/kClose; the reply telling
// a copy the open found from one it waited for; and the prefix byte
// accounting.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "client/hvac_client.h"
#include "rpc/rpc_client.h"
#include "rpc/wire.h"
#include "server/hvac_proto.h"
#include "server/node_runtime.h"
#include "storage/local_store.h"
#include "storage/posix_file.h"
#include "workload/file_tree.h"

namespace hvac {
namespace {

namespace fs = std::filesystem;
using client::HvacClient;
using client::HvacClientOptions;
using rpc::Bytes;
using rpc::WireReader;
using rpc::WireWriter;

constexpr uint64_t kPrefix = proto::kOpenPrefixBytes;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_prefix_" + name +
                          "_" + std::to_string(::getpid());
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

// One single-instance node over files of the given sizes.
struct PrefixNode {
  std::string pfs_root;
  std::vector<std::string> names;
  std::unique_ptr<server::NodeRuntime> node;

  PrefixNode(const std::string& name, const std::vector<uint64_t>& sizes) {
    pfs_root = temp_dir(name + "_pfs");
    for (size_t i = 0; i < sizes.size(); ++i) {
      names.push_back("f" + std::to_string(i) + ".bin");
      const auto data = workload::expected_contents(names[i], sizes[i]);
      EXPECT_TRUE(
          storage::write_file(abs(i), data.data(), data.size()).ok());
    }
    server::NodeRuntimeOptions o;
    o.pfs_root = pfs_root;
    o.cache_root = temp_dir(name + "_cache");
    o.instances = 1;
    o.rpc_reactors = 1;
    node = std::make_unique<server::NodeRuntime>(o);
    EXPECT_TRUE(node->start().ok());
  }

  HvacClientOptions client_options() const {
    HvacClientOptions o;
    o.dataset_dir = pfs_root;
    o.server_endpoints = node->endpoints();
    o.meta_ttl_ms = 0;  // every open is a kOpen
    return o;
  }

  std::string abs(size_t i) const { return pfs_root + "/" + names[i]; }
};

// Reads `path` to EOF through read(), `chunk` bytes per call.
std::vector<uint8_t> read_to_eof(HvacClient& client, const std::string& path,
                                 size_t chunk) {
  auto vfd = client.open(path);
  EXPECT_TRUE(vfd.ok()) << vfd.error().to_string();
  if (!vfd.ok()) return {};
  std::vector<uint8_t> data;
  std::vector<uint8_t> buf(chunk);
  for (;;) {
    auto n = client.read(*vfd, buf.data(), buf.size());
    EXPECT_TRUE(n.ok()) << n.error().to_string();
    if (!n.ok() || *n == 0) break;
    data.insert(data.end(), buf.begin(), buf.begin() + *n);
  }
  EXPECT_TRUE(client.close(*vfd).ok());
  return data;
}

// The same pread through HVAC and on the PFS copy: equal return value
// and bytes.
void expect_pread_parity(HvacClient& client, int vfd, int pfs_fd,
                         uint64_t offset, size_t count) {
  std::vector<uint8_t> got(count, 0xAA);
  std::vector<uint8_t> want(count, 0xAA);
  auto n = client.pread(vfd, got.data(), count, offset);
  ASSERT_TRUE(n.ok()) << n.error().to_string();
  const ssize_t m = ::pread(pfs_fd, want.data(), count, off_t(offset));
  ASSERT_GE(m, 0);
  ASSERT_EQ(*n, size_t(m)) << "pread(" << offset << ", " << count << ")";
  EXPECT_EQ(got, want) << "pread(" << offset << ", " << count << ")";
}

// read() after lseek through HVAC and on the PFS copy: equal seek
// results, return values, bytes and resulting offsets.
void expect_seek_read_parity(HvacClient& client, int vfd, int pfs_fd,
                             int64_t offset, int whence, size_t count) {
  auto pos = client.lseek(vfd, offset, whence);
  const off_t want_pos = ::lseek(pfs_fd, off_t(offset), whence);
  if (!pos.ok()) {
    EXPECT_EQ(want_pos, -1) << pos.error().to_string();
    return;  // a seek before the start: both refuse, neither moves
  }
  ASSERT_EQ(*pos, int64_t(want_pos));
  std::vector<uint8_t> got(count, 0x55);
  std::vector<uint8_t> want(count, 0x55);
  auto n = client.read(vfd, got.data(), count);
  ASSERT_TRUE(n.ok()) << n.error().to_string();
  ASSERT_EQ(*n, size_t(::read(pfs_fd, want.data(), count)));
  EXPECT_EQ(got, want);
  EXPECT_EQ(client.lseek(vfd, 0, SEEK_CUR).value(),
            int64_t(::lseek(pfs_fd, 0, SEEK_CUR)));
}

class OpenPrefixShapes : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OpenPrefixShapes, ReadsMatchThePfsInsideAcrossAndPastThePrefix) {
  const uint64_t size = GetParam();
  PrefixNode n("shape" + std::to_string(size), {size});
  HvacClient client(n.client_options());
  const int pfs_fd = ::open(n.abs(0).c_str(), O_RDONLY);
  ASSERT_GE(pfs_fd, 0);
  // Twice: the first open misses (the mover fetches, the prefix comes
  // off the fresh copy), the second hits on the reactor.
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    auto vfd = client.open(n.abs(0));
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    const uint64_t near_end = kPrefix > 100 ? kPrefix - 100 : 0;
    // Inside the prefix, straddling its end, past it, at and past EOF.
    for (const auto& [off, len] :
         std::vector<std::pair<uint64_t, size_t>>{{0, 1},
                                                  {0, 4096},
                                                  {17, 1000},
                                                  {near_end, 100},
                                                  {near_end, 300},
                                                  {kPrefix, 4096},
                                                  {kPrefix + 5, 70'000},
                                                  {size, 10},
                                                  {size + 1, 10},
                                                  {0, size + 4096}}) {
      expect_pread_parity(client, *vfd, pfs_fd, off, len);
    }
    expect_seek_read_parity(client, *vfd, pfs_fd, 10, SEEK_SET, 5000);
    expect_seek_read_parity(client, *vfd, pfs_fd, int64_t(near_end),
                            SEEK_SET, 250);
    expect_seek_read_parity(client, *vfd, pfs_fd, 1000, SEEK_CUR, 3000);
    expect_seek_read_parity(client, *vfd, pfs_fd, -50, SEEK_END, 100);
    expect_seek_read_parity(client, *vfd, pfs_fd, 0, SEEK_END, 100);
    ASSERT_TRUE(client.close(*vfd).ok());
    // A whole stream in odd-sized reads.
    const auto data = read_to_eof(client, n.abs(0), 7001);
    EXPECT_TRUE(workload::verify_contents(n.names[0], data));
    EXPECT_EQ(data.size(), size);
  }
  ::close(pfs_fd);
  EXPECT_EQ(n.node->instance(0).open_remote_fds(), 0u);
  const core::MetricsFrame frame = n.node->aggregated_frame();
  EXPECT_EQ(op_count(frame, proto::kOpen), 4u);
  EXPECT_EQ(op_count(frame, proto::kClose), 0u);
  // Only bytes past the prefix ever need a read RPC.
  if (size <= kPrefix) {
    EXPECT_EQ(op_count(frame, proto::kReadScatter), 0u);
  } else {
    EXPECT_GT(op_count(frame, proto::kReadScatter), 0u);
  }
  const client::ClientStats s = client.stats();
  EXPECT_EQ(s.prefix_bytes, 4 * std::min(size, kPrefix));
  n.node->stop();
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, OpenPrefixShapes,
    ::testing::Values(uint64_t{0}, uint64_t{24 << 10}, kPrefix - 1, kPrefix,
                      kPrefix + 1, 3 * kPrefix + 777),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "b" + std::to_string(info.param);
    });

TEST(OpenPrefix, FittingSampleIsOneKOpenAndNothingElse) {
  constexpr size_t kFiles = 12;
  std::vector<uint64_t> sizes;
  for (size_t i = 0; i < kFiles; ++i) sizes.push_back(20'000 + 997 * i);
  PrefixNode n("one_rpc", sizes);
  HvacClient client(n.client_options());
  // A cold pass (misses fetched by the mover) and a warm one (hits).
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < kFiles; ++i) {
      // A buffer larger than the file, as a loader reading to EOF.
      const auto data = read_to_eof(client, n.abs(i), sizes[i] + 1);
      EXPECT_TRUE(workload::verify_contents(n.names[i], data));
    }
  }
  const core::MetricsFrame frame = n.node->aggregated_frame();
  EXPECT_EQ(op_count(frame, proto::kOpen), 2 * kFiles);
  EXPECT_EQ(op_count(frame, proto::kReadScatter), 0u);
  EXPECT_EQ(op_count(frame, proto::kRead), 0u);
  EXPECT_EQ(op_count(frame, proto::kClose), 0u);
  EXPECT_EQ(op_count(frame, proto::kStat), 0u);
  EXPECT_EQ(frame.cache.misses, kFiles);
  EXPECT_EQ(frame.cache.hits, kFiles);
  // Besides the opens, the server answered only the client's one
  // packed-index probe.
  EXPECT_EQ(op_count(frame, proto::kPackedIndex), 1u);
  EXPECT_EQ(n.node->instance(0).rpc().requests_served(), 2 * kFiles + 1);
  const client::ClientStats s = client.stats();
  uint64_t total = 0;
  for (const uint64_t sz : sizes) total += sz;
  EXPECT_EQ(s.prefix_bytes, 2 * total);
  EXPECT_EQ(s.prefix_unread_bytes, 0u);
  EXPECT_EQ(s.reads, 4 * kFiles);  // the EOF reads count too
  n.node->stop();
}

TEST(OpenPrefix, EvictedBetweenOpenAndReadStillReadsRight) {
  const std::vector<uint64_t> sizes{30'000, 2 * kPrefix + 4321};
  PrefixNode n("evicted", sizes);
  HvacClient client(n.client_options());
  for (size_t i = 0; i < sizes.size(); ++i) {
    auto vfd = client.open(n.abs(i));
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    ASSERT_TRUE(n.node->instance(0).cache().evict(n.names[i]).ok());
    // The prefix bytes come from the client; the rest re-resolve on
    // the server, which fetches the file again.
    std::vector<uint8_t> data(sizes[i]);
    auto got = client.pread(*vfd, data.data(), data.size(), 0);
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    ASSERT_EQ(*got, sizes[i]);
    EXPECT_TRUE(workload::verify_contents(n.names[i], data));
    ASSERT_TRUE(client.close(*vfd).ok());
  }
  // Only the large file went back to the server for its tail.
  const core::MetricsFrame frame = n.node->aggregated_frame();
  EXPECT_EQ(frame.cache.misses, 3u);
  EXPECT_EQ(client.stats().failovers, 0u);
  n.node->stop();
}

TEST(OpenPrefix, ServerLostAfterOpenDegradesToThePfs) {
  const std::vector<uint64_t> sizes{30'000, 2 * kPrefix + 4321};
  PrefixNode n("lost", sizes);
  HvacClientOptions o = n.client_options();
  o.rpc.connect_timeout_ms = 200;
  o.rpc.recv_timeout_ms = 200;
  HvacClient client(o);
  std::vector<int> vfds;
  for (size_t i = 0; i < sizes.size(); ++i) {
    auto vfd = client.open(n.abs(i));
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    vfds.push_back(*vfd);
  }
  n.node->stop();
  for (size_t i = 0; i < sizes.size(); ++i) {
    std::vector<uint8_t> data(sizes[i]);
    auto got = client.pread(vfds[i], data.data(), data.size(), 0);
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    ASSERT_EQ(*got, sizes[i]);
    EXPECT_TRUE(workload::verify_contents(n.names[i], data));
    // Close needs no server, dead or alive.
    EXPECT_TRUE(client.close(vfds[i]).ok());
  }
  // The sample inside the prefix never noticed; the large one failed
  // over to the PFS for its tail.
  EXPECT_GE(client.stats().failovers, 1u);
}

TEST(OpenPrefix, OldShapeOpenStillGetsARemoteFd) {
  PrefixNode n("old_shape", {50'000});
  const auto expected = workload::expected_contents(n.names[0], 50'000);
  rpc::RpcClient rpc(rpc::Endpoint{n.node->endpoints()[0]});

  // No mode byte: a remote fd, read by kRead, released by kClose.
  WireWriter ow;
  ow.put_string(n.names[0]);
  auto opened = rpc.call(proto::kOpen, ow);
  ASSERT_TRUE(opened.ok()) << opened.error().to_string();
  ASSERT_EQ(opened->size(), 17u);  // remote_fd, size, served_from
  WireReader r(*opened);
  const uint64_t remote_fd = r.get_u64().value();
  EXPECT_NE(remote_fd, 0u);
  EXPECT_EQ(r.get_u64().value(), 50'000u);
  EXPECT_EQ(n.node->instance(0).open_remote_fds(), 1u);
  WireWriter rw;
  rw.put_u64(remote_fd);
  rw.put_u64(100);
  rw.put_u32(1000);
  auto blob = rpc.call(proto::kRead, rw);
  ASSERT_TRUE(blob.ok()) << blob.error().to_string();
  WireReader br(*blob);
  const Bytes bytes = br.get_blob().value();
  EXPECT_EQ(bytes, Bytes(expected.begin() + 100, expected.begin() + 1100));
  WireWriter cw;
  cw.put_u64(remote_fd);
  ASSERT_TRUE(rpc.call(proto::kClose, cw).ok());
  EXPECT_EQ(n.node->instance(0).open_remote_fds(), 0u);
  auto again = rpc.call(proto::kClose, cw);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, ErrorCode::kBadFd);

  // The explicit fd mode answers the same shape.
  WireWriter fw;
  fw.put_string(n.names[0]);
  fw.put_u8(proto::kOpenFd);
  auto fd_mode = rpc.call(proto::kOpen, fw);
  ASSERT_TRUE(fd_mode.ok()) << fd_mode.error().to_string();
  EXPECT_EQ(fd_mode->size(), 17u);

  // Prefix mode: fd 0, then the whole (fitting) file as one extent.
  WireWriter pw;
  pw.put_string(n.names[0]);
  pw.put_u8(proto::kOpenPrefix);
  auto prefixed = rpc.call(proto::kOpen, pw);
  ASSERT_TRUE(prefixed.ok()) << prefixed.error().to_string();
  WireReader pr(*prefixed);
  EXPECT_EQ(pr.get_u64().value(), 0u);
  EXPECT_EQ(pr.get_u64().value(), 50'000u);
  EXPECT_EQ(pr.get_u8().value(), proto::kFromCache);
  auto view = rpc::decode_scatter(prefixed->data() + 17, pr.remaining());
  ASSERT_TRUE(view.ok()) << view.error().to_string();
  ASSERT_EQ(view->extents.size(), 1u);
  EXPECT_EQ(view->extents[0].offset, 0u);
  ASSERT_EQ(view->extents[0].length, 50'000u);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         view->extents[0].data));
  // Prefix mode leaves nothing behind; an unknown mode is refused.
  EXPECT_EQ(n.node->instance(0).open_remote_fds(), 1u);
  WireWriter bad;
  bad.put_string(n.names[0]);
  bad.put_u8(7);
  auto refused = rpc.call(proto::kOpen, bad);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, ErrorCode::kInvalidArgument);
  n.node->stop();
}

TEST(OpenPrefix, UnreadPrefixBytesAreCountedAtClose) {
  const uint64_t big = 3 * kPrefix;
  PrefixNode n("unread", {big, 10'000});
  HvacClient client(n.client_options());
  auto vfd = client.open(n.abs(0));
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  std::vector<uint8_t> buf(1000);
  ASSERT_EQ(client.pread(*vfd, buf.data(), buf.size(), 0).value(), 1000u);
  ASSERT_EQ(client.pread(*vfd, buf.data(), 10, 5000).value(), 10u);
  ASSERT_TRUE(client.close(*vfd).ok());
  client::ClientStats s = client.stats();
  EXPECT_EQ(s.prefix_bytes, kPrefix);
  EXPECT_EQ(s.prefix_unread_bytes, kPrefix - 5010);

  // Read to its end, a sample leaves nothing unread.
  const auto data = read_to_eof(client, n.abs(1), 4096);
  EXPECT_EQ(data.size(), 10'000u);
  s = client.stats();
  EXPECT_EQ(s.prefix_bytes, kPrefix + 10'000);
  EXPECT_EQ(s.prefix_unread_bytes, kPrefix - 5010);
  const std::string json = client::stats_to_json(s);
  EXPECT_NE(json.find("\"prefix_bytes\":" + std::to_string(kPrefix + 10'000)),
            std::string::npos);
  EXPECT_NE(json.find("\"prefix_unread_bytes\":" +
                      std::to_string(kPrefix - 5010)),
            std::string::npos);
  n.node->stop();
}

TEST(OpenPrefix, ReplySaysWhetherTheCopyWasFoundOrFetched) {
  PrefixNode n("found", {10'000, 10'000});
  rpc::RpcClient rpc(rpc::Endpoint{n.node->endpoints()[0]});
  const auto served_from = [&](size_t i, uint8_t mode) -> int {
    WireWriter w;
    w.put_string(n.names[i]);
    w.put_u8(mode);
    auto reply = rpc.call(proto::kOpen, w);
    if (!reply.ok()) return -1;
    WireReader r(*reply);
    (void)r.get_u64();
    (void)r.get_u64();
    return r.get_u8().value_or(0xff);
  };
  // A cold prefix open waits for the mover's fetch; the next one finds
  // the copy.
  EXPECT_EQ(served_from(0, proto::kOpenPrefix), proto::kFromCacheFetched);
  EXPECT_EQ(served_from(0, proto::kOpenPrefix), proto::kFromCache);
  // An fd-mode reply says kFromCache for a fetched copy, as before.
  EXPECT_EQ(served_from(1, proto::kOpenFd), proto::kFromCache);
  n.node->stop();
}

TEST(StoreReservation, ReservedBytesCountAsUsedUntilInsertOrRelease) {
  storage::LocalStore store(temp_dir("reserve"), /*capacity_bytes=*/100);
  ASSERT_TRUE(store.reserve(60));
  EXPECT_FALSE(store.reserve(50));  // 60 reserved + 50 > 100
  ASSERT_TRUE(store.reserve(40));
  // Growth by the write path sees the reservations too.
  Status grown = store.update_size("w", 1);
  ASSERT_FALSE(grown.ok());
  EXPECT_EQ(grown.error().code, ErrorCode::kCapacity);
  // insert() turns a reservation into use; release() gives one back.
  ASSERT_TRUE(store.insert("a", 55, /*reserved=*/60).ok());
  EXPECT_EQ(store.bytes_used(), 55u);
  EXPECT_FALSE(store.reserve(10));  // 55 used + 40 reserved + 10
  store.release(40);
  EXPECT_TRUE(store.reserve(45));
  // A failed insert still hands its reservation back.
  Status over = store.insert("b", 50, /*reserved=*/45);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.error().code, ErrorCode::kCapacity);
  EXPECT_TRUE(store.reserve(45));
}

}  // namespace
}  // namespace hvac
