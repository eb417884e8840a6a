// Metrics frame v2: encode/decode round trips, v1<->v2 cross-version
// decoding, histogram bucket boundaries and percentile estimation, and
// multi-instance aggregation through NodeRuntime::aggregated_frame.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "client/hvac_client.h"
#include "core/metrics.h"
#include "core/metrics_frame.h"
#include "core/metrics_schema.h"
#include "core/timeseries.h"
#include "rpc/rpc_client.h"
#include "rpc/wire.h"
#include "server/hvac_proto.h"
#include "server/node_runtime.h"
#include "server/prom_exporter.h"
#include "workload/file_tree.h"

namespace hvac {
namespace {

using core::kLatencyBuckets;
using core::LatencyHistogram;
using core::LatencySnapshot;
using core::MetricsFrame;
using rpc::Bytes;
using rpc::WireReader;
using rpc::WireWriter;

MetricsFrame sample_frame() {
  MetricsFrame f;
  f.cache.hits = 10;
  f.cache.misses = 3;
  f.cache.dedup_waits = 1;
  f.cache.evictions = 2;
  f.cache.bytes_from_cache = 4096;
  f.cache.bytes_from_pfs = 1024;
  f.cache.pfs_fallbacks = 1;
  f.open_fds = 7;
  f.handle_cache = {5, 2, 4, 1, 3, 128};
  f.buffer_pool = {100, 90, 10, 80, 5};
  f.readahead = {40, 30, 6};
  f.zerocopy = {50, 8, 3, 1 << 20, 1 << 16, 2};
  f.meta_cache = {25, 9, 4, 2};
  f.reactor.reactors = {{6, 100, 12, 3}, {2, 40, 0, 1}};
  // epoch, reads, total, local_hit, remote_rpc, pfs_wait, backpressure,
  // retry — buckets sum to total by construction.
  f.stall.epochs = {{1, 100, 5000, 1000, 2000, 1500, 400, 100}};
  LatencySnapshot lat;
  lat.count = 2;
  lat.total_ns = 3000;
  lat.buckets[10] = 2;
  f.op_latency[proto::kRead] = lat;
  return f;
}

TEST(MetricsFrame, EncodeDecodeRoundTrip) {
  const MetricsFrame f = sample_frame();
  const auto decoded = MetricsFrame::decode(f.encode());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded->version, core::kFrameVersion);
  EXPECT_EQ(decoded->cache.hits, 10u);
  EXPECT_EQ(decoded->cache.misses, 3u);
  EXPECT_EQ(decoded->cache.bytes_from_cache, 4096u);
  EXPECT_EQ(decoded->open_fds, 7u);
  EXPECT_EQ(decoded->handle_cache.hits, 5u);
  EXPECT_EQ(decoded->handle_cache.pinned, 1u);
  EXPECT_EQ(decoded->handle_cache.deferred_closes, 3u);
  EXPECT_EQ(decoded->buffer_pool.leases, 100u);
  EXPECT_EQ(decoded->buffer_pool.fallback_allocs, 10u);
  EXPECT_EQ(decoded->readahead.issued, 40u);
  EXPECT_EQ(decoded->readahead.wasted, 6u);
  EXPECT_EQ(decoded->zerocopy.sendfile_sends, 50u);
  EXPECT_EQ(decoded->zerocopy.sendfile_bytes, uint64_t{1} << 20);
  EXPECT_EQ(decoded->zerocopy.short_resumes, 2u);
  EXPECT_EQ(decoded->meta_cache.hits, 25u);
  EXPECT_EQ(decoded->meta_cache.invalidated, 2u);
  ASSERT_EQ(decoded->reactor.reactors.size(), 2u);
  EXPECT_EQ(decoded->reactor.reactors[0].conns, 6u);
  EXPECT_EQ(decoded->reactor.reactors[0].requests, 100u);
  EXPECT_EQ(decoded->reactor.reactors[0].steals, 12u);
  EXPECT_EQ(decoded->reactor.reactors[1].shed, 1u);
  ASSERT_EQ(decoded->op_latency.count(proto::kRead), 1u);
  const LatencySnapshot& lat = decoded->op_latency.at(proto::kRead);
  EXPECT_EQ(lat.count, 2u);
  EXPECT_EQ(lat.total_ns, 3000u);
  EXPECT_EQ(lat.buckets[10], 2u);
  ASSERT_EQ(decoded->stall.epochs.size(), 1u);
  EXPECT_EQ(decoded->stall.epochs[0].epoch, 1u);
  EXPECT_EQ(decoded->stall.epochs[0].reads, 100u);
  EXPECT_EQ(decoded->stall.epochs[0].total_ns, 5000u);
  EXPECT_EQ(decoded->stall.epochs[0].remote_rpc_ns, 2000u);
  EXPECT_EQ(decoded->stall.epochs[0].retry_ns, 100u);
}

TEST(MetricsFrame, V1ClientDecodesV2Prefix) {
  // A v1-era decoder reads eight bare u64 words and ignores whatever
  // follows — the v2 frame must serve it the original counters.
  const MetricsFrame f = sample_frame();
  const Bytes encoded = f.encode();
  WireReader r(encoded);
  uint64_t v[8] = {0};
  for (auto& x : v) {
    auto got = r.get_u64();
    ASSERT_TRUE(got.ok());
    x = *got;
  }
  EXPECT_EQ(v[0], f.cache.hits);
  EXPECT_EQ(v[1], f.cache.misses);
  EXPECT_EQ(v[2], f.cache.dedup_waits);
  EXPECT_EQ(v[3], f.cache.evictions);
  EXPECT_EQ(v[4], f.cache.bytes_from_cache);
  EXPECT_EQ(v[5], f.cache.bytes_from_pfs);
  EXPECT_EQ(v[6], f.cache.pfs_fallbacks);
  EXPECT_EQ(v[7], f.open_fds);
}

TEST(MetricsFrame, V2ClientDecodesV1Frame) {
  // A legacy server sends exactly eight words and no magic.
  WireWriter w;
  for (uint64_t i = 1; i <= 8; ++i) w.put_u64(i * 11);
  const auto decoded = MetricsFrame::decode(w.bytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->version, 1u);
  EXPECT_EQ(decoded->cache.hits, 11u);
  EXPECT_EQ(decoded->cache.pfs_fallbacks, 77u);
  EXPECT_EQ(decoded->open_fds, 88u);
  // v2-only sections default to zero rather than garbage.
  EXPECT_EQ(decoded->handle_cache.hits, 0u);
  EXPECT_EQ(decoded->buffer_pool.leases, 0u);
  EXPECT_EQ(decoded->readahead.issued, 0u);
  EXPECT_TRUE(decoded->op_latency.empty());
}

TEST(MetricsFrame, TruncatedPrefixIsError) {
  WireWriter w;
  w.put_u64(1);
  EXPECT_FALSE(MetricsFrame::decode(w.bytes()).ok());
}

TEST(MetricsFrame, UnknownSectionsAndExtraFieldsAreSkipped) {
  // A frame from a *newer* build: an unknown section id, plus a
  // read-ahead section that grew an extra trailing field. Both must
  // decode cleanly with today's schema.
  WireWriter w;
  for (uint64_t i = 1; i <= 8; ++i) w.put_u64(i);
  w.put_u32(core::kMetricsFrameMagic);
  w.put_u16(3);  // a future version
  w.put_u16(2);  // two sections
  {
    WireWriter s;  // unknown section id 99
    s.put_u64(0xdeadbeef);
    w.put_u16(99);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  {
    WireWriter s;  // read-ahead with one extra future field
    s.put_u64(4);
    s.put_u64(3);
    s.put_u64(2);
    s.put_u64(999);
    w.put_u16(core::kSectionReadAhead);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  const auto decoded = MetricsFrame::decode(w.bytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->version, 3u);
  EXPECT_EQ(decoded->readahead.issued, 4u);
  EXPECT_EQ(decoded->readahead.consumed, 3u);
  EXPECT_EQ(decoded->readahead.wasted, 2u);
}

TEST(LatencyHistogramTest, BucketBoundaries) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1023), 9u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1024), 10u);
  EXPECT_EQ(LatencyHistogram::bucket_of(uint64_t{1} << 39), 39u);
  // Everything past the last bucket clamps instead of overflowing.
  EXPECT_EQ(LatencyHistogram::bucket_of(uint64_t{1} << 40),
            kLatencyBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucket_of(~uint64_t{0}), kLatencyBuckets - 1);
}

TEST(LatencyHistogramTest, RecordAndPercentiles) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.record(1000);       // bucket 9: [512, 1024)
  h.record(uint64_t{1} << 20);                       // one ~1ms outlier
  const LatencySnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.buckets[9], 99u);
  EXPECT_EQ(s.buckets[20], 1u);
  const double p50 = s.percentile_ns(50);
  EXPECT_GE(p50, 512.0);
  EXPECT_LE(p50, 1024.0);
  // p99 still lands in the dense bucket (rank 100 is the outlier).
  EXPECT_LE(s.percentile_ns(98), 1024.0);
  const double p100 = s.percentile_ns(100);
  EXPECT_GE(p100, double(uint64_t{1} << 20));
  EXPECT_GT(s.mean_ns(), 1000.0);
}

TEST(MetricsFrame, MergeSumsSections) {
  MetricsFrame a = sample_frame();
  const MetricsFrame b = sample_frame();
  a.merge(b);
  EXPECT_EQ(a.cache.hits, 20u);
  EXPECT_EQ(a.open_fds, 14u);
  EXPECT_EQ(a.handle_cache.deferred_closes, 6u);
  EXPECT_EQ(a.buffer_pool.leases, 200u);
  EXPECT_EQ(a.readahead.consumed, 60u);
  EXPECT_EQ(a.zerocopy.sendfile_sends, 100u);
  EXPECT_EQ(a.meta_cache.hits, 50u);
  // Reactor rows merge element-wise by index (instance A reactor i +
  // instance B reactor i).
  ASSERT_EQ(a.reactor.reactors.size(), 2u);
  EXPECT_EQ(a.reactor.reactors[0].requests, 200u);
  EXPECT_EQ(a.reactor.reactors[1].conns, 4u);
  EXPECT_EQ(a.op_latency.at(proto::kRead).count, 4u);
  EXPECT_EQ(a.op_latency.at(proto::kRead).buckets[10], 4u);
  // Stall rows merge by epoch id (same epoch observed on two clients).
  ASSERT_EQ(a.stall.epochs.size(), 1u);
  EXPECT_EQ(a.stall.epochs[0].epoch, 1u);
  EXPECT_EQ(a.stall.epochs[0].reads, 200u);
  EXPECT_EQ(a.stall.epochs[0].total_ns, 10000u);
  EXPECT_EQ(a.stall.epochs[0].pfs_wait_ns, 3000u);
}

TEST(MetricsFrame, StallMergeKeepsDistinctEpochs) {
  MetricsFrame a;
  a.stall.epochs = {{1, 10, 100, 100, 0, 0, 0, 0}};
  MetricsFrame b;
  b.stall.epochs = {{1, 5, 50, 0, 50, 0, 0, 0},
                    {2, 7, 70, 0, 0, 70, 0, 0}};
  a.merge(b);
  ASSERT_EQ(a.stall.epochs.size(), 2u);
  EXPECT_EQ(a.stall.epochs[0].epoch, 1u);
  EXPECT_EQ(a.stall.epochs[0].reads, 15u);
  EXPECT_EQ(a.stall.epochs[0].total_ns, 150u);
  EXPECT_EQ(a.stall.epochs[0].remote_rpc_ns, 50u);
  EXPECT_EQ(a.stall.epochs[1].epoch, 2u);
  EXPECT_EQ(a.stall.epochs[1].pfs_wait_ns, 70u);
}

TEST(MetricsFrame, ReactorMergeHandlesRaggedCounts) {
  // Frames from servers running different reactor counts: the merged
  // row set is the longer of the two, missing rows count as zero.
  MetricsFrame a;
  a.reactor.reactors = {{1, 10, 0, 0}};
  MetricsFrame b;
  b.reactor.reactors = {{2, 20, 5, 1}, {3, 30, 6, 2}};
  a.merge(b);
  ASSERT_EQ(a.reactor.reactors.size(), 2u);
  EXPECT_EQ(a.reactor.reactors[0].conns, 3u);
  EXPECT_EQ(a.reactor.reactors[0].requests, 30u);
  EXPECT_EQ(a.reactor.reactors[1].requests, 30u);
  EXPECT_EQ(a.reactor.reactors[1].steals, 6u);
}

TEST(MetricsFrame, ReactorSectionCrossVersionRoundTrip) {
  // A reactor section from a *future* build whose rows grew a fifth
  // word: today's decoder must read the four fields it knows and skip
  // the tail of every row.
  WireWriter w;
  for (uint64_t i = 1; i <= 8; ++i) w.put_u64(i);
  w.put_u32(core::kMetricsFrameMagic);
  w.put_u16(core::kFrameVersion);
  w.put_u16(1);  // one section
  {
    WireWriter s;
    s.put_u16(2);  // two reactors
    s.put_u16(5);  // five words per row (one unknown to this build)
    for (uint64_t r = 0; r < 2; ++r) {
      s.put_u64(10 + r);  // conns
      s.put_u64(20 + r);  // requests
      s.put_u64(30 + r);  // steals
      s.put_u64(40 + r);  // shed
      s.put_u64(0xabcd);  // the future field
    }
    w.put_u16(core::kSectionReactors);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  const auto decoded = MetricsFrame::decode(w.bytes());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  ASSERT_EQ(decoded->reactor.reactors.size(), 2u);
  EXPECT_EQ(decoded->reactor.reactors[0].conns, 10u);
  EXPECT_EQ(decoded->reactor.reactors[1].requests, 21u);
  EXPECT_EQ(decoded->reactor.reactors[1].shed, 41u);

  // And the symmetric direction: a frame encoded by this build whose
  // sections an *older* decoder does not know — the old decode path is
  // the unknown-id skip, proven by re-encoding and checking a frame
  // with the reactor section still yields every other section intact.
  const auto again = MetricsFrame::decode(decoded->encode());
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->reactor.reactors.size(), 2u);
  EXPECT_EQ(again->reactor.reactors[0].steals, 30u);
  EXPECT_EQ(again->cache.hits, 1u);
  EXPECT_EQ(again->open_fds, 8u);
}

TEST(MetricsFrame, StallSectionCrossVersionRoundTrip) {
  // A stall section from a *future* build whose rows grew a ninth
  // word: today's decoder must read the eight fields it knows and skip
  // the tail of every row.
  WireWriter w;
  for (uint64_t i = 1; i <= 8; ++i) w.put_u64(i);
  w.put_u32(core::kMetricsFrameMagic);
  w.put_u16(core::kFrameVersion);
  w.put_u16(1);  // one section
  {
    WireWriter s;
    s.put_u16(2);  // two epochs
    s.put_u16(9);  // nine words per row (one unknown to this build)
    for (uint64_t r = 0; r < 2; ++r) {
      s.put_u64(1 + r);    // epoch
      s.put_u64(100 + r);  // reads
      s.put_u64(500 + r);  // total_ns
      s.put_u64(100);      // local_hit_ns
      s.put_u64(200);      // remote_rpc_ns
      s.put_u64(150);      // pfs_wait_ns
      s.put_u64(40);       // backpressure_ns
      s.put_u64(10 + r);   // retry_ns
      s.put_u64(0xabcd);   // the future field
    }
    w.put_u16(core::kSectionStall);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  const auto decoded = MetricsFrame::decode(w.bytes());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  ASSERT_EQ(decoded->stall.epochs.size(), 2u);
  EXPECT_EQ(decoded->stall.epochs[0].epoch, 1u);
  EXPECT_EQ(decoded->stall.epochs[0].reads, 100u);
  EXPECT_EQ(decoded->stall.epochs[1].total_ns, 501u);
  EXPECT_EQ(decoded->stall.epochs[1].retry_ns, 11u);

  // Re-encoding with today's schema keeps both the stall rows and the
  // legacy prefix intact.
  const auto again = MetricsFrame::decode(decoded->encode());
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->stall.epochs.size(), 2u);
  EXPECT_EQ(again->stall.epochs[1].remote_rpc_ns, 200u);
  EXPECT_EQ(again->cache.hits, 1u);
  EXPECT_EQ(again->open_fds, 8u);
}

TEST(MetricsFrame, JsonSpellsOutEverySection) {
  const std::string json = sample_frame().to_json();
  for (const char* key :
       {"\"version\":2", "\"cache\"", "\"handle_cache\"", "\"buffer_pool\"",
        "\"read_ahead\"", "\"latency_us\"", "\"read\"", "\"p50\"",
        "\"p99\"", "\"deferred_closes\":3", "\"wasted\":6",
        "\"zero_copy\"", "\"sendfile_sends\":50",
        "\"meta_cache\"", "\"invalidated\":2",
        "\"reactors\"", "\"steals\":12",
        "\"stall\"", "\"pfs_wait_s\"", "\"retry_s\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

// ---- golden outputs: every view of one fully populated frame -------------
//
// Every field holds a distinct non-zero value, so a word that moves,
// drops out or swaps with a neighbour changes the pinned output. The
// constants below are the frame-v2 wire format and the JSON and
// OpenMetrics surfaces as operators and dashboards see them: a change
// here is a protocol or dashboard change, never a refactor.

MetricsFrame golden_frame() {
  MetricsFrame f;
  f.cache.hits = 1001;
  f.cache.misses = 1002;
  f.cache.dedup_waits = 1003;
  f.cache.evictions = 1004;
  f.cache.bytes_from_cache = 1005;
  f.cache.bytes_from_pfs = 1006;
  f.cache.pfs_fallbacks = 1007;
  f.open_fds = 1008;
  f.handle_cache = {2001, 2002, 2003, 2004, 2005, 2006};
  f.buffer_pool = {3001, 3002, 3003, 3004, 3005};
  f.readahead = {4001, 4002, 4003};
  f.resilience = {5001, 5002, 5003, 5004, 5005, 5006,
                  5007, 5008, 5009, 5010, 5011};
  f.zerocopy = {6001, 6002, 6003, 6004, 6005, 6006};
  f.meta_cache = {7001, 7002, 7003, 7004};
  f.trace = {8001, 8002, 8003, 8004, 8005};
  f.reactor.reactors = {{9001, 9002, 9003, 9004, 9005},
                        {9011, 9012, 9013, 9014, 9015}};
  f.write_back = {10001, 10002, 10003, 10004, 10005, 10006, 10007,
                  10008, 10009, 10010, 10011, 10012, 10013, 10014,
                  10015, 10016, 10017, 10018, 10019};
  f.prefetch = {11001, 11002, 11003, 11004, 11005,
                11006, 11007, 11008, 11009, {}};
  f.prefetch.paced_delay.count = 3;
  f.prefetch.paced_delay.total_ns = 7000;
  f.prefetch.paced_delay.buckets[11] = 2;
  f.prefetch.paced_delay.buckets[12] = 1;
  f.stall.epochs = {{1, 100, 5'000'000, 1'000'000, 2'000'000, 1'500'000,
                     400'000, 100'000},
                    {2, 60, 3'000'000, 900'000, 1'100'000, 600'000,
                     300'000, 100'000}};
  LatencySnapshot read;
  read.count = 5;
  read.total_ns = 9000;
  read.buckets[10] = 3;
  read.buckets[13] = 2;
  f.op_latency[proto::kRead] = read;
  LatencySnapshot open;
  open.count = 2;
  open.total_ns = 4000;
  open.buckets[11] = 2;
  f.op_latency[proto::kOpen] = open;
  return f;
}

// The previous sample for the delta golden: some words below the
// current frame, some above it (a restarted peer), one reactor row
// fewer, and kOpen absent.
MetricsFrame golden_prev() {
  MetricsFrame f;
  f.cache = {1, 2000, 3, 4, 5, 6000, 7};
  f.open_fds = 8;
  f.handle_cache = {21, 22, 23, 24, 20000, 26};
  f.buffer_pool = {31, 32, 33, 30000, 35};
  f.readahead = {41, 42, 40000};
  f.resilience = {51, 52, 53, 54, 55, 56, 57, 58, 59, 50000, 61};
  f.zerocopy = {61, 62, 63, 64, 65, 60000};
  f.meta_cache = {71, 72, 73, 70000};
  f.trace = {81, 82, 83, 84, 85};
  f.reactor.reactors = {{91, 92, 93, 94, 90000}};
  f.write_back = {101, 102, 103, 104, 105, 106, 107, 108, 109, 110,
                  111, 112, 100000, 114, 115, 116, 117, 118, 119};
  f.prefetch = {111, 112, 113, 114, 115, 116, 117, 118, 119, {}};
  f.prefetch.paced_delay.count = 1;
  f.prefetch.paced_delay.total_ns = 2000;
  f.prefetch.paced_delay.buckets[11] = 1;
  f.stall.epochs = {{1, 10, 500'000, 100'000, 200'000, 150'000, 40'000,
                     10'000}};
  LatencySnapshot read;
  read.count = 1;
  read.total_ns = 1000;
  read.buckets[10] = 1;
  f.op_latency[proto::kRead] = read;
  return f;
}

std::string to_hex(const Bytes& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

const char* const kGoldenFrameHex =
    "e903000000000000ea03000000000000eb03000000000000ec03000000000000"
    "ed03000000000000ee03000000000000ef03000000000000f003000000000000"
    "48564d3202000c00010030000000d107000000000000d207000000000000d307"
    "000000000000d407000000000000d507000000000000d6070000000000000200"
    "28000000b90b000000000000ba0b000000000000bb0b000000000000bc0b0000"
    "00000000bd0b000000000000030018000000a10f000000000000a20f00000000"
    "0000a30f0000000000000400aa020000020002000200000000000000a00f0000"
    "0000000028000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000200"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000300050000000000000028230000000000002800000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000003000000000000000000000000000000000000000000"
    "0000020000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000050058000000"
    "89130000000000008a130000000000008b130000000000008c13000000000000"
    "8d130000000000008e130000000000008f130000000000009013000000000000"
    "9113000000000000921300000000000093130000000000000600300000007117"
    "0000000000007217000000000000731700000000000074170000000000007517"
    "0000000000007617000000000000070020000000591b0000000000005a1b0000"
    "000000005b1b0000000000005c1b000000000000080028000000411f00000000"
    "0000421f000000000000431f000000000000441f000000000000451f00000000"
    "00000900540000000200050029230000000000002a230000000000002b230000"
    "000000002c230000000000002d23000000000000332300000000000034230000"
    "000000003523000000000000362300000000000037230000000000000a009800"
    "0000112700000000000012270000000000001327000000000000142700000000"
    "0000152700000000000016270000000000001727000000000000182700000000"
    "000019270000000000001a270000000000001b270000000000001c2700000000"
    "00001d270000000000001e270000000000001f27000000000000202700000000"
    "00002127000000000000222700000000000023270000000000000b009a010000"
    "f92a000000000000fa2a000000000000fb2a000000000000fc2a000000000000"
    "fd2a000000000000fe2a000000000000ff2a000000000000002b000000000000"
    "012b0000000000000300000000000000581b0000000000002800000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000200000000000000010000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000000000000c0084000000"
    "0200080001000000000000006400000000000000404b4c000000000040420f00"
    "0000000080841e000000000060e3160000000000801a060000000000a0860100"
    "0000000002000000000000003c00000000000000c0c62d0000000000a0bb0d00"
    "00000000e0c8100000000000c027090000000000e093040000000000a0860100"
    "00000000";

const char* const kGoldenJson =
    R"json({"version":2,"cache":{"hits":1001,"misses":1002,"hit_rate":0.49975,"dedup_waits":1003,"evictions":1004,"bytes_from_cache":1005,"bytes_from_pfs":1006,"pfs_fallbacks":1007},)json"
    R"json("open_fds":1008,"handle_cache":{"hits":2001,"misses":2002,"open":2003,"pinned":2004,"deferred_closes":2005,"capacity":2006},)json"
    R"json("buffer_pool":{"leases":3001,"pool_hits":3002,"fallback_allocs":3003,"recycled":3004,"dropped":3005},)json"
    R"json("read_ahead":{"issued":4001,"consumed":4002,"wasted":4003},)json"
    R"json("resilience":{"breaker_opens":5001,"breaker_closes":5002,"breaker_probes":5003,"breaker_shed":5004,"retries":5005,"deadline_misses":5006,"server_shed":5007,"mover_rejects":5008,"drains":5009,"drained_requests":5010,"faults_injected":5011},)json"
    R"json("zero_copy":{"sendfile_sends":6001,"splice_sends":6002,"fallback_sends":6003,"sendfile_bytes":6004,"splice_bytes":6005,"short_resumes":6006},)json"
    R"json("meta_cache":{"hits":7001,"misses":7002,"expired":7003,"invalidated":7004},)json"
    R"json("trace":{"emitted":8001,"dropped":8002,"rings":8003,"ring_capacity":8004,"occupancy":8005},)json"
    R"json("reactors":[{"conns":9001,"requests":9002,"steals":9003,"shed":9004,"steal_backoffs":9005},{"conns":9011,"requests":9012,"steals":9013,"shed":9014,"steal_backoffs":9015}],)json"
    R"json("write_back":{"writes":10001,"bytes_written":10002,"fsyncs":10003,"dirty_bytes":10004,"dirty_files":10005,"journal_records":10006,"journal_bytes":10007,"flushed_files":10008,"flush_retries":10009,"flush_failures":10010,"flush_queue_depth":10011,"flush_inflight":10012,"flush_lag_ms":10013,"write_through_sheds":10014,"write_through_bytes":10015,"replay_writes":10016,"replay_bytes":10017,"replay_truncated_bytes":10018,"replay_dirty_files":10019},)json"
    R"json("prefetch":{"planned":11001,"issued":11002,"completed":11003,"shed":11004,"late":11005,"hit_after_prefetch":11006,"deduped":11007,"dedup_inflight":11008,"paced_delay_us":{"count":3,"mean":2.333,"p50":3.072,"p99":3.072}},)json"
    R"json("stall":[{"epoch":1,"reads":100,"stall_s":0.005000,"local_hit_s":0.001000,"remote_rpc_s":0.002000,"pfs_wait_s":0.001500,"backpressure_s":0.000400,"retry_s":0.000100},{"epoch":2,"reads":60,"stall_s":0.003000,"local_hit_s":0.000900,"remote_rpc_s":0.001100,"pfs_wait_s":0.000600,"backpressure_s":0.000300,"retry_s":0.000100}],)json"
    R"json("latency_us":{"open":{"count":2,"mean":2.000,"p50":2.048,"p99":2.048},)json"
    R"json("read":{"count":5,"mean":1.800,"p50":1.707,"p99":8.192}}})json";

const char* const kGoldenDeltaHex =
    "e8030000000000000000000000000000e803000000000000e803000000000000"
    "e8030000000000000000000000000000e803000000000000f003000000000000"
    "48564d3202000c00010030000000bc07000000000000bc07000000000000d307"
    "000000000000d4070000000000000000000000000000d6070000000000000200"
    "280000009a0b0000000000009a0b0000000000009a0b00000000000000000000"
    "000000009a0b000000000000030018000000780f000000000000780f00000000"
    "000000000000000000000400aa020000020002000200000000000000a00f0000"
    "0000000028000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000200"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "00000000000003000400000000000000401f0000000000002800000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000002000000000000000000000000000000000000000000"
    "0000020000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000050058000000"
    "5613000000000000561300000000000056130000000000005613000000000000"
    "5613000000000000561300000000000056130000000000005613000000000000"
    "5613000000000000000000000000000056130000000000000600300000003417"
    "0000000000003417000000000000341700000000000034170000000000003417"
    "0000000000000000000000000000070020000000121b000000000000121b0000"
    "00000000121b0000000000000000000000000000080028000000f01e00000000"
    "0000f01e000000000000431f000000000000441f000000000000451f00000000"
    "000009005400000002000500ce22000000000000ce22000000000000ce220000"
    "00000000ce220000000000000000000000000000332300000000000034230000"
    "000000003523000000000000362300000000000037230000000000000a009800"
    "0000ac26000000000000ac26000000000000ac26000000000000142700000000"
    "0000152700000000000016270000000000001727000000000000ac2600000000"
    "0000ac26000000000000ac260000000000001b270000000000001c2700000000"
    "00001d27000000000000ac26000000000000ac26000000000000202700000000"
    "00002127000000000000222700000000000023270000000000000b009a010000"
    "8a2a0000000000008a2a0000000000008a2a0000000000008a2a000000000000"
    "8a2a0000000000008a2a0000000000008a2a000000000000002b000000000000"
    "012b000000000000020000000000000088130000000000002800000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000100000000000000010000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000000000000c0084000000"
    "0200080001000000000000006400000000000000404b4c000000000040420f00"
    "0000000080841e000000000060e3160000000000801a060000000000a0860100"
    "0000000002000000000000003c00000000000000c0c62d0000000000a0bb0d00"
    "00000000e0c8100000000000c027090000000000e093040000000000a0860100"
    "00000000";

// Sorted; compared as a multiset of lines, since family order is not
// part of the OpenMetrics contract.
const char* const kGoldenOpenMetrics = R"om(# EOF
# HELP hvac_buffer_pool_dropped Leases freed (list full)
# HELP hvac_buffer_pool_fallback_allocs Leases that hit the allocator
# HELP hvac_buffer_pool_hits Leases served from a free list
# HELP hvac_buffer_pool_leases Buffer-pool acquires
# HELP hvac_buffer_pool_recycled Leases returned to a free list
# HELP hvac_cache_bytes_from_cache Bytes served from the node-local cache
# HELP hvac_cache_bytes_from_pfs Bytes read from the PFS
# HELP hvac_cache_dedup_waits First-reads coalesced onto an in-flight copy
# HELP hvac_cache_evictions Cache evictions
# HELP hvac_cache_hits Reads served from the node-local cache
# HELP hvac_cache_misses Reads that required a PFS fetch
# HELP hvac_cache_pfs_fallbacks Requests served directly from the PFS
# HELP hvac_handle_cache_capacity Handle-cache slots
# HELP hvac_handle_cache_deferred_closes Handles evicted while pinned
# HELP hvac_handle_cache_hits Open-handle cache hits
# HELP hvac_handle_cache_misses Open-handle cache misses
# HELP hvac_handle_cache_open Handle-cache resident entries
# HELP hvac_handle_cache_pinned Handle-cache pinned entries
# HELP hvac_meta_cache_expired Metadata entries aged out
# HELP hvac_meta_cache_hits Client metadata-cache hits
# HELP hvac_meta_cache_invalidated Metadata entries dropped on failure
# HELP hvac_meta_cache_misses Client metadata-cache misses
# HELP hvac_op_latency_seconds Per-op handler latency
# HELP hvac_open_fds Open remote file handles
# HELP hvac_prefetch_completed Prefetches answered cached
# HELP hvac_prefetch_dedup_inflight Paths with a fetch in flight
# HELP hvac_prefetch_deduped Mover fetches coalesced onto an in-flight one
# HELP hvac_prefetch_hit_after Samples found warmed by their prefetch
# HELP hvac_prefetch_issued Samples sent in prefetch batches
# HELP hvac_prefetch_late Samples the cursor beat the prefetch to
# HELP hvac_prefetch_planned Samples accepted into access plans
# HELP hvac_prefetch_shed Prefetches shed by mover backpressure
# HELP hvac_reactor_conns Connections accepted
# HELP hvac_reactor_requests Requests dispatched
# HELP hvac_reactor_shed Requests shed by backpressure
# HELP hvac_reactor_steal_backoffs Steal scans skipped by the throttle
# HELP hvac_reactor_steals Requests stolen from another reactor
# HELP hvac_readahead_consumed Reads served from a pending chunk
# HELP hvac_readahead_issued Chunks requested ahead of the application
# HELP hvac_readahead_wasted Pending chunks discarded unread
# HELP hvac_resilience_breaker_closes Circuit-breaker closes
# HELP hvac_resilience_breaker_opens Circuit-breaker opens
# HELP hvac_resilience_breaker_probes Half-open probes
# HELP hvac_resilience_breaker_shed Calls shed by an open breaker
# HELP hvac_resilience_deadline_misses Per-call deadline misses
# HELP hvac_resilience_drained_requests Requests completed during drain
# HELP hvac_resilience_drains Graceful drains
# HELP hvac_resilience_faults_injected HVAC_FAULT harness activations
# HELP hvac_resilience_mover_rejects Fetches rejected by the mover queue
# HELP hvac_resilience_retries Idempotent call retries
# HELP hvac_resilience_server_shed Requests shed by server backpressure
# HELP hvac_stall_reads Intercepted reads attributed
# HELP hvac_stall_seconds Intercepted-read wall time by stall bucket
# HELP hvac_trace_dropped Trace spans dropped (ring full)
# HELP hvac_trace_emitted Trace spans emitted
# HELP hvac_trace_occupancy Trace ring occupancy
# HELP hvac_trace_ring_capacity Trace ring capacity
# HELP hvac_trace_rings Per-thread trace rings
# HELP hvac_write_back_bytes_written Bytes written back
# HELP hvac_write_back_dirty_bytes Unflushed write-back bytes
# HELP hvac_write_back_dirty_files Unflushed write-back files
# HELP hvac_write_back_flush_failures Flush failures
# HELP hvac_write_back_flush_inflight Flushes in flight
# HELP hvac_write_back_flush_lag_ms Age of the oldest unflushed file (ms)
# HELP hvac_write_back_flush_queue_depth Flush queue depth
# HELP hvac_write_back_flush_retries Flush retries
# HELP hvac_write_back_flushed_files Files flushed to the PFS
# HELP hvac_write_back_fsyncs Durability barriers honored
# HELP hvac_write_back_journal_bytes Journal depth in bytes
# HELP hvac_write_back_journal_records Journal depth in records
# HELP hvac_write_back_write_through_bytes Bytes written through to the PFS
# HELP hvac_write_back_write_through_sheds Handles shed to write-through
# HELP hvac_write_back_writes kWrite ops acked
# HELP hvac_zerocopy_fallback_sends Extents staged through the pool
# HELP hvac_zerocopy_sendfile_bytes Bytes sent via sendfile
# HELP hvac_zerocopy_sendfile_sends sendfile response sends
# HELP hvac_zerocopy_short_resumes Partial kernel sends resumed in place
# HELP hvac_zerocopy_splice_bytes Bytes sent via splice
# HELP hvac_zerocopy_splice_sends splice response sends
# TYPE hvac_buffer_pool_dropped counter
# TYPE hvac_buffer_pool_fallback_allocs counter
# TYPE hvac_buffer_pool_hits counter
# TYPE hvac_buffer_pool_leases counter
# TYPE hvac_buffer_pool_recycled counter
# TYPE hvac_cache_bytes_from_cache counter
# TYPE hvac_cache_bytes_from_pfs counter
# TYPE hvac_cache_dedup_waits counter
# TYPE hvac_cache_evictions counter
# TYPE hvac_cache_hits counter
# TYPE hvac_cache_misses counter
# TYPE hvac_cache_pfs_fallbacks counter
# TYPE hvac_handle_cache_capacity gauge
# TYPE hvac_handle_cache_deferred_closes counter
# TYPE hvac_handle_cache_hits counter
# TYPE hvac_handle_cache_misses counter
# TYPE hvac_handle_cache_open gauge
# TYPE hvac_handle_cache_pinned gauge
# TYPE hvac_meta_cache_expired counter
# TYPE hvac_meta_cache_hits counter
# TYPE hvac_meta_cache_invalidated counter
# TYPE hvac_meta_cache_misses counter
# TYPE hvac_op_latency_seconds histogram
# TYPE hvac_open_fds gauge
# TYPE hvac_prefetch_completed counter
# TYPE hvac_prefetch_dedup_inflight gauge
# TYPE hvac_prefetch_deduped counter
# TYPE hvac_prefetch_hit_after counter
# TYPE hvac_prefetch_issued counter
# TYPE hvac_prefetch_late counter
# TYPE hvac_prefetch_planned counter
# TYPE hvac_prefetch_shed counter
# TYPE hvac_reactor_conns counter
# TYPE hvac_reactor_requests counter
# TYPE hvac_reactor_shed counter
# TYPE hvac_reactor_steal_backoffs counter
# TYPE hvac_reactor_steals counter
# TYPE hvac_readahead_consumed counter
# TYPE hvac_readahead_issued counter
# TYPE hvac_readahead_wasted counter
# TYPE hvac_resilience_breaker_closes counter
# TYPE hvac_resilience_breaker_opens counter
# TYPE hvac_resilience_breaker_probes counter
# TYPE hvac_resilience_breaker_shed counter
# TYPE hvac_resilience_deadline_misses counter
# TYPE hvac_resilience_drained_requests counter
# TYPE hvac_resilience_drains counter
# TYPE hvac_resilience_faults_injected counter
# TYPE hvac_resilience_mover_rejects counter
# TYPE hvac_resilience_retries counter
# TYPE hvac_resilience_server_shed counter
# TYPE hvac_stall_reads counter
# TYPE hvac_stall_seconds counter
# TYPE hvac_trace_dropped counter
# TYPE hvac_trace_emitted counter
# TYPE hvac_trace_occupancy gauge
# TYPE hvac_trace_ring_capacity gauge
# TYPE hvac_trace_rings gauge
# TYPE hvac_write_back_bytes_written counter
# TYPE hvac_write_back_dirty_bytes gauge
# TYPE hvac_write_back_dirty_files gauge
# TYPE hvac_write_back_flush_failures counter
# TYPE hvac_write_back_flush_inflight gauge
# TYPE hvac_write_back_flush_lag_ms gauge
# TYPE hvac_write_back_flush_queue_depth gauge
# TYPE hvac_write_back_flush_retries counter
# TYPE hvac_write_back_flushed_files counter
# TYPE hvac_write_back_fsyncs counter
# TYPE hvac_write_back_journal_bytes gauge
# TYPE hvac_write_back_journal_records gauge
# TYPE hvac_write_back_write_through_bytes counter
# TYPE hvac_write_back_write_through_sheds counter
# TYPE hvac_write_back_writes counter
# TYPE hvac_zerocopy_fallback_sends counter
# TYPE hvac_zerocopy_sendfile_bytes counter
# TYPE hvac_zerocopy_sendfile_sends counter
# TYPE hvac_zerocopy_short_resumes counter
# TYPE hvac_zerocopy_splice_bytes counter
# TYPE hvac_zerocopy_splice_sends counter
hvac_buffer_pool_dropped_total 3005
hvac_buffer_pool_fallback_allocs_total 3003
hvac_buffer_pool_hits_total 3002
hvac_buffer_pool_leases_total 3001
hvac_buffer_pool_recycled_total 3004
hvac_cache_bytes_from_cache_total 1005
hvac_cache_bytes_from_pfs_total 1006
hvac_cache_dedup_waits_total 1003
hvac_cache_evictions_total 1004
hvac_cache_hits_total 1001
hvac_cache_misses_total 1002
hvac_cache_pfs_fallbacks_total 1007
hvac_handle_cache_capacity 2006
hvac_handle_cache_deferred_closes_total 2005
hvac_handle_cache_hits_total 2001
hvac_handle_cache_misses_total 2002
hvac_handle_cache_open 2003
hvac_handle_cache_pinned 2004
hvac_meta_cache_expired_total 7003
hvac_meta_cache_hits_total 7001
hvac_meta_cache_invalidated_total 7004
hvac_meta_cache_misses_total 7002
hvac_op_latency_seconds_bucket{op="open",le="+Inf"} 2
hvac_op_latency_seconds_bucket{op="open",le="0.000131072"} 2
hvac_op_latency_seconds_bucket{op="open",le="0.000262144"} 2
hvac_op_latency_seconds_bucket{op="open",le="0.000524288"} 2
hvac_op_latency_seconds_bucket{op="open",le="0.001048576"} 2
hvac_op_latency_seconds_bucket{op="open",le="0.002097152"} 2
hvac_op_latency_seconds_bucket{op="open",le="0.004194304"} 2
hvac_op_latency_seconds_bucket{op="open",le="0.008388608"} 2
hvac_op_latency_seconds_bucket{op="open",le="0.016777216"} 2
hvac_op_latency_seconds_bucket{op="open",le="0.033554432"} 2
hvac_op_latency_seconds_bucket{op="open",le="0.067108864"} 2
hvac_op_latency_seconds_bucket{op="open",le="0.134217728"} 2
hvac_op_latency_seconds_bucket{op="open",le="0.268435456"} 2
hvac_op_latency_seconds_bucket{op="open",le="0.536870912"} 2
hvac_op_latency_seconds_bucket{op="open",le="1.024e-06"} 0
hvac_op_latency_seconds_bucket{op="open",le="1.07374182"} 2
hvac_op_latency_seconds_bucket{op="open",le="1.28e-07"} 0
hvac_op_latency_seconds_bucket{op="open",le="1.6384e-05"} 2
hvac_op_latency_seconds_bucket{op="open",le="1.6e-08"} 0
hvac_op_latency_seconds_bucket{op="open",le="137.438953"} 2
hvac_op_latency_seconds_bucket{op="open",le="17.1798692"} 2
hvac_op_latency_seconds_bucket{op="open",le="2.048e-06"} 0
hvac_op_latency_seconds_bucket{op="open",le="2.14748365"} 2
hvac_op_latency_seconds_bucket{op="open",le="2.56e-07"} 0
hvac_op_latency_seconds_bucket{op="open",le="274.877907"} 2
hvac_op_latency_seconds_bucket{op="open",le="2e-09"} 0
hvac_op_latency_seconds_bucket{op="open",le="3.2768e-05"} 2
hvac_op_latency_seconds_bucket{op="open",le="3.2e-08"} 0
hvac_op_latency_seconds_bucket{op="open",le="34.3597384"} 2
hvac_op_latency_seconds_bucket{op="open",le="4.096e-06"} 2
hvac_op_latency_seconds_bucket{op="open",le="4.2949673"} 2
hvac_op_latency_seconds_bucket{op="open",le="4e-09"} 0
hvac_op_latency_seconds_bucket{op="open",le="5.12e-07"} 0
hvac_op_latency_seconds_bucket{op="open",le="549.755814"} 2
hvac_op_latency_seconds_bucket{op="open",le="6.4e-08"} 0
hvac_op_latency_seconds_bucket{op="open",le="6.5536e-05"} 2
hvac_op_latency_seconds_bucket{op="open",le="68.7194767"} 2
hvac_op_latency_seconds_bucket{op="open",le="8.192e-06"} 2
hvac_op_latency_seconds_bucket{op="open",le="8.58993459"} 2
hvac_op_latency_seconds_bucket{op="open",le="8e-09"} 0
hvac_op_latency_seconds_bucket{op="read",le="+Inf"} 5
hvac_op_latency_seconds_bucket{op="read",le="0.000131072"} 5
hvac_op_latency_seconds_bucket{op="read",le="0.000262144"} 5
hvac_op_latency_seconds_bucket{op="read",le="0.000524288"} 5
hvac_op_latency_seconds_bucket{op="read",le="0.001048576"} 5
hvac_op_latency_seconds_bucket{op="read",le="0.002097152"} 5
hvac_op_latency_seconds_bucket{op="read",le="0.004194304"} 5
hvac_op_latency_seconds_bucket{op="read",le="0.008388608"} 5
hvac_op_latency_seconds_bucket{op="read",le="0.016777216"} 5
hvac_op_latency_seconds_bucket{op="read",le="0.033554432"} 5
hvac_op_latency_seconds_bucket{op="read",le="0.067108864"} 5
hvac_op_latency_seconds_bucket{op="read",le="0.134217728"} 5
hvac_op_latency_seconds_bucket{op="read",le="0.268435456"} 5
hvac_op_latency_seconds_bucket{op="read",le="0.536870912"} 5
hvac_op_latency_seconds_bucket{op="read",le="1.024e-06"} 0
hvac_op_latency_seconds_bucket{op="read",le="1.07374182"} 5
hvac_op_latency_seconds_bucket{op="read",le="1.28e-07"} 0
hvac_op_latency_seconds_bucket{op="read",le="1.6384e-05"} 5
hvac_op_latency_seconds_bucket{op="read",le="1.6e-08"} 0
hvac_op_latency_seconds_bucket{op="read",le="137.438953"} 5
hvac_op_latency_seconds_bucket{op="read",le="17.1798692"} 5
hvac_op_latency_seconds_bucket{op="read",le="2.048e-06"} 3
hvac_op_latency_seconds_bucket{op="read",le="2.14748365"} 5
hvac_op_latency_seconds_bucket{op="read",le="2.56e-07"} 0
hvac_op_latency_seconds_bucket{op="read",le="274.877907"} 5
hvac_op_latency_seconds_bucket{op="read",le="2e-09"} 0
hvac_op_latency_seconds_bucket{op="read",le="3.2768e-05"} 5
hvac_op_latency_seconds_bucket{op="read",le="3.2e-08"} 0
hvac_op_latency_seconds_bucket{op="read",le="34.3597384"} 5
hvac_op_latency_seconds_bucket{op="read",le="4.096e-06"} 3
hvac_op_latency_seconds_bucket{op="read",le="4.2949673"} 5
hvac_op_latency_seconds_bucket{op="read",le="4e-09"} 0
hvac_op_latency_seconds_bucket{op="read",le="5.12e-07"} 0
hvac_op_latency_seconds_bucket{op="read",le="549.755814"} 5
hvac_op_latency_seconds_bucket{op="read",le="6.4e-08"} 0
hvac_op_latency_seconds_bucket{op="read",le="6.5536e-05"} 5
hvac_op_latency_seconds_bucket{op="read",le="68.7194767"} 5
hvac_op_latency_seconds_bucket{op="read",le="8.192e-06"} 3
hvac_op_latency_seconds_bucket{op="read",le="8.58993459"} 5
hvac_op_latency_seconds_bucket{op="read",le="8e-09"} 0
hvac_op_latency_seconds_count{op="open"} 2
hvac_op_latency_seconds_count{op="read"} 5
hvac_op_latency_seconds_sum{op="open"} 4e-06
hvac_op_latency_seconds_sum{op="read"} 9e-06
hvac_open_fds 1008
hvac_prefetch_completed_total 11003
hvac_prefetch_dedup_inflight 11008
hvac_prefetch_deduped_total 11007
hvac_prefetch_hit_after_total 11006
hvac_prefetch_issued_total 11002
hvac_prefetch_late_total 11005
hvac_prefetch_planned_total 11001
hvac_prefetch_shed_total 11004
hvac_reactor_conns_total{reactor="0"} 9001
hvac_reactor_conns_total{reactor="1"} 9011
hvac_reactor_requests_total{reactor="0"} 9002
hvac_reactor_requests_total{reactor="1"} 9012
hvac_reactor_shed_total{reactor="0"} 9004
hvac_reactor_shed_total{reactor="1"} 9014
hvac_reactor_steal_backoffs_total{reactor="0"} 9005
hvac_reactor_steal_backoffs_total{reactor="1"} 9015
hvac_reactor_steals_total{reactor="0"} 9003
hvac_reactor_steals_total{reactor="1"} 9013
hvac_readahead_consumed_total 4002
hvac_readahead_issued_total 4001
hvac_readahead_wasted_total 4003
hvac_resilience_breaker_closes_total 5002
hvac_resilience_breaker_opens_total 5001
hvac_resilience_breaker_probes_total 5003
hvac_resilience_breaker_shed_total 5004
hvac_resilience_deadline_misses_total 5006
hvac_resilience_drained_requests_total 5010
hvac_resilience_drains_total 5009
hvac_resilience_faults_injected_total 5011
hvac_resilience_mover_rejects_total 5008
hvac_resilience_retries_total 5005
hvac_resilience_server_shed_total 5007
hvac_stall_reads_total 160
hvac_stall_seconds_total{bucket="backpressure"} 0.0007
hvac_stall_seconds_total{bucket="local_hit"} 0.0019
hvac_stall_seconds_total{bucket="pfs_wait"} 0.0021
hvac_stall_seconds_total{bucket="remote_rpc"} 0.0031
hvac_stall_seconds_total{bucket="retry"} 0.0002
hvac_trace_dropped_total 8002
hvac_trace_emitted_total 8001
hvac_trace_occupancy 8005
hvac_trace_ring_capacity 8004
hvac_trace_rings 8003
hvac_write_back_bytes_written_total 10002
hvac_write_back_dirty_bytes 10004
hvac_write_back_dirty_files 10005
hvac_write_back_flush_failures_total 10010
hvac_write_back_flush_inflight 10012
hvac_write_back_flush_lag_ms 10013
hvac_write_back_flush_queue_depth 10011
hvac_write_back_flush_retries_total 10009
hvac_write_back_flushed_files_total 10008
hvac_write_back_fsyncs_total 10003
hvac_write_back_journal_bytes 10007
hvac_write_back_journal_records 10006
hvac_write_back_write_through_bytes_total 10015
hvac_write_back_write_through_sheds_total 10014
hvac_write_back_writes_total 10001
hvac_zerocopy_fallback_sends_total 6003
hvac_zerocopy_sendfile_bytes_total 6004
hvac_zerocopy_sendfile_sends_total 6001
hvac_zerocopy_short_resumes_total 6006
hvac_zerocopy_splice_bytes_total 6005
hvac_zerocopy_splice_sends_total 6002
)om";

TEST(MetricsFrameGolden, EncodeBytes) {
  EXPECT_EQ(to_hex(golden_frame().encode()), kGoldenFrameHex);
}

TEST(MetricsFrameGolden, DecodeReencodesSameBytes) {
  const auto decoded = MetricsFrame::decode(golden_frame().encode());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(to_hex(decoded->encode()), kGoldenFrameHex);
}

TEST(MetricsFrameGolden, Json) {
  EXPECT_EQ(golden_frame().to_json(), kGoldenJson);
}

TEST(MetricsFrameGolden, OpenMetricsLineMultiset) {
  const std::string body = server::render_openmetrics(golden_frame());
  EXPECT_EQ(sorted_lines(body), sorted_lines(kGoldenOpenMetrics));
  size_t families = 0;
  for (const std::string& line : sorted_lines(body)) {
    if (line.rfind("# TYPE ", 0) == 0) ++families;
  }
  EXPECT_EQ(families, 79u);
}

TEST(MetricsFrameGolden, DeltaBytes) {
  const MetricsFrame d = core::frame_delta(golden_frame(), golden_prev());
  EXPECT_EQ(to_hex(d.encode()), kGoldenDeltaHex);
}

// ---- schema property: every field line behaves as its kind says ----------
//
// Walks the field tables, so a field line added later is covered here
// with no new test code.

// The field's word in `f`: row 0 for the reactor rows, created if absent.
template <typename S>
uint64_t& word(const core::SectionLine<S>& line,
               const core::FieldLine<S>& field, MetricsFrame& f) {
  return line.of(f).*field.member;
}

template <typename R>
uint64_t& word(const core::RowsLine<R>& line, const core::FieldLine<R>& field,
               MetricsFrame& f) {
  auto& rows = line.of(f);
  if (rows.empty()) rows.resize(1);
  return rows[0].*field.member;
}

template <typename S>
std::string row_labels(const core::SectionLine<S>&) {
  return "";
}

template <typename R>
std::string row_labels(const core::RowsLine<R>& line) {
  return std::string("{") + line.label + "=\"0\"}";
}

TEST(MetricsSchema, EveryFieldLineBehavesAsItsKindSays) {
  constexpr uint64_t kValue = 987654321;
  size_t checked = 0;
  std::vector<std::string> families;
  core::for_each_section([&](const auto& line) {
    for (const auto& field : line.fields) {
      ++checked;
      SCOPED_TRACE(std::string(line.json ? line.json : "frame") + "." +
                   (field.json ? field.json : "(no json key)"));
      auto frame_with = [&](uint64_t v) {
        MetricsFrame f;
        word(line, field, f) = v;
        return f;
      };

      auto decoded = MetricsFrame::decode(frame_with(kValue).encode());
      ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
      EXPECT_EQ(word(line, field, *decoded), kValue);

      MetricsFrame up = frame_with(7);
      up.merge(frame_with(5));
      MetricsFrame down = frame_with(5);
      down.merge(frame_with(7));
      const uint64_t merged = field.kind == core::kMax ? 7 : 12;
      EXPECT_EQ(word(line, field, up), merged);
      EXPECT_EQ(word(line, field, down), merged);

      const bool counter = field.kind == core::kCounter;
      MetricsFrame rise = core::frame_delta(frame_with(7), frame_with(5));
      MetricsFrame fall = core::frame_delta(frame_with(5), frame_with(7));
      EXPECT_EQ(word(line, field, rise), counter ? 2u : 7u);
      EXPECT_EQ(word(line, field, fall), counter ? 0u : 5u);

      const MetricsFrame f = frame_with(kValue);
      if (field.json != nullptr) {
        const std::string member =
            "\"" + std::string(field.json) + "\":" + std::to_string(kValue);
        EXPECT_NE(f.to_json().find(member), std::string::npos) << member;
      }
      if (field.family != nullptr) {
        families.push_back(field.family);
        const std::string body = server::render_openmetrics(f);
        const std::string type = std::string("# TYPE ") + field.family +
                                 (counter ? " counter\n" : " gauge\n");
        const std::string sample = std::string(field.family) +
                                   (counter ? "_total" : "") +
                                   row_labels(line) + " " +
                                   std::to_string(kValue) + "\n";
        EXPECT_NE(body.find(type), std::string::npos) << type;
        EXPECT_NE(body.find(sample), std::string::npos) << sample;
      }
    }
  });
  EXPECT_GT(checked, 0u);
  std::sort(families.begin(), families.end());
  EXPECT_EQ(std::adjacent_find(families.begin(), families.end()),
            families.end())
      << "two field lines export the same family";
}

// ---- end to end: live instances -> aggregated frame -----------------------

TEST(MetricsFrameAggregation, NodeRuntimeAggregatesInstances) {
  namespace fs = std::filesystem;
  const std::string suffix = std::to_string(::getpid());
  const std::string pfs_root = ::testing::TempDir() + "hvac_mf_pfs_" + suffix;
  const std::string cache_root =
      ::testing::TempDir() + "hvac_mf_cache_" + suffix;
  fs::remove_all(pfs_root);
  fs::remove_all(cache_root);
  const auto spec = workload::synthetic_small(12, 4096, 0.3);
  auto tree = workload::generate_tree(pfs_root, spec);
  ASSERT_TRUE(tree.ok());

  server::NodeRuntimeOptions o;
  o.pfs_root = pfs_root;
  o.cache_root = cache_root;
  o.instances = 2;
  server::NodeRuntime node(o);
  ASSERT_TRUE(node.start().ok());

  client::HvacClientOptions copts;
  copts.dataset_dir = pfs_root;
  copts.server_endpoints = node.endpoints();
  // Keep reads synchronous so no read-ahead RPC is still in flight
  // when the frames are sampled below, and disable the meta cache so
  // round two really re-opens (the exact per-op counts below depend on
  // every round hitting the server).
  copts.readahead_chunks = 0;
  copts.meta_ttl_ms = 0;
  client::HvacClient client(copts);

  std::vector<uint8_t> buf(8192);
  for (const auto& rel : tree->relative_paths) {
    for (int round = 0; round < 2; ++round) {
      auto vfd = client.open(pfs_root + "/" + rel);
      ASSERT_TRUE(vfd.ok());
      ASSERT_TRUE(client.read(*vfd, buf.data(), buf.size()).ok());
      ASSERT_TRUE(client.close(*vfd).ok());
    }
  }

  // The open/read path serves whole files; the pinned-handle cache sits
  // under segment reads. Hit the same segment twice on one instance so
  // its counters move deterministically (first pin misses, second hits).
  {
    rpc::RpcClient direct(rpc::Endpoint{node.endpoints()[0]},
                          rpc::RpcClientOptions{2000, 10000});
    for (int round = 0; round < 2; ++round) {
      WireWriter w;
      w.put_u8(proto::kSourceSegment);
      w.put_string(tree->relative_paths[0]);
      w.put_u64(0);     // segment index
      w.put_u64(1024);  // segment bytes
      w.put_u32(1);
      w.put_u64(0);     // offset in segment
      w.put_u32(512);
      ASSERT_TRUE(direct.call(proto::kReadScatter, w.bytes()).ok());
    }
  }

  const MetricsFrame total = node.aggregated_frame();
  EXPECT_EQ(total.version, core::kFrameVersion);
  // Round one misses, round two hits — across both instances — plus one
  // miss/hit pair from the segment cached above.
  EXPECT_EQ(total.cache.misses, tree->relative_paths.size() + 1);
  EXPECT_EQ(total.cache.hits, tree->relative_paths.size() + 1);
  // The segment reads went through the pinned-handle cache.
  EXPECT_GE(total.handle_cache.misses, 1u);
  EXPECT_GE(total.handle_cache.hits, 1u);
  // Every request shows up in the per-op histograms: each open is one
  // kOpen whose prefix answered the client's read, and the two segment
  // reads are kReadScatter.
  ASSERT_EQ(total.op_latency.count(proto::kReadScatter), 1u);
  EXPECT_EQ(total.op_latency.at(proto::kReadScatter).count, 2u);
  ASSERT_EQ(total.op_latency.count(proto::kOpen), 1u);
  EXPECT_EQ(total.op_latency.at(proto::kOpen).count,
            2 * tree->relative_paths.size());
  EXPECT_GT(total.op_latency.at(proto::kOpen).percentile_ns(99), 0.0);

  // Process-global sections must not double-count across the two
  // co-resident instances: the aggregate equals a single instance's
  // view, not the sum of both.
  const MetricsFrame one = node.instance(0).metrics_frame();
  EXPECT_EQ(total.buffer_pool.leases, one.buffer_pool.leases);
  EXPECT_EQ(total.readahead.issued, one.readahead.issued);

  // The wire round trip preserves the aggregate.
  const auto decoded = MetricsFrame::decode(total.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->cache.hits, total.cache.hits);
  EXPECT_EQ(decoded->op_latency.at(proto::kReadScatter).count,
            total.op_latency.at(proto::kReadScatter).count);

  node.stop();
  fs::remove_all(pfs_root);
  fs::remove_all(cache_root);
}

}  // namespace
}  // namespace hvac
