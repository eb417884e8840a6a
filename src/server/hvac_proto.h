// Application-level RPC schema between HVAC clients and servers.
// Shared by src/server and src/client; versioned by the frame magic.
#pragma once

#include <cstdint>

namespace hvac::proto {

enum Opcode : uint16_t {
  kPing = 1,      // ()                 -> ()
  kOpen = 2,      // (path [, mode u8]) -> (remote_fd, size, served_from
                  //                       [, scatter frame])
                  // mode is an OpenMode (below). A request without it
                  // — an old client, the RPC micro-benches, the
                  // latency ladder's loopback rung — is kOpenFd and
                  // gets the three-field reply. A kOpenPrefix request
                  // gets remote_fd 0 and a one-extent scatter frame
                  // (rpc/wire.h) holding the file's first
                  // min(size, kOpenPrefixBytes) bytes; its served_from
                  // also tells a found copy from a fetched one
                  // (ServedFrom below).
  kRead = 3,      // (remote_fd, offset, count) -> (blob)
                  // Single-extent fd read. No HVAC client sends it any
                  // more (every client read is a kReadScatter); kept
                  // only for the RPC micro-benches and the latency
                  // ladder's loopback-RPC rung, which time it.
  kClose = 4,     // (remote_fd)        -> ()
  kStat = 5,      // (path)             -> (size)
  // 6 retired (single-path prefetch; use kPrefetchBatch). Never reuse.
  kMetrics = 7,   // ()                 -> (hits, misses, dedup_waits,
                  //                        evictions, bytes_cache,
                  //                        bytes_pfs, fallbacks, open_fds)
  // 8 retired (segment read; use kReadScatter mode 2). Never reuse.
  kReadScatter = 9,  // (mode u8, source, n u32, (offset u64, len u32) * n)
                     // source by mode (ReadSourceMode below):
                     //   0 fd:      remote_fd u64
                     //   1 path:    path (packed samples resolve here)
                     //   2 segment: path, seg_index u64,
                     //              segment_bytes u64 — extent offsets
                     //              are relative to the segment start
                     // -> scatter frame (rpc/wire.h decode_scatter):
                     // one reply, N extents, each kernel-copied on the
                     // hit path. Extents crossing EOF come back short.
                     // The one read every HVAC client sends.
  kPrefetchBatch = 10,  // (n u32, path * n) -> (n u32, status u8 * n)
                        // One round trip warms a whole epoch's worth
                        // of files. Every path is submitted to the
                        // mover up front (the fetches overlap) and
                        // each gets a PrefetchStatus:
                        // cached, miss (fetch failed / capacity
                        // overflow), or shed (mover queue full — the
                        // client should re-pace and retry, not blind-
                        // retry the whole batch). Old clients read
                        // shed (2) as not-cached, which is safe.
  kTraceDump = 11,  // () -> span dump (core/trace_wire.h encode_spans):
                    // drains the process-wide trace rings. Consuming:
                    // two hvacctl instances polling one server split
                    // the spans between them.
  kPackedIndex = 12,  // () -> (present u8 [, index blob])
                      // The dataset's packed-container index
                      // (storage/packed_format.h), verbatim. A client
                      // that fetched it once resolves packed sample
                      // paths locally — open/stat cost zero round
                      // trips, and reads address samples by path via
                      // kReadScatter (the server translates to
                      // container offsets).
  kWriteOpen = 13,  // (path, trunc u8) -> (remote_fd u64, mode u8)
                    // Opens a checkpoint file for writing through the
                    // write-back store. `mode` is a WriteMode: the
                    // server may answer kWriteThrough when local NVMe
                    // is already over budget.
  kWrite = 14,      // (remote_fd u64, offset u64, blob) -> (written u32)
                    // Journal append + local-store pwrite. Ack means
                    // the bytes are in the write-back tier (durable
                    // only after kFsync / kWriteClose).
  kFsync = 15,      // (remote_fd u64, level u8) -> ()
                    // Durability barrier. level is a WriteDurability:
                    // kLocal waits for the journal commit fdatasync,
                    // kPfs additionally waits until the flusher has
                    // landed the file on the PFS.
  kWriteClose = 16,  // (remote_fd u64, level u8) -> ()
                     // fsync(level) semantics, then drops the handle.
  kTimeSeries = 17,  // () -> time-series frame (core/timeseries.h):
                     // the collector's ring of per-interval metric
                     // deltas, oldest first. Empty (0 samples,
                     // interval_ms 0) when HVAC_TS_INTERVAL_MS=0
                     // disabled the collector.
};

// kOpen request modes.
enum OpenMode : uint8_t {
  kOpenFd = 0,      // registers a remote fd: reads by kReadScatter mode
                    // 0, released by kClose
  kOpenPrefix = 1,  // no server state: the reply carries the first
                    // extent, reads past it go by path (kReadScatter
                    // mode 1), and close is local to the client
};

// Bytes of a file a kOpenPrefix reply carries. Chosen from the sample
// sizes, not tuned per run: it covers all of a log-normal 24 KiB
// (sigma 0.6) loose-sample dataset and about 85% of ImageNet-21k's
// 163 KiB-mean JPEGs, so a typical sample costs one round trip, while
// a multi-MiB file pays at most this much for bytes it may not read
// (DESIGN.md, read hot path).
constexpr uint32_t kOpenPrefixBytes = 256u << 10;

// kReadScatter source modes.
enum ReadSourceMode : uint8_t {
  kSourceFd = 0,       // a remote fd from a kOpenFd kOpen
  kSourcePath = 1,     // a logical path: fds with no remote fd (a
                       // kOpenPrefix kOpen, the meta cache, packed
                       // samples)
  kSourceSegment = 2,  // one segment of a file (paper §III-E
                       // extension): cached and homed independently
                       // under segment_key(path, seg_index)
};

// kWriteOpen response mode / per-handle write routing.
enum WriteMode : uint8_t {
  kWriteBack = 0,     // journal + local NVMe, async PFS flush
  kWriteThrough = 1,  // local NVMe full: bytes go straight to the PFS
};

// kFsync / kWriteClose barrier levels (HVAC_WRITE_DURABILITY).
enum WriteDurability : uint8_t {
  kDurabilityLocal = 0,  // journal commit record is on local media
  kDurabilityPfs = 1,    // file is fully flushed to the PFS
};

// Per-path answer in the kPrefetchBatch response. kPrefetchShed means
// the mover queue was full when the path was submitted: the file was
// NOT fetched and a later, slower retry will likely succeed — the
// client-side scheduler backs off instead of hammering the queue.
enum PrefetchStatus : uint8_t {
  kPrefetchMiss = 0,    // fetch failed or fell back to the PFS
  kPrefetchCached = 1,  // file is resident in the node-local cache
  kPrefetchShed = 2,    // mover backpressure: re-pace and retry
};

// served_from values in the kOpen response.
enum ServedFrom : uint8_t {
  kFromCache = 0,
  kFromPfsFallback = 1,  // capacity overflow: server reads through PFS
  // kOpenPrefix replies only: cached, but by the fetch this open waited
  // for — the copy was not there when the open arrived. (A kOpenFd
  // reply says kFromCache either way, as it always has.) The client's
  // prefetch accounting tells a sample warmed in time from a late one
  // by this.
  kFromCacheFetched = 2,
};

// Requests larger than this are split by the client (the "bulk
// transfer" chunk size; Mercury would do an RDMA pull of similar
// granularity).
constexpr uint32_t kMaxReadChunk = 4u << 20;

// Bounds on one kReadScatter request: at most kMaxScatterExtents
// extents of at most kMaxReadChunk each, and at most kMaxScatterBytes
// total so the framed response (table + data) stays well under the
// 64 MiB frame bound.
constexpr uint32_t kMaxScatterExtents = 16;
constexpr uint32_t kMaxScatterBytes = 32u << 20;

// Bound on one kPrefetchBatch request.
constexpr uint32_t kMaxPrefetchBatch = 256;

}  // namespace hvac::proto
