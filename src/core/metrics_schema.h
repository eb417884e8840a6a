// The metrics schema: every flat counter of a MetricsFrame described
// once, as a field line in its section's table. Every view of the frame
// is generated from these tables — the wire codec and merge
// (metrics_frame.cc), frame_delta (timeseries.cc), the OpenMetrics
// scrape (server/prom_exporter.cc) and the `hvacctl metrics` lines — so
// adding a counter is one struct member, one field line here and the
// code that increments it.
//
// A table's order is its wire order: fields are appended, never
// reordered or removed (decoders read the words they know and ignore
// the tail). What does not fit a flat word table stays hand-written in
// each view: the op-latency and paced-delay histograms, and the stall
// rows (JSON shows seconds, OpenMetrics sums them into buckets, and
// they merge keyed by epoch).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <tuple>
#include <type_traits>

#include "core/metrics_frame.h"

namespace hvac::core {

// How a word combines across frames (merge) and over time (delta).
enum FieldKind : uint8_t {
  kCounter,  // merge sums; delta is cur - prev, clamped at zero
  kGauge,    // merge sums; delta carries the current value
  kMax,      // merge keeps the larger; delta carries the current value
};

template <typename S>
struct FieldLine {
  uint64_t S::*member;
  const char* json;    // JSON key; nullptr keeps the word out of JSON
  const char* family;  // OpenMetrics family; nullptr: not exported
  FieldKind kind;
  const char* help;    // OpenMetrics HELP text
};

// One flat section: the words of the struct S held in the frame.
template <typename S>
struct SectionLine {
  uint16_t id;       // MetricsSection id; 0 for the v1 prefix words
  const char* json;  // JSON object key; nullptr puts the fields at the
                     // top level of the frame object
  S MetricsFrame::*at;  // unused when S is the frame itself
  std::span<const FieldLine<S>> fields;
  // A derived JSON member the table cannot hold (the cache hit rate,
  // the paced-delay summary), written as `,"key":value` after the
  // first `extra_after` fields.
  void (*json_extra)(std::ostream&, const S&) = nullptr;
  size_t extra_after = 0;

  template <typename F>  // MetricsFrame, const or not
  auto& of(F& frame) const {
    if constexpr (std::is_same_v<S, MetricsFrame>) {
      return frame;
    } else {
      return frame.*at;
    }
  }
};

// The reactor rows: one row per reactor, all sharing one field table.
// Wire body [u16 rows][u16 words per row] then the rows; JSON an array
// of objects; OpenMetrics one family per field, a sample per row
// labelled {reactor="i"}.
template <typename R>
struct RowsLine {
  uint16_t id;
  const char* json;
  const char* label;
  std::span<const FieldLine<R>> fields;

  template <typename F>
  auto& of(F& frame) const {
    return frame.reactor.reactors;
  }
};

// ---- field tables ---------------------------------------------------------

inline constexpr FieldLine<MetricsSnapshot> kCacheFields[] = {
    {&MetricsSnapshot::hits, "hits", "hvac_cache_hits", kCounter,
     "Reads served from the node-local cache"},
    {&MetricsSnapshot::misses, "misses", "hvac_cache_misses", kCounter,
     "Reads that required a PFS fetch"},
    {&MetricsSnapshot::dedup_waits, "dedup_waits", "hvac_cache_dedup_waits",
     kCounter, "First-reads coalesced onto an in-flight copy"},
    {&MetricsSnapshot::evictions, "evictions", "hvac_cache_evictions",
     kCounter, "Cache evictions"},
    {&MetricsSnapshot::bytes_from_cache, "bytes_from_cache",
     "hvac_cache_bytes_from_cache", kCounter,
     "Bytes served from the node-local cache"},
    {&MetricsSnapshot::bytes_from_pfs, "bytes_from_pfs",
     "hvac_cache_bytes_from_pfs", kCounter, "Bytes read from the PFS"},
    {&MetricsSnapshot::pfs_fallbacks, "pfs_fallbacks",
     "hvac_cache_pfs_fallbacks", kCounter,
     "Requests served directly from the PFS"},
};

inline constexpr FieldLine<MetricsFrame> kFrameFields[] = {
    {&MetricsFrame::open_fds, "open_fds", "hvac_open_fds", kGauge,
     "Open remote file handles"},
};

inline constexpr FieldLine<HandleCacheStats> kHandleCacheFields[] = {
    {&HandleCacheStats::hits, "hits", "hvac_handle_cache_hits", kCounter,
     "Open-handle cache hits"},
    {&HandleCacheStats::misses, "misses", "hvac_handle_cache_misses",
     kCounter, "Open-handle cache misses"},
    {&HandleCacheStats::open, "open", "hvac_handle_cache_open", kGauge,
     "Handle-cache resident entries"},
    {&HandleCacheStats::pinned, "pinned", "hvac_handle_cache_pinned", kGauge,
     "Handle-cache pinned entries"},
    {&HandleCacheStats::deferred_closes, "deferred_closes",
     "hvac_handle_cache_deferred_closes", kCounter,
     "Handles evicted while pinned"},
    {&HandleCacheStats::capacity, "capacity", "hvac_handle_cache_capacity",
     kGauge, "Handle-cache slots"},
};

inline constexpr FieldLine<BufferPoolStats> kBufferPoolFields[] = {
    {&BufferPoolStats::leases, "leases", "hvac_buffer_pool_leases", kCounter,
     "Buffer-pool acquires"},
    {&BufferPoolStats::pool_hits, "pool_hits", "hvac_buffer_pool_hits",
     kCounter, "Leases served from a free list"},
    {&BufferPoolStats::fallback_allocs, "fallback_allocs",
     "hvac_buffer_pool_fallback_allocs", kCounter,
     "Leases that hit the allocator"},
    {&BufferPoolStats::recycled, "recycled", "hvac_buffer_pool_recycled",
     kCounter, "Leases returned to a free list"},
    {&BufferPoolStats::dropped, "dropped", "hvac_buffer_pool_dropped",
     kCounter, "Leases freed (list full)"},
};

inline constexpr FieldLine<ReadAheadStats> kReadAheadFields[] = {
    {&ReadAheadStats::issued, "issued", "hvac_readahead_issued", kCounter,
     "Chunks requested ahead of the application"},
    {&ReadAheadStats::consumed, "consumed", "hvac_readahead_consumed",
     kCounter, "Reads served from a pending chunk"},
    {&ReadAheadStats::wasted, "wasted", "hvac_readahead_wasted", kCounter,
     "Pending chunks discarded unread"},
};

inline constexpr FieldLine<ResilienceStats> kResilienceFields[] = {
    {&ResilienceStats::breaker_opens, "breaker_opens",
     "hvac_resilience_breaker_opens", kCounter, "Circuit-breaker opens"},
    {&ResilienceStats::breaker_closes, "breaker_closes",
     "hvac_resilience_breaker_closes", kCounter, "Circuit-breaker closes"},
    {&ResilienceStats::breaker_probes, "breaker_probes",
     "hvac_resilience_breaker_probes", kCounter, "Half-open probes"},
    {&ResilienceStats::breaker_shed, "breaker_shed",
     "hvac_resilience_breaker_shed", kCounter,
     "Calls shed by an open breaker"},
    {&ResilienceStats::retries, "retries", "hvac_resilience_retries",
     kCounter, "Idempotent call retries"},
    {&ResilienceStats::deadline_misses, "deadline_misses",
     "hvac_resilience_deadline_misses", kCounter, "Per-call deadline misses"},
    {&ResilienceStats::server_shed, "server_shed",
     "hvac_resilience_server_shed", kCounter,
     "Requests shed by server backpressure"},
    {&ResilienceStats::mover_rejects, "mover_rejects",
     "hvac_resilience_mover_rejects", kCounter,
     "Fetches rejected by the mover queue"},
    {&ResilienceStats::drains, "drains", "hvac_resilience_drains", kCounter,
     "Graceful drains"},
    {&ResilienceStats::drained_requests, "drained_requests",
     "hvac_resilience_drained_requests", kCounter,
     "Requests completed during drain"},
    {&ResilienceStats::faults_injected, "faults_injected",
     "hvac_resilience_faults_injected", kCounter,
     "HVAC_FAULT harness activations"},
};

inline constexpr FieldLine<ZeroCopyStats> kZeroCopyFields[] = {
    {&ZeroCopyStats::sendfile_sends, "sendfile_sends",
     "hvac_zerocopy_sendfile_sends", kCounter, "sendfile response sends"},
    {&ZeroCopyStats::splice_sends, "splice_sends",
     "hvac_zerocopy_splice_sends", kCounter, "splice response sends"},
    {&ZeroCopyStats::fallback_sends, "fallback_sends",
     "hvac_zerocopy_fallback_sends", kCounter,
     "Extents staged through the pool"},
    {&ZeroCopyStats::sendfile_bytes, "sendfile_bytes",
     "hvac_zerocopy_sendfile_bytes", kCounter, "Bytes sent via sendfile"},
    {&ZeroCopyStats::splice_bytes, "splice_bytes",
     "hvac_zerocopy_splice_bytes", kCounter, "Bytes sent via splice"},
    {&ZeroCopyStats::short_resumes, "short_resumes",
     "hvac_zerocopy_short_resumes", kCounter,
     "Partial kernel sends resumed in place"},
};

inline constexpr FieldLine<MetaCacheStats> kMetaCacheFields[] = {
    {&MetaCacheStats::hits, "hits", "hvac_meta_cache_hits", kCounter,
     "Client metadata-cache hits"},
    {&MetaCacheStats::misses, "misses", "hvac_meta_cache_misses", kCounter,
     "Client metadata-cache misses"},
    {&MetaCacheStats::expired, "expired", "hvac_meta_cache_expired",
     kCounter, "Metadata entries aged out"},
    {&MetaCacheStats::invalidated, "invalidated",
     "hvac_meta_cache_invalidated", kCounter,
     "Metadata entries dropped on failure"},
};

inline constexpr FieldLine<TraceStats> kTraceFields[] = {
    {&TraceStats::emitted, "emitted", "hvac_trace_emitted", kCounter,
     "Trace spans emitted"},
    {&TraceStats::dropped, "dropped", "hvac_trace_dropped", kCounter,
     "Trace spans dropped (ring full)"},
    {&TraceStats::rings, "rings", "hvac_trace_rings", kGauge,
     "Per-thread trace rings"},
    {&TraceStats::ring_capacity, "ring_capacity", "hvac_trace_ring_capacity",
     kGauge, "Trace ring capacity"},
    {&TraceStats::occupancy, "occupancy", "hvac_trace_occupancy", kGauge,
     "Trace ring occupancy"},
};

inline constexpr FieldLine<ReactorStats::PerReactor> kReactorFields[] = {
    {&ReactorStats::PerReactor::conns, "conns", "hvac_reactor_conns",
     kCounter, "Connections accepted"},
    {&ReactorStats::PerReactor::requests, "requests",
     "hvac_reactor_requests", kCounter, "Requests dispatched"},
    {&ReactorStats::PerReactor::steals, "steals", "hvac_reactor_steals",
     kCounter, "Requests stolen from another reactor"},
    {&ReactorStats::PerReactor::shed, "shed", "hvac_reactor_shed", kCounter,
     "Requests shed by backpressure"},
    {&ReactorStats::PerReactor::steal_backoffs, "steal_backoffs",
     "hvac_reactor_steal_backoffs", kCounter,
     "Steal scans skipped by the throttle"},
};

// The replay words describe the last restart, not a flow: gauges,
// carried whole by a delta, and not exported.
inline constexpr FieldLine<WriteBackStats> kWriteBackFields[] = {
    {&WriteBackStats::writes, "writes", "hvac_write_back_writes", kCounter,
     "kWrite ops acked"},
    {&WriteBackStats::bytes_written, "bytes_written",
     "hvac_write_back_bytes_written", kCounter, "Bytes written back"},
    {&WriteBackStats::fsyncs, "fsyncs", "hvac_write_back_fsyncs", kCounter,
     "Durability barriers honored"},
    {&WriteBackStats::dirty_bytes, "dirty_bytes",
     "hvac_write_back_dirty_bytes", kGauge, "Unflushed write-back bytes"},
    {&WriteBackStats::dirty_files, "dirty_files",
     "hvac_write_back_dirty_files", kGauge, "Unflushed write-back files"},
    {&WriteBackStats::journal_records, "journal_records",
     "hvac_write_back_journal_records", kGauge, "Journal depth in records"},
    {&WriteBackStats::journal_bytes, "journal_bytes",
     "hvac_write_back_journal_bytes", kGauge, "Journal depth in bytes"},
    {&WriteBackStats::flushed_files, "flushed_files",
     "hvac_write_back_flushed_files", kCounter, "Files flushed to the PFS"},
    {&WriteBackStats::flush_retries, "flush_retries",
     "hvac_write_back_flush_retries", kCounter, "Flush retries"},
    {&WriteBackStats::flush_failures, "flush_failures",
     "hvac_write_back_flush_failures", kCounter, "Flush failures"},
    {&WriteBackStats::flush_queue_depth, "flush_queue_depth",
     "hvac_write_back_flush_queue_depth", kGauge, "Flush queue depth"},
    {&WriteBackStats::flush_inflight, "flush_inflight",
     "hvac_write_back_flush_inflight", kGauge, "Flushes in flight"},
    {&WriteBackStats::flush_lag_ms, "flush_lag_ms",
     "hvac_write_back_flush_lag_ms", kMax,
     "Age of the oldest unflushed file (ms)"},
    {&WriteBackStats::write_through_sheds, "write_through_sheds",
     "hvac_write_back_write_through_sheds", kCounter,
     "Handles shed to write-through"},
    {&WriteBackStats::write_through_bytes, "write_through_bytes",
     "hvac_write_back_write_through_bytes", kCounter,
     "Bytes written through to the PFS"},
    {&WriteBackStats::replay_writes, "replay_writes", nullptr, kGauge,
     "Writes replayed from the journal at the last restart"},
    {&WriteBackStats::replay_bytes, "replay_bytes", nullptr, kGauge,
     "Bytes replayed from the journal at the last restart"},
    {&WriteBackStats::replay_truncated_bytes, "replay_truncated_bytes",
     nullptr, kGauge, "Torn or CRC-bad journal tail cut at the last restart"},
    {&WriteBackStats::replay_dirty_files, "replay_dirty_files", nullptr,
     kGauge, "Files re-queued to the flusher at the last restart"},
};

// The paced-delay histogram follows these nine words in the section.
inline constexpr FieldLine<PrefetchStats> kPrefetchFields[] = {
    {&PrefetchStats::planned, "planned", "hvac_prefetch_planned", kCounter,
     "Samples accepted into access plans"},
    {&PrefetchStats::issued, "issued", "hvac_prefetch_issued", kCounter,
     "Samples sent in prefetch batches"},
    {&PrefetchStats::completed, "completed", "hvac_prefetch_completed",
     kCounter, "Prefetches answered cached"},
    {&PrefetchStats::shed, "shed", "hvac_prefetch_shed", kCounter,
     "Prefetches shed by mover backpressure"},
    {&PrefetchStats::late, "late", "hvac_prefetch_late", kCounter,
     "Samples the cursor beat the prefetch to"},
    {&PrefetchStats::hit_after_prefetch, "hit_after_prefetch",
     "hvac_prefetch_hit_after", kCounter,
     "Samples found warmed by their prefetch"},
    {&PrefetchStats::deduped, "deduped", "hvac_prefetch_deduped", kCounter,
     "Mover fetches coalesced onto an in-flight one"},
    {&PrefetchStats::dedup_inflight, "dedup_inflight",
     "hvac_prefetch_dedup_inflight", kGauge, "Paths with a fetch in flight"},
    {&PrefetchStats::reserved, nullptr, nullptr, kGauge,
     "Room to grow without re-shaping the section"},
};

void json_hit_rate(std::ostream& o, const MetricsSnapshot& cache);
void json_paced_delay(std::ostream& o, const PrefetchStats& prefetch);

// ---- section lines, in wire and JSON order --------------------------------

inline constexpr std::tuple kSections{
    SectionLine<MetricsSnapshot>{0, "cache", &MetricsFrame::cache,
                                 kCacheFields, json_hit_rate, 2},
    SectionLine<MetricsFrame>{0, nullptr, nullptr, kFrameFields},
    SectionLine<HandleCacheStats>{kSectionHandleCache, "handle_cache",
                                  &MetricsFrame::handle_cache,
                                  kHandleCacheFields},
    SectionLine<BufferPoolStats>{kSectionBufferPool, "buffer_pool",
                                 &MetricsFrame::buffer_pool,
                                 kBufferPoolFields},
    SectionLine<ReadAheadStats>{kSectionReadAhead, "read_ahead",
                                &MetricsFrame::readahead, kReadAheadFields},
    SectionLine<ResilienceStats>{kSectionResilience, "resilience",
                                 &MetricsFrame::resilience,
                                 kResilienceFields},
    SectionLine<ZeroCopyStats>{kSectionZeroCopy, "zero_copy",
                               &MetricsFrame::zerocopy, kZeroCopyFields},
    SectionLine<MetaCacheStats>{kSectionMetaCache, "meta_cache",
                                &MetricsFrame::meta_cache, kMetaCacheFields},
    SectionLine<TraceStats>{kSectionTrace, "trace", &MetricsFrame::trace,
                            kTraceFields},
    RowsLine<ReactorStats::PerReactor>{kSectionReactors, "reactors",
                                       "reactor", kReactorFields},
    SectionLine<WriteBackStats>{kSectionWriteBack, "write_back",
                                &MetricsFrame::write_back, kWriteBackFields},
    SectionLine<PrefetchStats>{kSectionPrefetch, "prefetch",
                               &MetricsFrame::prefetch, kPrefetchFields,
                               json_paced_delay, 9},
};

// Calls fn(line) for every section line above, in order.
template <typename Fn>
constexpr void for_each_section(Fn&& fn) {
  std::apply([&](const auto&... line) { (fn(line), ...); }, kSections);
}

}  // namespace hvac::core
