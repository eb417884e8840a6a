#include "core/metrics_frame.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace hvac::core {

using rpc::Bytes;
using rpc::WireReader;
using rpc::WireWriter;

void HandleCacheStats::merge(const HandleCacheStats& other) {
  hits += other.hits;
  misses += other.misses;
  open += other.open;
  pinned += other.pinned;
  deferred_closes += other.deferred_closes;
  capacity += other.capacity;
}

void BufferPoolStats::merge(const BufferPoolStats& other) {
  leases += other.leases;
  pool_hits += other.pool_hits;
  fallback_allocs += other.fallback_allocs;
  recycled += other.recycled;
  dropped += other.dropped;
}

void ReadAheadStats::merge(const ReadAheadStats& other) {
  issued += other.issued;
  consumed += other.consumed;
  wasted += other.wasted;
}

void ResilienceStats::merge(const ResilienceStats& other) {
  breaker_opens += other.breaker_opens;
  breaker_closes += other.breaker_closes;
  breaker_probes += other.breaker_probes;
  breaker_shed += other.breaker_shed;
  retries += other.retries;
  deadline_misses += other.deadline_misses;
  server_shed += other.server_shed;
  mover_rejects += other.mover_rejects;
  drains += other.drains;
  drained_requests += other.drained_requests;
  faults_injected += other.faults_injected;
}

void ZeroCopyStats::merge(const ZeroCopyStats& other) {
  sendfile_sends += other.sendfile_sends;
  splice_sends += other.splice_sends;
  fallback_sends += other.fallback_sends;
  sendfile_bytes += other.sendfile_bytes;
  splice_bytes += other.splice_bytes;
  short_resumes += other.short_resumes;
}

void MetaCacheStats::merge(const MetaCacheStats& other) {
  hits += other.hits;
  misses += other.misses;
  expired += other.expired;
  invalidated += other.invalidated;
}

void TraceStats::merge(const TraceStats& other) {
  emitted += other.emitted;
  dropped += other.dropped;
  rings += other.rings;
  ring_capacity += other.ring_capacity;
  occupancy += other.occupancy;
}

void ReactorStats::merge(const ReactorStats& other) {
  if (other.reactors.size() > reactors.size()) {
    reactors.resize(other.reactors.size());
  }
  for (size_t i = 0; i < other.reactors.size(); ++i) {
    reactors[i].conns += other.reactors[i].conns;
    reactors[i].requests += other.reactors[i].requests;
    reactors[i].steals += other.reactors[i].steals;
    reactors[i].shed += other.reactors[i].shed;
    reactors[i].steal_backoffs += other.reactors[i].steal_backoffs;
  }
}

void WriteBackStats::merge(const WriteBackStats& other) {
  writes += other.writes;
  bytes_written += other.bytes_written;
  fsyncs += other.fsyncs;
  dirty_bytes += other.dirty_bytes;
  dirty_files += other.dirty_files;
  journal_records += other.journal_records;
  journal_bytes += other.journal_bytes;
  flushed_files += other.flushed_files;
  flush_retries += other.flush_retries;
  flush_failures += other.flush_failures;
  flush_queue_depth += other.flush_queue_depth;
  flush_inflight += other.flush_inflight;
  flush_lag_ms = flush_lag_ms > other.flush_lag_ms ? flush_lag_ms
                                                   : other.flush_lag_ms;
  write_through_sheds += other.write_through_sheds;
  write_through_bytes += other.write_through_bytes;
  replay_writes += other.replay_writes;
  replay_bytes += other.replay_bytes;
  replay_truncated_bytes += other.replay_truncated_bytes;
  replay_dirty_files += other.replay_dirty_files;
}

void StallStats::merge(const StallStats& other) {
  for (const StallEpochRow& oe : other.epochs) {
    StallEpochRow* row = nullptr;
    for (StallEpochRow& e : epochs) {
      if (e.epoch == oe.epoch) {
        row = &e;
        break;
      }
    }
    if (row == nullptr) {
      epochs.push_back(oe);
      continue;
    }
    row->reads += oe.reads;
    row->total_ns += oe.total_ns;
    row->local_hit_ns += oe.local_hit_ns;
    row->remote_rpc_ns += oe.remote_rpc_ns;
    row->pfs_wait_ns += oe.pfs_wait_ns;
    row->backpressure_ns += oe.backpressure_ns;
    row->retry_ns += oe.retry_ns;
  }
  std::sort(epochs.begin(), epochs.end(),
            [](const StallEpochRow& a, const StallEpochRow& b) {
              return a.epoch < b.epoch;
            });
}

void PrefetchStats::merge(const PrefetchStats& other) {
  planned += other.planned;
  issued += other.issued;
  completed += other.completed;
  shed += other.shed;
  late += other.late;
  hit_after_prefetch += other.hit_after_prefetch;
  deduped += other.deduped;
  dedup_inflight += other.dedup_inflight;
  paced_delay.merge(other.paced_delay);
}

void MetricsFrame::merge(const MetricsFrame& other) {
  version = version > other.version ? version : other.version;
  cache.hits += other.cache.hits;
  cache.misses += other.cache.misses;
  cache.dedup_waits += other.cache.dedup_waits;
  cache.evictions += other.cache.evictions;
  cache.bytes_from_cache += other.cache.bytes_from_cache;
  cache.bytes_from_pfs += other.cache.bytes_from_pfs;
  cache.pfs_fallbacks += other.cache.pfs_fallbacks;
  open_fds += other.open_fds;
  handle_cache.merge(other.handle_cache);
  buffer_pool.merge(other.buffer_pool);
  readahead.merge(other.readahead);
  resilience.merge(other.resilience);
  zerocopy.merge(other.zerocopy);
  meta_cache.merge(other.meta_cache);
  trace.merge(other.trace);
  reactor.merge(other.reactor);
  write_back.merge(other.write_back);
  prefetch.merge(other.prefetch);
  stall.merge(other.stall);
  for (const auto& [op, snap] : other.op_latency) {
    op_latency[op].merge(snap);
  }
}

Bytes MetricsFrame::encode() const {
  WireWriter w;
  // v1 prefix: byte-identical to the legacy payload.
  w.put_u64(cache.hits);
  w.put_u64(cache.misses);
  w.put_u64(cache.dedup_waits);
  w.put_u64(cache.evictions);
  w.put_u64(cache.bytes_from_cache);
  w.put_u64(cache.bytes_from_pfs);
  w.put_u64(cache.pfs_fallbacks);
  w.put_u64(open_fds);

  w.put_u32(kMetricsFrameMagic);
  w.put_u16(kFrameVersion);
  w.put_u16(12);  // section count

  {
    WireWriter s;
    s.put_u64(handle_cache.hits);
    s.put_u64(handle_cache.misses);
    s.put_u64(handle_cache.open);
    s.put_u64(handle_cache.pinned);
    s.put_u64(handle_cache.deferred_closes);
    s.put_u64(handle_cache.capacity);
    w.put_u16(kSectionHandleCache);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  {
    WireWriter s;
    s.put_u64(buffer_pool.leases);
    s.put_u64(buffer_pool.pool_hits);
    s.put_u64(buffer_pool.fallback_allocs);
    s.put_u64(buffer_pool.recycled);
    s.put_u64(buffer_pool.dropped);
    w.put_u16(kSectionBufferPool);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  {
    WireWriter s;
    s.put_u64(readahead.issued);
    s.put_u64(readahead.consumed);
    s.put_u64(readahead.wasted);
    w.put_u16(kSectionReadAhead);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  {
    WireWriter s;
    s.put_u16(static_cast<uint16_t>(op_latency.size()));
    for (const auto& [op, snap] : op_latency) {
      s.put_u16(op);
      s.put_u64(snap.count);
      s.put_u64(snap.total_ns);
      s.put_u16(static_cast<uint16_t>(kLatencyBuckets));
      for (uint64_t b : snap.buckets) s.put_u64(b);
    }
    w.put_u16(kSectionLatency);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  {
    WireWriter s;
    s.put_u64(resilience.breaker_opens);
    s.put_u64(resilience.breaker_closes);
    s.put_u64(resilience.breaker_probes);
    s.put_u64(resilience.breaker_shed);
    s.put_u64(resilience.retries);
    s.put_u64(resilience.deadline_misses);
    s.put_u64(resilience.server_shed);
    s.put_u64(resilience.mover_rejects);
    s.put_u64(resilience.drains);
    s.put_u64(resilience.drained_requests);
    s.put_u64(resilience.faults_injected);
    w.put_u16(kSectionResilience);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  {
    WireWriter s;
    s.put_u64(zerocopy.sendfile_sends);
    s.put_u64(zerocopy.splice_sends);
    s.put_u64(zerocopy.fallback_sends);
    s.put_u64(zerocopy.sendfile_bytes);
    s.put_u64(zerocopy.splice_bytes);
    s.put_u64(zerocopy.short_resumes);
    w.put_u16(kSectionZeroCopy);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  {
    WireWriter s;
    s.put_u64(meta_cache.hits);
    s.put_u64(meta_cache.misses);
    s.put_u64(meta_cache.expired);
    s.put_u64(meta_cache.invalidated);
    w.put_u16(kSectionMetaCache);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  {
    WireWriter s;
    s.put_u64(trace.emitted);
    s.put_u64(trace.dropped);
    s.put_u64(trace.rings);
    s.put_u64(trace.ring_capacity);
    s.put_u64(trace.occupancy);
    w.put_u16(kSectionTrace);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  {
    WireWriter s;
    s.put_u16(static_cast<uint16_t>(reactor.reactors.size()));
    s.put_u16(5);  // u64 words per reactor row
    for (const auto& pr : reactor.reactors) {
      s.put_u64(pr.conns);
      s.put_u64(pr.requests);
      s.put_u64(pr.steals);
      s.put_u64(pr.shed);
      s.put_u64(pr.steal_backoffs);
    }
    w.put_u16(kSectionReactors);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  {
    WireWriter s;
    s.put_u64(write_back.writes);
    s.put_u64(write_back.bytes_written);
    s.put_u64(write_back.fsyncs);
    s.put_u64(write_back.dirty_bytes);
    s.put_u64(write_back.dirty_files);
    s.put_u64(write_back.journal_records);
    s.put_u64(write_back.journal_bytes);
    s.put_u64(write_back.flushed_files);
    s.put_u64(write_back.flush_retries);
    s.put_u64(write_back.flush_failures);
    s.put_u64(write_back.flush_queue_depth);
    s.put_u64(write_back.flush_inflight);
    s.put_u64(write_back.flush_lag_ms);
    s.put_u64(write_back.write_through_sheds);
    s.put_u64(write_back.write_through_bytes);
    s.put_u64(write_back.replay_writes);
    s.put_u64(write_back.replay_bytes);
    s.put_u64(write_back.replay_truncated_bytes);
    s.put_u64(write_back.replay_dirty_files);
    w.put_u16(kSectionWriteBack);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  {
    WireWriter s;
    s.put_u64(prefetch.planned);
    s.put_u64(prefetch.issued);
    s.put_u64(prefetch.completed);
    s.put_u64(prefetch.shed);
    s.put_u64(prefetch.late);
    s.put_u64(prefetch.hit_after_prefetch);
    s.put_u64(prefetch.deduped);
    s.put_u64(prefetch.dedup_inflight);
    s.put_u64(prefetch.reserved);
    s.put_u64(prefetch.paced_delay.count);
    s.put_u64(prefetch.paced_delay.total_ns);
    s.put_u16(static_cast<uint16_t>(kLatencyBuckets));
    for (uint64_t b : prefetch.paced_delay.buckets) s.put_u64(b);
    w.put_u16(kSectionPrefetch);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  {
    WireWriter s;
    s.put_u16(static_cast<uint16_t>(stall.epochs.size()));
    s.put_u16(8);  // u64 words per epoch row
    for (const StallEpochRow& e : stall.epochs) {
      s.put_u64(e.epoch);
      s.put_u64(e.reads);
      s.put_u64(e.total_ns);
      s.put_u64(e.local_hit_ns);
      s.put_u64(e.remote_rpc_ns);
      s.put_u64(e.pfs_wait_ns);
      s.put_u64(e.backpressure_ns);
      s.put_u64(e.retry_ns);
    }
    w.put_u16(kSectionStall);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  return std::move(w).take();
}

namespace {

// Section bodies are decoded tolerantly: read the fields this build
// knows, stop at the section end, ignore any newer tail. A short body
// (older peer) leaves the remaining fields at zero.
void read_u64s(WireReader& r, std::initializer_list<uint64_t*> fields) {
  for (uint64_t* f : fields) {
    auto v = r.get_u64();
    if (!v.ok()) return;
    *f = *v;
  }
}

void decode_latency(WireReader& r,
                    std::map<uint16_t, LatencySnapshot>* out) {
  auto op_count = r.get_u16();
  if (!op_count.ok()) return;
  for (uint16_t i = 0; i < *op_count; ++i) {
    auto op = r.get_u16();
    auto count = r.get_u64();
    auto total = r.get_u64();
    auto n_buckets = r.get_u16();
    if (!op.ok() || !count.ok() || !total.ok() || !n_buckets.ok()) return;
    LatencySnapshot snap;
    snap.count = *count;
    snap.total_ns = *total;
    for (uint16_t b = 0; b < *n_buckets; ++b) {
      auto v = r.get_u64();
      if (!v.ok()) return;
      // A peer with more buckets than us folds its tail into our last
      // bucket so count stays consistent with the bucket sum.
      const size_t slot = b < kLatencyBuckets ? b : kLatencyBuckets - 1;
      snap.buckets[slot] += *v;
    }
    (*out)[*op].merge(snap);
  }
}

void decode_reactors(WireReader& r, ReactorStats* out) {
  auto count = r.get_u16();
  auto words = r.get_u16();
  if (!count.ok() || !words.ok()) return;
  for (uint16_t i = 0; i < *count; ++i) {
    ReactorStats::PerReactor pr;
    uint64_t* fields[] = {&pr.conns, &pr.requests, &pr.steals, &pr.shed,
                          &pr.steal_backoffs};
    for (uint16_t w = 0; w < *words; ++w) {
      auto v = r.get_u64();
      if (!v.ok()) return;
      if (w < 5) *fields[w] = *v;  // newer rows: extra words ignored
    }
    out->reactors.push_back(pr);
  }
}

void decode_prefetch(WireReader& r, PrefetchStats* out) {
  read_u64s(r, {&out->planned, &out->issued, &out->completed, &out->shed,
                &out->late, &out->hit_after_prefetch, &out->deduped,
                &out->dedup_inflight, &out->reserved,
                &out->paced_delay.count, &out->paced_delay.total_ns});
  auto n_buckets = r.get_u16();
  if (!n_buckets.ok()) return;
  for (uint16_t b = 0; b < *n_buckets; ++b) {
    auto v = r.get_u64();
    if (!v.ok()) return;
    // A peer with more buckets folds its tail into our last bucket so
    // count stays consistent with the bucket sum.
    const size_t slot = b < kLatencyBuckets ? b : kLatencyBuckets - 1;
    out->paced_delay.buckets[slot] += *v;
  }
}

void decode_stall(WireReader& r, StallStats* out) {
  auto count = r.get_u16();
  auto words = r.get_u16();
  if (!count.ok() || !words.ok()) return;
  for (uint16_t i = 0; i < *count; ++i) {
    StallEpochRow e;
    uint64_t* fields[] = {&e.epoch,        &e.reads,
                          &e.total_ns,     &e.local_hit_ns,
                          &e.remote_rpc_ns, &e.pfs_wait_ns,
                          &e.backpressure_ns, &e.retry_ns};
    for (uint16_t w = 0; w < *words; ++w) {
      auto v = r.get_u64();
      if (!v.ok()) return;
      if (w < 8) *fields[w] = *v;  // newer rows: extra words ignored
    }
    out->epochs.push_back(e);
  }
}

}  // namespace

Result<MetricsFrame> MetricsFrame::decode(const Bytes& bytes) {
  WireReader r(bytes);
  MetricsFrame f;
  HVAC_ASSIGN_OR_RETURN(f.cache.hits, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(f.cache.misses, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(f.cache.dedup_waits, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(f.cache.evictions, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(f.cache.bytes_from_cache, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(f.cache.bytes_from_pfs, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(f.cache.pfs_fallbacks, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(f.open_fds, r.get_u64());

  // Anything past the prefix must announce itself; a missing or
  // foreign magic means a v1 peer (or one newer than the magic itself,
  // which a versioned magic would signal — cross that bridge then).
  f.version = 1;
  auto magic = r.get_u32();
  if (!magic.ok() || *magic != kMetricsFrameMagic) return f;
  auto version = r.get_u16();
  auto section_count = r.get_u16();
  if (!version.ok() || !section_count.ok()) return f;
  f.version = *version;

  for (uint16_t i = 0; i < *section_count; ++i) {
    auto id = r.get_u16();
    if (!id.ok()) break;
    auto body = r.get_blob_view();
    if (!body.ok()) break;
    WireReader s(body->data, body->size);
    switch (*id) {
      case kSectionHandleCache:
        read_u64s(s, {&f.handle_cache.hits, &f.handle_cache.misses,
                      &f.handle_cache.open, &f.handle_cache.pinned,
                      &f.handle_cache.deferred_closes,
                      &f.handle_cache.capacity});
        break;
      case kSectionBufferPool:
        read_u64s(s, {&f.buffer_pool.leases, &f.buffer_pool.pool_hits,
                      &f.buffer_pool.fallback_allocs,
                      &f.buffer_pool.recycled, &f.buffer_pool.dropped});
        break;
      case kSectionReadAhead:
        read_u64s(s, {&f.readahead.issued, &f.readahead.consumed,
                      &f.readahead.wasted});
        break;
      case kSectionLatency:
        decode_latency(s, &f.op_latency);
        break;
      case kSectionResilience:
        read_u64s(s, {&f.resilience.breaker_opens,
                      &f.resilience.breaker_closes,
                      &f.resilience.breaker_probes,
                      &f.resilience.breaker_shed, &f.resilience.retries,
                      &f.resilience.deadline_misses,
                      &f.resilience.server_shed,
                      &f.resilience.mover_rejects, &f.resilience.drains,
                      &f.resilience.drained_requests,
                      &f.resilience.faults_injected});
        break;
      case kSectionZeroCopy:
        read_u64s(s, {&f.zerocopy.sendfile_sends, &f.zerocopy.splice_sends,
                      &f.zerocopy.fallback_sends,
                      &f.zerocopy.sendfile_bytes, &f.zerocopy.splice_bytes,
                      &f.zerocopy.short_resumes});
        break;
      case kSectionMetaCache:
        read_u64s(s, {&f.meta_cache.hits, &f.meta_cache.misses,
                      &f.meta_cache.expired, &f.meta_cache.invalidated});
        break;
      case kSectionTrace:
        read_u64s(s, {&f.trace.emitted, &f.trace.dropped, &f.trace.rings,
                      &f.trace.ring_capacity, &f.trace.occupancy});
        break;
      case kSectionReactors:
        decode_reactors(s, &f.reactor);
        break;
      case kSectionWriteBack:
        read_u64s(s, {&f.write_back.writes, &f.write_back.bytes_written,
                      &f.write_back.fsyncs, &f.write_back.dirty_bytes,
                      &f.write_back.dirty_files,
                      &f.write_back.journal_records,
                      &f.write_back.journal_bytes,
                      &f.write_back.flushed_files,
                      &f.write_back.flush_retries,
                      &f.write_back.flush_failures,
                      &f.write_back.flush_queue_depth,
                      &f.write_back.flush_inflight,
                      &f.write_back.flush_lag_ms,
                      &f.write_back.write_through_sheds,
                      &f.write_back.write_through_bytes,
                      &f.write_back.replay_writes,
                      &f.write_back.replay_bytes,
                      &f.write_back.replay_truncated_bytes,
                      &f.write_back.replay_dirty_files});
        break;
      case kSectionPrefetch:
        decode_prefetch(s, &f.prefetch);
        break;
      case kSectionStall:
        decode_stall(s, &f.stall);
        break;
      default:
        break;  // unknown section: skipped by its length prefix
    }
  }
  return f;
}

std::string op_name(uint16_t opcode) {
  // Mirrors hvac::proto::Opcode; the frame is part of the protocol, so
  // these names are as stable as the opcode values themselves. Retired
  // opcodes (6, 8) are never served, so they have no name.
  switch (opcode) {
    case 1: return "ping";
    case 2: return "open";
    case 3: return "read";
    case 4: return "close";
    case 5: return "stat";
    case 7: return "metrics";
    case 9: return "read_scatter";
    case 10: return "prefetch_batch";
    case 11: return "trace";
    case 12: return "packed_index";
    case 13: return "write_open";
    case 14: return "write";
    case 15: return "fsync";
    case 16: return "write_close";
    case 17: return "time_series";
    default: return "op" + std::to_string(opcode);
  }
}

std::string MetricsFrame::to_json() const {
  std::ostringstream o;
  o << "{\"version\":" << version << ",\"cache\":{"
    << "\"hits\":" << cache.hits << ",\"misses\":" << cache.misses
    << ",\"hit_rate\":" << cache.hit_rate()
    << ",\"dedup_waits\":" << cache.dedup_waits
    << ",\"evictions\":" << cache.evictions
    << ",\"bytes_from_cache\":" << cache.bytes_from_cache
    << ",\"bytes_from_pfs\":" << cache.bytes_from_pfs
    << ",\"pfs_fallbacks\":" << cache.pfs_fallbacks << "}"
    << ",\"open_fds\":" << open_fds << ",\"handle_cache\":{"
    << "\"hits\":" << handle_cache.hits
    << ",\"misses\":" << handle_cache.misses
    << ",\"open\":" << handle_cache.open
    << ",\"pinned\":" << handle_cache.pinned
    << ",\"deferred_closes\":" << handle_cache.deferred_closes
    << ",\"capacity\":" << handle_cache.capacity << "}"
    << ",\"buffer_pool\":{\"leases\":" << buffer_pool.leases
    << ",\"pool_hits\":" << buffer_pool.pool_hits
    << ",\"fallback_allocs\":" << buffer_pool.fallback_allocs
    << ",\"recycled\":" << buffer_pool.recycled
    << ",\"dropped\":" << buffer_pool.dropped << "}"
    << ",\"read_ahead\":{\"issued\":" << readahead.issued
    << ",\"consumed\":" << readahead.consumed
    << ",\"wasted\":" << readahead.wasted << "}"
    << ",\"resilience\":{\"breaker_opens\":" << resilience.breaker_opens
    << ",\"breaker_closes\":" << resilience.breaker_closes
    << ",\"breaker_probes\":" << resilience.breaker_probes
    << ",\"breaker_shed\":" << resilience.breaker_shed
    << ",\"retries\":" << resilience.retries
    << ",\"deadline_misses\":" << resilience.deadline_misses
    << ",\"server_shed\":" << resilience.server_shed
    << ",\"mover_rejects\":" << resilience.mover_rejects
    << ",\"drains\":" << resilience.drains
    << ",\"drained_requests\":" << resilience.drained_requests
    << ",\"faults_injected\":" << resilience.faults_injected << "}"
    << ",\"zero_copy\":{\"sendfile_sends\":" << zerocopy.sendfile_sends
    << ",\"splice_sends\":" << zerocopy.splice_sends
    << ",\"fallback_sends\":" << zerocopy.fallback_sends
    << ",\"sendfile_bytes\":" << zerocopy.sendfile_bytes
    << ",\"splice_bytes\":" << zerocopy.splice_bytes
    << ",\"short_resumes\":" << zerocopy.short_resumes << "}"
    << ",\"meta_cache\":{\"hits\":" << meta_cache.hits
    << ",\"misses\":" << meta_cache.misses
    << ",\"expired\":" << meta_cache.expired
    << ",\"invalidated\":" << meta_cache.invalidated << "}"
    << ",\"trace\":{\"emitted\":" << trace.emitted
    << ",\"dropped\":" << trace.dropped << ",\"rings\":" << trace.rings
    << ",\"ring_capacity\":" << trace.ring_capacity
    << ",\"occupancy\":" << trace.occupancy << "}"
    << ",\"reactors\":[";
  for (size_t i = 0; i < reactor.reactors.size(); ++i) {
    const auto& pr = reactor.reactors[i];
    if (i != 0) o << ",";
    o << "{\"conns\":" << pr.conns << ",\"requests\":" << pr.requests
      << ",\"steals\":" << pr.steals << ",\"shed\":" << pr.shed
      << ",\"steal_backoffs\":" << pr.steal_backoffs << "}";
  }
  o << "]"
    << ",\"write_back\":{\"writes\":" << write_back.writes
    << ",\"bytes_written\":" << write_back.bytes_written
    << ",\"fsyncs\":" << write_back.fsyncs
    << ",\"dirty_bytes\":" << write_back.dirty_bytes
    << ",\"dirty_files\":" << write_back.dirty_files
    << ",\"journal_records\":" << write_back.journal_records
    << ",\"journal_bytes\":" << write_back.journal_bytes
    << ",\"flushed_files\":" << write_back.flushed_files
    << ",\"flush_retries\":" << write_back.flush_retries
    << ",\"flush_failures\":" << write_back.flush_failures
    << ",\"flush_queue_depth\":" << write_back.flush_queue_depth
    << ",\"flush_inflight\":" << write_back.flush_inflight
    << ",\"flush_lag_ms\":" << write_back.flush_lag_ms
    << ",\"write_through_sheds\":" << write_back.write_through_sheds
    << ",\"write_through_bytes\":" << write_back.write_through_bytes
    << ",\"replay_writes\":" << write_back.replay_writes
    << ",\"replay_bytes\":" << write_back.replay_bytes
    << ",\"replay_truncated_bytes\":" << write_back.replay_truncated_bytes
    << ",\"replay_dirty_files\":" << write_back.replay_dirty_files << "}";
  {
    char paced[128];
    std::snprintf(paced, sizeof(paced),
                  "{\"count\":%" PRIu64
                  ",\"mean\":%.3f,\"p50\":%.3f,\"p99\":%.3f}",
                  prefetch.paced_delay.count,
                  prefetch.paced_delay.mean_ns() / 1e3,
                  prefetch.paced_delay.percentile_ns(50) / 1e3,
                  prefetch.paced_delay.percentile_ns(99) / 1e3);
    o << ",\"prefetch\":{\"planned\":" << prefetch.planned
      << ",\"issued\":" << prefetch.issued
      << ",\"completed\":" << prefetch.completed
      << ",\"shed\":" << prefetch.shed << ",\"late\":" << prefetch.late
      << ",\"hit_after_prefetch\":" << prefetch.hit_after_prefetch
      << ",\"deduped\":" << prefetch.deduped
      << ",\"dedup_inflight\":" << prefetch.dedup_inflight
      << ",\"paced_delay_us\":" << paced << "}";
  }
  o << ",\"stall\":[";
  for (size_t i = 0; i < stall.epochs.size(); ++i) {
    const StallEpochRow& e = stall.epochs[i];
    if (i != 0) o << ",";
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"epoch\":%" PRIu64 ",\"reads\":%" PRIu64
                  ",\"stall_s\":%.6f,\"local_hit_s\":%.6f"
                  ",\"remote_rpc_s\":%.6f,\"pfs_wait_s\":%.6f"
                  ",\"backpressure_s\":%.6f,\"retry_s\":%.6f}",
                  e.epoch, e.reads, double(e.total_ns) / 1e9,
                  double(e.local_hit_ns) / 1e9,
                  double(e.remote_rpc_ns) / 1e9,
                  double(e.pfs_wait_ns) / 1e9,
                  double(e.backpressure_ns) / 1e9,
                  double(e.retry_ns) / 1e9);
    o << buf;
  }
  o << "]";
  o << ",\"latency_us\":{";
  bool first = true;
  for (const auto& [op, snap] : op_latency) {
    if (!first) o << ",";
    first = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"count\":%" PRIu64
                  ",\"mean\":%.3f,\"p50\":%.3f,\"p99\":%.3f}",
                  op_name(op).c_str(), snap.count, snap.mean_ns() / 1e3,
                  snap.percentile_ns(50) / 1e3, snap.percentile_ns(99) / 1e3);
    o << buf;
  }
  o << "}}";
  return o.str();
}

}  // namespace hvac::core
