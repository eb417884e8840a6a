// CacheManager — the server-side cache brain.
//
// Guarantees (paper §III-D):
//   * Single-copy: when N clients request the same uncached file
//     concurrently, exactly one PFS->NVMe copy runs; the other N-1
//     callers block until it completes ("we use mutex lock on shared
//     queue to guarantee consistency and to avoid repeated copying").
//   * Capacity: when the local store exceeds its budget, the eviction
//     policy picks victims until the new file fits (paper §III-G). A
//     file that is larger than the whole store is served from PFS
//     directly (counted as a pfs_fallback) rather than thrashing.
//   * Read-only: the cache never mutates the source file; a cached
//     copy is immutable until evicted or purged.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>

#include "common/result.h"
#include "core/eviction.h"
#include "core/metrics.h"
#include "storage/local_store.h"
#include "storage/pfs_backend.h"

namespace hvac::core {

class CacheManager {
 public:
  // Does not take ownership of `pfs`; it must outlive the manager.
  CacheManager(storage::PfsBackend* pfs,
               std::unique_ptr<storage::LocalStore> store,
               std::unique_ptr<EvictionPolicy> eviction);

  // Ensures `logical_path` (relative to the PFS root) is cached,
  // copying it from the PFS if needed. Returns:
  //   true  — served from (or now present in) the local cache
  //   false — cacheable capacity exceeded; caller should read through
  //           to the PFS (fallback), file is NOT cached
  // or an error if the PFS itself failed.
  // With a `container` (a prefetch batch's), a file of at most
  // BatchContainer::kMaxSampleBytes is copied into a range of it
  // instead of a file of its own.
  Result<bool> ensure_cached(const std::string& logical_path,
                             storage::BatchContainer* container = nullptr);

  // The hit probe: when `key` is resident, records the access (eviction
  // recency + hit counter) and returns true; otherwise changes nothing.
  // Never blocks on a copy, so a reactor thread may call it.
  bool try_hit(const std::string& key);

  // Opens the cached copy (ensure_cached must have returned true).
  Result<storage::StoredFile> open_cached(const std::string& logical_path);

  // Reads file bytes through the cache: hit -> local store, miss ->
  // copy then local store, capacity overflow -> PFS passthrough.
  Result<std::vector<uint8_t>> read_through(const std::string& logical_path);

  // Positional read through the cache: hit -> local store, miss ->
  // copy then local store, capacity overflow or a failing local store
  // -> PFS passthrough. With segment_bytes > 0 the cached unit is
  // segment `seg_index` (segment_key) and `offset` is relative to the
  // segment start (paper §III-E extension).
  Result<size_t> pread_through(const std::string& logical_path, void* buf,
                               size_t count, uint64_t offset,
                               uint64_t seg_index = 0,
                               uint64_t segment_bytes = 0);

  // ---- segment-level caching (paper §III-E extension) ------------------
  // Ensures segment `seg_index` (of `segment_bytes`-sized segments) of
  // the file is cached; same return convention as ensure_cached. The
  // cache key is segment_key(path, idx), so different segments can be
  // owned by different servers.
  Result<bool> ensure_segment_cached(const std::string& logical_path,
                                     uint64_t seg_index,
                                     uint64_t segment_bytes);

  bool is_cached(const std::string& logical_path) const {
    return store_->contains(logical_path);
  }

  // Drops one file (tests / manual control).
  Status evict(const std::string& logical_path);

  // Job teardown.
  void purge() { store_->purge(); }

  const MetricsSnapshot metrics() const { return metrics_.snapshot(); }

  // Byte accounting for callers that read via their own handles (the
  // HVAC server serves pread RPCs off a cached fd, outside
  // read_through).
  void record_served_bytes(uint64_t bytes, bool from_cache) {
    if (from_cache) {
      metrics_.add_cache_bytes(bytes);
    } else {
      metrics_.add_pfs_bytes(bytes);
    }
  }
  storage::LocalStore& store() { return *store_; }
  storage::PfsBackend& pfs() { return *pfs_; }

 private:
  // Reserves `needed` bytes in the store, evicting until used plus
  // reserved bytes leave room for them; false when impossible. The
  // caller hands the reservation to insert() or releases it.
  bool make_room(uint64_t needed);

  // Shared miss path: serializes concurrent first-reads of `key`, then
  // fills it from [offset, offset + max_len) of `logical_path`
  // (max_len UINT64_MAX: the whole file; otherwise one segment).
  Result<bool> ensure_key_cached(const std::string& key,
                                 const std::string& logical_path,
                                 uint64_t offset, uint64_t max_len,
                                 storage::BatchContainer* container);
  // The copy itself, run by the one caller that owns `key`'s fetch:
  // open the PFS source once, size it with fstat, make room, copy into
  // a container range or a file of its own, publish.
  Result<bool> fill(const std::string& key, const std::string& logical_path,
                    uint64_t offset, uint64_t max_len,
                    storage::BatchContainer* container);

  storage::PfsBackend* pfs_;
  std::unique_ptr<storage::LocalStore> store_;
  std::unique_ptr<EvictionPolicy> eviction_;
  Metrics metrics_;

  std::mutex room_mutex_;  // serializes make_room's eviction loop

  std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  std::unordered_set<std::string> inflight_;
};

}  // namespace hvac::core
