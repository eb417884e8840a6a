#include "core/cache_manager.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "core/segment.h"

namespace hvac::core {

CacheManager::CacheManager(storage::PfsBackend* pfs,
                           std::unique_ptr<storage::LocalStore> store,
                           std::unique_ptr<EvictionPolicy> eviction)
    : pfs_(pfs), store_(std::move(store)), eviction_(std::move(eviction)) {}

bool CacheManager::make_room(uint64_t needed) {
  const uint64_t capacity = store_->capacity_bytes();
  if (capacity != 0 && needed > capacity) return false;
  // One filler evicts at a time, and each eviction's room goes to the
  // reservation that asked for it: concurrent movers can no longer
  // each make room for themselves and then lose it to one another.
  std::lock_guard<std::mutex> lock(room_mutex_);
  while (!store_->reserve(needed)) {
    auto victim = eviction_->select_victim();
    if (!victim.has_value()) return false;
    eviction_->on_evict(*victim);
    if (store_->evict(*victim).ok()) {
      metrics_.on_eviction();
    }
  }
  return true;
}

bool CacheManager::try_hit(const std::string& key) {
  if (!store_->contains(key)) return false;
  eviction_->on_access(key);
  metrics_.on_hit();
  return true;
}

Result<bool> CacheManager::ensure_key_cached(
    const std::string& key, const std::string& logical_path,
    uint64_t offset, uint64_t max_len, storage::BatchContainer* container) {
  if (try_hit(key)) return true;

  // Serialize concurrent first-reads of the same key.
  {
    std::unique_lock<std::mutex> lock(inflight_mutex_);
    if (inflight_.count(key) > 0) {
      metrics_.on_dedup_wait();
      inflight_cv_.wait(lock, [&] { return inflight_.count(key) == 0; });
      // The winner finished; it either cached the key or decided on
      // fallback (capacity: serve from the PFS). Re-check the store.
      return try_hit(key);
    }
    if (try_hit(key)) return true;
    inflight_.insert(key);
  }

  // We are the designated copier. Always clear the in-flight mark.
  Result<bool> result = fill(key, logical_path, offset, max_len, container);
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(key);
  }
  inflight_cv_.notify_all();
  return result;
}

Result<bool> CacheManager::fill(const std::string& key,
                                const std::string& logical_path,
                                uint64_t offset, uint64_t max_len,
                                storage::BatchContainer* container) {
  // One PFS metadata op per fetch: the open. fstat on that fd sizes
  // the copy, and the bytes come from the same fd.
  HVAC_ASSIGN_OR_RETURN(storage::PosixFile src, pfs_->open(logical_path));
  HVAC_ASSIGN_OR_RETURN(uint64_t file_size, src.size());
  const bool whole = max_len == UINT64_MAX;
  if (!whole && offset >= file_size) {
    return Error(ErrorCode::kInvalidArgument, "segment past EOF: " + key);
  }
  const uint64_t size =
      whole ? file_size : std::min<uint64_t>(max_len, file_size - offset);
  if (!make_room(size)) {
    HVAC_LOG_DEBUG("capacity fallback for " << key << " (" << size
                                            << " bytes)");
    return false;
  }
  // The reservation is handed to insert(), which turns it into use;
  // every other way out of here gives it back.
  struct Reservation {
    storage::LocalStore& store;
    uint64_t bytes;
    ~Reservation() {
      if (bytes > 0) store.release(bytes);
    }
    uint64_t take() { return std::exchange(bytes, 0); }
  } reservation{*store_, size};

  uint64_t copied = 0;
  if (container != nullptr && whole &&
      size <= storage::BatchContainer::kMaxSampleBytes) {
    // Batch fill: append to the batch's container, no inode created.
    HVAC_ASSIGN_OR_RETURN(std::shared_ptr<storage::ContainerSlot> slot,
                          container->reserve(size));
    HVAC_ASSIGN_OR_RETURN(copied, pfs_->copy_from(src, 0, size,
                                                  container->file(),
                                                  slot->base));
    slot->length = copied;  // the source may have shrunk since fstat
    if (!store_->insert(key, slot, reservation.take()).ok()) return false;
  } else {
    const std::string dst = store_->physical_path(key);
    auto copy = [&]() -> Result<uint64_t> {
      HVAC_ASSIGN_OR_RETURN(storage::PosixFile out,
                            storage::PosixFile::create_write(dst));
      HVAC_ASSIGN_OR_RETURN(uint64_t n,
                            pfs_->copy_from(src, offset, size, out, 0));
      HVAC_RETURN_IF_ERROR(out.close());
      return n;
    };
    auto n = copy();
    if (!n.ok() || !store_->insert(key, *n, reservation.take()).ok()) {
      (void)storage::remove_file(dst);
      if (!n.ok()) return n.error();
      return false;
    }
    copied = *n;
  }
  eviction_->on_insert(key);
  metrics_.on_miss(copied);
  return true;
}

Result<bool> CacheManager::ensure_cached(const std::string& logical_path,
                                         storage::BatchContainer* container) {
  return ensure_key_cached(logical_path, logical_path, 0, UINT64_MAX,
                           container);
}

Result<bool> CacheManager::ensure_segment_cached(
    const std::string& logical_path, uint64_t seg_index,
    uint64_t segment_bytes) {
  if (segment_bytes == 0) {
    return Error(ErrorCode::kInvalidArgument, "segment_bytes == 0");
  }
  return ensure_key_cached(segment_key(logical_path, seg_index),
                           logical_path, seg_index * segment_bytes,
                           segment_bytes, nullptr);
}

Result<storage::StoredFile> CacheManager::open_cached(
    const std::string& logical_path) {
  return store_->open(logical_path);
}

Result<std::vector<uint8_t>> CacheManager::read_through(
    const std::string& logical_path) {
  // Retry if the file is evicted between the ensure and the open
  // (concurrent fetches under capacity pressure evict each other).
  for (int attempt = 0; attempt < 3; ++attempt) {
    HVAC_ASSIGN_OR_RETURN(bool cached, ensure_cached(logical_path));
    if (!cached) break;  // capacity fallback
    auto pin = store_->open_pinned(logical_path);
    if (!pin.ok()) {
      if (pin.error().code == ErrorCode::kNotFound) continue;  // evicted
      return pin.error();
    }
    HVAC_ASSIGN_OR_RETURN(uint64_t sz, pin->size());
    std::vector<uint8_t> data(sz);
    size_t got = 0;
    while (got < data.size()) {
      // pread (not read): the shared pinned handle must not carry a
      // file offset that concurrent readers would race on.
      HVAC_ASSIGN_OR_RETURN(
          size_t n, pin->pread(data.data() + got, data.size() - got, got));
      if (n == 0) break;
      got += n;
    }
    data.resize(got);
    metrics_.add_cache_bytes(data.size());
    return data;
  }
  auto data = pfs_->read_all(logical_path);
  if (data.ok()) metrics_.on_pfs_fallback(data->size());
  return data;
}

Result<size_t> CacheManager::pread_through(const std::string& logical_path,
                                           void* buf, size_t count,
                                           uint64_t offset,
                                           uint64_t seg_index,
                                           uint64_t segment_bytes) {
  const bool segmented = segment_bytes > 0;
  const std::string key =
      segmented ? segment_key(logical_path, seg_index) : logical_path;
  // Under eviction pressure the copy can be evicted between the ensure
  // and the store open (another thread made room for its own fetch) —
  // retry, then read through the PFS.
  for (int attempt = 0; attempt < 3; ++attempt) {
    HVAC_ASSIGN_OR_RETURN(
        bool cached,
        segmented
            ? ensure_segment_cached(logical_path, seg_index, segment_bytes)
            : ensure_cached(logical_path));
    if (!cached) break;  // capacity fallback
    auto pin = store_->open_pinned(key);
    if (!pin.ok()) {
      if (pin.error().code == ErrorCode::kNotFound) continue;  // evicted
      // A sick local store (NVMe I/O error, injected fault) must not
      // fail the read — degrade to the PFS below (§III-H fail-open).
      HVAC_LOG_WARN("local store open failed for " << key
                    << ", serving from PFS: " << pin.error().to_string());
      break;
    }
    auto n = pin->pread(buf, count, offset);
    if (!n.ok()) {
      HVAC_LOG_WARN("local store read failed for " << key
                    << ", serving from PFS: " << n.error().to_string());
      break;
    }
    metrics_.add_cache_bytes(*n);
    return *n;
  }
  const uint64_t pfs_base = segmented ? seg_index * segment_bytes : 0;
  HVAC_ASSIGN_OR_RETURN(storage::PosixFile f, pfs_->open(logical_path));
  HVAC_ASSIGN_OR_RETURN(size_t n,
                        pfs_->pread(f, buf, count, pfs_base + offset));
  metrics_.on_pfs_fallback(n);
  return n;
}

Status CacheManager::evict(const std::string& logical_path) {
  eviction_->on_evict(logical_path);
  HVAC_ASSIGN_OR_RETURN(uint64_t size, store_->evict(logical_path));
  (void)size;
  metrics_.on_eviction();
  return Status::Ok();
}

}  // namespace hvac::core
