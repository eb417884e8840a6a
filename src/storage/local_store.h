// Node-local cache store: the XFS-on-NVMe directory an HVAC server
// owns. An entry lives in one of two places:
//   * its own file, named by the stable hash of its logical (PFS) path
//     — the cache never needs to reproduce the dataset's directory
//     tree, and lookup is O(1) with no directory walking. Demand
//     misses, large files, segments and the write path land here;
//   * a range of a batch container: one local file per prefetch batch
//     that holds the batch's small samples back to back, so warming N
//     samples creates one inode instead of N (DESIGN.md §13).
// Capacity is tracked in bytes so eviction can keep the store under
// the NVMe budget.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/open_handle_cache.h"
#include "storage/posix_file.h"

namespace hvac::storage {

class BatchContainer;

// One sample's range [base, base + length) inside a batch container.
// The store entry holds it, and so does every reader that resolved the
// entry; when the last holder lets go the range is punched out of the
// file, and the container is unlinked once its last range is gone.
struct ContainerSlot {
  ContainerSlot() = default;
  ~ContainerSlot();
  ContainerSlot(const ContainerSlot&) = delete;
  ContainerSlot& operator=(const ContainerSlot&) = delete;

  std::shared_ptr<BatchContainer> container;
  uint64_t base = 0;
  uint64_t length = 0;
};

// A batch container file, created lazily by the first sample that
// reserves a range in it. Ranges are handed out by an atomic cursor,
// so every mover appends to the same container concurrently.
class BatchContainer : public std::enable_shared_from_this<BatchContainer> {
 public:
  // Largest sample a container takes; bigger files keep their own copy.
  static constexpr uint64_t kMaxSampleBytes = 1u << 20;

  explicit BatchContainer(std::string path) : path_(std::move(path)) {}
  ~BatchContainer();

  BatchContainer(const BatchContainer&) = delete;
  BatchContainer& operator=(const BatchContainer&) = delete;

  // Reserves `length` bytes at the end of the container (creating the
  // file on first use). The caller writes the sample through file()
  // at the slot's base, then publishes it with LocalStore::insert.
  Result<std::shared_ptr<ContainerSlot>> reserve(uint64_t length);

  PosixFile& file() { return file_; }

 private:
  friend class LocalStore;
  friend struct ContainerSlot;

  const std::string path_;
  std::once_flag create_once_;
  Status created_;
  PosixFile file_;
  std::atomic<uint64_t> cursor_{0};
  // Set by LocalStore::purge, which unlinks the file itself: the ranges
  // dropped afterwards skip their hole punch.
  std::atomic<bool> unlinked_{false};
};

// An open view of one resident entry: a whole per-file copy, or a
// container sample's range. Reads and size() are relative to the
// entry. Holding it keeps the fd open (and a container range
// allocated) across a concurrent evict.
class StoredFile {
 public:
  StoredFile() = default;

  const PosixFile& file() const { return *file_; }
  // Offset of the entry's first byte in file().
  uint64_t base() const { return base_; }
  // The entry's length: the range for a container sample, else the
  // file's current size.
  Result<uint64_t> size() const;
  // Positional read relative to the entry, clamped to its range.
  Result<size_t> pread(void* buf, size_t count, uint64_t offset) const;
  // Shared ownership of whatever keeps file() open.
  std::shared_ptr<const void> owner() const { return file_; }

 private:
  friend class LocalStore;
  std::shared_ptr<const PosixFile> file_;
  uint64_t base_ = 0;
  uint64_t limit_ = UINT64_MAX;  // range length; UINT64_MAX: whole file
};

class LocalStore {
 public:
  // Sentinel: size the open-handle cache from HVAC_HANDLE_CACHE
  // (default 128 handles; 0 disables it — the seed's
  // open-per-read behaviour).
  static constexpr size_t kHandleCacheFromEnv = static_cast<size_t>(-1);

  // `root` is created if missing. `capacity_bytes` of 0 means
  // unlimited (the paper's common case: datasets fit in aggregate
  // NVMe).
  LocalStore(std::string root, uint64_t capacity_bytes = 0,
             size_t handle_cache_slots = kHandleCacheFromEnv);

  // Path of the standalone file holding `logical_path`'s bytes from
  // offset 0 (where a per-file copy is, or would be, cached). An entry
  // that lives in a batch container is first moved to its own file.
  std::string physical_path(const std::string& logical_path);

  bool contains(const std::string& logical_path) const;

  // Sets `bytes` of the budget aside for a fill in flight: false when
  // used plus reserved bytes leave no room for them. The fill hands the
  // reservation to insert(), or gives it back with release().
  bool reserve(uint64_t bytes);
  void release(uint64_t bytes);

  // Registers a file that was just copied in via physical_path(),
  // giving back `reserved` bytes of a reserve() first (so a fill that
  // reserved its size always fits). Returns kCapacity when the store
  // is over budget.
  Status insert(const std::string& logical_path, uint64_t size_bytes,
                uint64_t reserved = 0);

  // Registers a sample just written into a batch container range.
  // Reservation and kCapacity as above; on kCapacity the caller drops
  // the slot, freeing the range.
  Status insert(const std::string& logical_path,
                const std::shared_ptr<ContainerSlot>& slot,
                uint64_t reserved = 0);

  // A new, still empty, batch container in this store's directory.
  std::shared_ptr<BatchContainer> new_container();

  // Opens a cached entry for reading: a fresh open of a per-file copy,
  // or a shared view of the container that holds it.
  Result<StoredFile> open(const std::string& logical_path) const;

  // Write path: opens (creating if absent, never truncating) the
  // entry's own file for read/write, moving a container-resident entry
  // to its own file first so the old bytes carry over. Does not
  // register a new entry — callers account the bytes with
  // update_size() once they land. Fault site: store_write.
  Result<PosixFile> open_write(const std::string& logical_path);

  // Records that `logical_path` now occupies `new_size` bytes (a
  // checkpoint write extended or truncated it), inserting the entry
  // if new. kCapacity when the growth would blow the NVMe budget
  // (bytes reserved by fills in flight count as used) —
  // the write path sheds to write-through PFS mode on that.
  Status update_size(const std::string& logical_path, uint64_t new_size);

  // Hot-path open: a per-file copy reads through the pinned
  // open-handle cache, so the steady-state hit path costs one pread
  // instead of an open/pread/close triple; a container sample shares
  // the container's fd. Either way the result keeps its fd alive
  // across a concurrent evict().
  Result<StoredFile> open_pinned(const std::string& logical_path) const;

  // Removes one cached entry; returns its size, or kNotFound.
  Result<uint64_t> evict(const std::string& logical_path);

  // Removes everything (job teardown: "cache lifetime == job
  // lifetime", paper §III-D): one unlink per per-file copy and per
  // container.
  void purge();

  uint64_t bytes_used() const {
    return bytes_used_.load(std::memory_order_relaxed);
  }
  uint64_t capacity_bytes() const { return capacity_; }
  size_t entry_count() const;

  // Snapshot of cached logical paths (eviction policies sample this).
  std::vector<std::string> logical_paths() const;

  const std::string& root() const { return root_; }

  OpenHandleCache& handle_cache() const { return *handles_; }

 private:
  struct Entry {
    uint64_t size = 0;
    std::shared_ptr<ContainerSlot> slot;  // null: a per-file copy
  };

  // True when `grow` more bytes fit beside the used and reserved ones
  // (caller holds mutex_).
  bool fits(uint64_t grow) const;
  // Where a per-file copy of `logical_path` lives.
  std::string file_path(const std::string& logical_path) const;
  // The entry's container slot (null for a per-file copy), or
  // kNotFound. Fault site: store_read.
  Result<std::shared_ptr<ContainerSlot>> find_slot(
      const std::string& logical_path) const;
  // Copies a container-resident entry into its own file and repoints
  // the entry there; a no-op for per-file or absent entries.
  Status move_to_own_file(const std::string& logical_path);
  static StoredFile slot_view(std::shared_ptr<ContainerSlot> slot);

  std::string root_;
  uint64_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::atomic<uint64_t> bytes_used_{0};
  uint64_t bytes_reserved_ = 0;  // guarded by mutex_
  std::atomic<uint64_t> next_container_{0};
  // Serializes move_to_own_file (rare: write-opens of prefetched
  // samples) so two movers never copy the same entry at once.
  std::mutex move_mutex_;
  // Mutable: reads are logically const but touch the LRU/pin state.
  mutable std::unique_ptr<OpenHandleCache> handles_;
};

}  // namespace hvac::storage
