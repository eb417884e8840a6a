#include "storage/local_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/env.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/log.h"

namespace hvac::storage {

ContainerSlot::~ContainerSlot() {
  // Free the range once nothing reads it. When this is the
  // container's last holder the whole file is unlinked right after,
  // and a purged container is already gone: no punch needed then.
  if (!container || length == 0 || container.use_count() == 1 ||
      container->unlinked_.load(std::memory_order_relaxed)) {
    return;
  }
  (void)::fallocate(container->file_.fd(),
                    FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                    static_cast<off_t>(base), static_cast<off_t>(length));
}

BatchContainer::~BatchContainer() {
  if (file_.valid() && !unlinked_.load(std::memory_order_relaxed)) {
    (void)remove_file(path_);
  }
}

Result<std::shared_ptr<ContainerSlot>> BatchContainer::reserve(
    uint64_t length) {
  std::call_once(create_once_, [this] {
    auto f = PosixFile::open_rw(path_);
    if (f.ok()) {
      file_ = std::move(f).value();
    } else {
      created_ = f.error();
    }
  });
  HVAC_RETURN_IF_ERROR(created_);
  auto slot = std::make_shared<ContainerSlot>();
  slot->container = shared_from_this();
  slot->base = cursor_.fetch_add(length, std::memory_order_relaxed);
  slot->length = length;
  return slot;
}

Result<uint64_t> StoredFile::size() const {
  if (limit_ != UINT64_MAX) return limit_;
  return file_->size();
}

Result<size_t> StoredFile::pread(void* buf, size_t count,
                                 uint64_t offset) const {
  if (limit_ != UINT64_MAX) {
    if (offset >= limit_) return size_t{0};
    count = static_cast<size_t>(std::min<uint64_t>(count, limit_ - offset));
  }
  return file_->pread(buf, count, base_ + offset);
}

LocalStore::LocalStore(std::string root, uint64_t capacity_bytes,
                       size_t handle_cache_slots)
    : root_(std::move(root)), capacity_(capacity_bytes) {
  if (handle_cache_slots == kHandleCacheFromEnv) {
    const int64_t slots = env_int_or("HVAC_HANDLE_CACHE", 128);
    handle_cache_slots = slots > 0 ? static_cast<size_t>(slots) : 0;
  }
  handles_ = std::make_unique<OpenHandleCache>(handle_cache_slots);
  (void)make_directories(root_);
}

std::string LocalStore::file_path(const std::string& logical_path) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%016" PRIx64,
                stable_hash(logical_path));
  return path_join(root_, std::string(name) + ".hvac");
}

std::string LocalStore::physical_path(const std::string& logical_path) {
  Status moved = move_to_own_file(logical_path);
  if (!moved.ok()) {
    HVAC_LOG_WARN("no standalone copy of " << logical_path << ": "
                                           << moved.error().to_string());
  }
  return file_path(logical_path);
}

std::shared_ptr<BatchContainer> LocalStore::new_container() {
  // Process-wide sequence plus the pid: stores sharing a directory, or
  // a restarted daemon over a stale one, never share a container.
  static std::atomic<uint64_t> sequence{0};
  char name[48];
  std::snprintf(name, sizeof(name), "batch-%d-%" PRIu64 ".hvac",
                static_cast<int>(::getpid()),
                sequence.fetch_add(1, std::memory_order_relaxed));
  return std::make_shared<BatchContainer>(path_join(root_, name));
}

bool LocalStore::contains(const std::string& logical_path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(logical_path) > 0;
}

bool LocalStore::fits(uint64_t grow) const {
  return capacity_ == 0 ||
         bytes_used_.load(std::memory_order_relaxed) + bytes_reserved_ +
                 grow <=
             capacity_;
}

bool LocalStore::reserve(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!fits(bytes)) return false;
  bytes_reserved_ += bytes;
  return true;
}

void LocalStore::release(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  bytes_reserved_ -= std::min(bytes, bytes_reserved_);
}

Status LocalStore::insert(const std::string& logical_path,
                          uint64_t size_bytes, uint64_t reserved) {
  std::lock_guard<std::mutex> lock(mutex_);
  bytes_reserved_ -= std::min(reserved, bytes_reserved_);
  if (!fits(size_bytes)) {
    return Error(ErrorCode::kCapacity,
                 "local store over capacity inserting " + logical_path);
  }
  auto [it, inserted] = entries_.emplace(logical_path, Entry{size_bytes, {}});
  if (!inserted) return Status::Ok();  // already cached; idempotent
  bytes_used_.fetch_add(size_bytes, std::memory_order_relaxed);
  return Status::Ok();
}

Status LocalStore::insert(const std::string& logical_path,
                          const std::shared_ptr<ContainerSlot>& slot,
                          uint64_t reserved) {
  std::lock_guard<std::mutex> lock(mutex_);
  bytes_reserved_ -= std::min(reserved, bytes_reserved_);
  if (!fits(slot->length)) {
    return Error(ErrorCode::kCapacity,
                 "local store over capacity inserting " + logical_path);
  }
  auto [it, inserted] =
      entries_.emplace(logical_path, Entry{slot->length, slot});
  if (!inserted) return Status::Ok();
  bytes_used_.fetch_add(slot->length, std::memory_order_relaxed);
  return Status::Ok();
}

StoredFile LocalStore::slot_view(std::shared_ptr<ContainerSlot> slot) {
  StoredFile view;
  view.base_ = slot->base;
  view.limit_ = slot->length;
  PosixFile* file = &slot->container->file_;
  view.file_ = std::shared_ptr<const PosixFile>(std::move(slot), file);
  return view;
}

Result<std::shared_ptr<ContainerSlot>> LocalStore::find_slot(
    const std::string& logical_path) const {
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kStoreRead));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(logical_path);
  if (it == entries_.end()) {
    return Error(ErrorCode::kNotFound, "not cached: " + logical_path);
  }
  return it->second.slot;
}

Result<StoredFile> LocalStore::open(const std::string& logical_path) const {
  HVAC_ASSIGN_OR_RETURN(std::shared_ptr<ContainerSlot> slot,
                        find_slot(logical_path));
  if (slot) return slot_view(std::move(slot));
  HVAC_ASSIGN_OR_RETURN(PosixFile f,
                        PosixFile::open_read(file_path(logical_path)));
  StoredFile view;
  view.file_ = std::make_shared<PosixFile>(std::move(f));
  return view;
}

Result<StoredFile> LocalStore::open_pinned(
    const std::string& logical_path) const {
  HVAC_ASSIGN_OR_RETURN(std::shared_ptr<ContainerSlot> slot,
                        find_slot(logical_path));
  if (slot) return slot_view(std::move(slot));
  HVAC_ASSIGN_OR_RETURN(
      OpenHandleCache::Pin pinned,
      handles_->acquire(logical_path, file_path(logical_path)));
  auto pin = std::make_shared<OpenHandleCache::Pin>(std::move(pinned));
  StoredFile view;
  view.file_ = std::shared_ptr<const PosixFile>(pin, &pin->file());
  return view;
}

Status LocalStore::move_to_own_file(const std::string& logical_path) {
  std::lock_guard<std::mutex> move_lock(move_mutex_);
  std::shared_ptr<ContainerSlot> slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(logical_path);
    if (it == entries_.end() || !it->second.slot) return Status::Ok();
    slot = it->second.slot;
  }
  const std::string dst = file_path(logical_path);
  {
    HVAC_ASSIGN_OR_RETURN(PosixFile out, PosixFile::create_write(dst));
    HVAC_ASSIGN_OR_RETURN(
        uint64_t copied,
        copy_range(slot->container->file(), slot->base, slot->length, out,
                   0));
    if (copied != slot->length) {
      (void)remove_file(dst);
      return Error(ErrorCode::kIoError,
                   "short container copy for " + logical_path);
    }
    HVAC_RETURN_IF_ERROR(out.close());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(logical_path);
  if (it == entries_.end() || it->second.slot != slot) {
    // Evicted while we copied: the copy belongs to no entry.
    (void)remove_file(dst);
    return Status::Ok();
  }
  it->second.slot.reset();
  return Status::Ok();
}

Result<PosixFile> LocalStore::open_write(const std::string& logical_path) {
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kStoreWrite));
  HVAC_RETURN_IF_ERROR(move_to_own_file(logical_path));
  return PosixFile::open_rw(file_path(logical_path));
}

Status LocalStore::update_size(const std::string& logical_path,
                               uint64_t new_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(logical_path);
  const uint64_t old_size = it == entries_.end() ? 0 : it->second.size;
  if (new_size > old_size) {
    const uint64_t grow = new_size - old_size;
    if (!fits(grow)) {
      return Error(ErrorCode::kCapacity,
                   "local store over capacity growing " + logical_path);
    }
    bytes_used_.fetch_add(grow, std::memory_order_relaxed);
  } else {
    bytes_used_.fetch_sub(old_size - new_size, std::memory_order_relaxed);
  }
  entries_[logical_path].size = new_size;
  return Status::Ok();
}

Result<uint64_t> LocalStore::evict(const std::string& logical_path) {
  uint64_t size = 0;
  std::shared_ptr<ContainerSlot> slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(logical_path);
    if (it == entries_.end()) {
      return Error(ErrorCode::kNotFound, "not cached: " + logical_path);
    }
    size = it->second.size;
    slot = std::move(it->second.slot);
    entries_.erase(it);
    bytes_used_.fetch_sub(size, std::memory_order_relaxed);
  }
  // A container sample frees its range when `slot` drops below (or
  // when its last in-flight reader lets go).
  if (slot) return size;
  // Drop the cached handle before unlinking: in-flight pinned reads
  // keep their fd (unlink doesn't invalidate it), future opens miss.
  handles_->invalidate(logical_path);
  HVAC_RETURN_IF_ERROR(remove_file(file_path(logical_path)));
  return size;
}

void LocalStore::purge() {
  std::vector<std::shared_ptr<ContainerSlot>> slots;
  std::lock_guard<std::mutex> lock(mutex_);
  handles_->clear();
  for (auto& [logical, entry] : entries_) {
    if (!entry.slot) {
      (void)remove_file(file_path(logical));
      continue;
    }
    BatchContainer& c = *entry.slot->container;
    if (!c.unlinked_.exchange(true, std::memory_order_relaxed)) {
      (void)remove_file(c.path_);
    }
    slots.push_back(std::move(entry.slot));
  }
  entries_.clear();
  bytes_used_.store(0, std::memory_order_relaxed);
}

size_t LocalStore::entry_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<std::string> LocalStore::logical_paths() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [logical, entry] : entries_) out.push_back(logical);
  return out;
}

}  // namespace hvac::storage
