#include "core/fd_table.h"

#include <cstring>

namespace hvac::core {

size_t OpenPrefix::copy(uint64_t offset, size_t count, uint8_t* out) {
  if (offset >= size) return 0;
  const size_t n =
      static_cast<size_t>(std::min<uint64_t>(count, size - offset));
  std::memcpy(out, data + offset, n);
  uint64_t seen = read_end.load(std::memory_order_relaxed);
  while (seen < offset + n &&
         !read_end.compare_exchange_weak(seen, offset + n,
                                         std::memory_order_relaxed)) {
  }
  return n;
}

int FdTable::insert(FdEntry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int vfd = next_fd_++;
  entries_.emplace(vfd, std::move(entry));
  return vfd;
}

Result<FdEntry> FdTable::get(int vfd) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(vfd);
  if (it == entries_.end()) {
    return Error(ErrorCode::kBadFd, "unknown virtual fd " +
                                        std::to_string(vfd));
  }
  return it->second;
}

Status FdTable::set_offset(int vfd, uint64_t offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(vfd);
  if (it == entries_.end()) {
    return Error(ErrorCode::kBadFd, "unknown virtual fd " +
                                        std::to_string(vfd));
  }
  it->second.offset = offset;
  return Status::Ok();
}

Result<uint64_t> FdTable::reserve_offset(int vfd, uint64_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(vfd);
  if (it == entries_.end()) {
    return Error(ErrorCode::kBadFd, "unknown virtual fd " +
                                        std::to_string(vfd));
  }
  const uint64_t offset = it->second.offset;
  it->second.offset = offset + count;
  return offset;
}

Status FdTable::rewind_offset(int vfd, uint64_t reserved_end,
                              uint64_t actual_end) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(vfd);
  if (it == entries_.end()) {
    return Error(ErrorCode::kBadFd, "unknown virtual fd " +
                                        std::to_string(vfd));
  }
  if (it->second.offset == reserved_end) {
    it->second.offset = actual_end;
  }
  return Status::Ok();
}

Status FdTable::replace(int vfd, FdEntry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(vfd);
  if (it == entries_.end()) {
    return Error(ErrorCode::kBadFd, "unknown virtual fd " +
                                        std::to_string(vfd));
  }
  it->second = std::move(entry);
  return Status::Ok();
}

Result<FdEntry> FdTable::erase(int vfd) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(vfd);
  if (it == entries_.end()) {
    return Error(ErrorCode::kBadFd, "unknown virtual fd " +
                                        std::to_string(vfd));
  }
  FdEntry entry = std::move(it->second);
  entries_.erase(it);
  return entry;
}

size_t FdTable::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace hvac::core
