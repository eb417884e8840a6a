#include "storage/write_journal.h"

#include <array>
#include <cstring>
#include <unordered_set>

#include "common/fault_injection.h"

namespace hvac::storage {

namespace {

// A record body is [u8 type][u64 seq] plus at most a path, an offset,
// a length prefix and one client-chunked data blob (<= 4 MiB on the
// wire). Anything claiming to be bigger is corruption, not data —
// replay treats it like a CRC failure and truncates.
constexpr uint32_t kMaxBody = (8u << 20);
constexpr size_t kFrameHeader = 8;  // u32 len + u32 crc

void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  const size_t at = out.size();
  out.resize(at + 4);
  std::memcpy(out.data() + at, &v, 4);
}

void put_u64(std::vector<uint8_t>& out, uint64_t v) {
  const size_t at = out.size();
  out.resize(at + 8);
  std::memcpy(out.data() + at, &v, 8);
}

void put_string(std::vector<uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// Bounds-checked little-endian cursor over a replayed body. Any
// overrun flags `bad` — the caller treats the record as corrupt.
struct Cursor {
  const uint8_t* p;
  size_t left;
  bool bad = false;

  uint8_t u8() {
    if (left < 1) { bad = true; return 0; }
    const uint8_t v = *p;
    ++p; --left;
    return v;
  }
  uint32_t u32() {
    if (left < 4) { bad = true; return 0; }
    uint32_t v;
    std::memcpy(&v, p, 4);
    p += 4; left -= 4;
    return v;
  }
  uint64_t u64() {
    if (left < 8) { bad = true; return 0; }
    uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8; left -= 8;
    return v;
  }
  std::string str() {
    const uint32_t n = u32();
    if (bad || left < n) { bad = true; return {}; }
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n; left -= n;
    return s;
  }
};

}  // namespace

uint32_t crc32(const void* data, size_t size) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

WriteJournal::WriteJournal(std::string path, PosixFile file, uint64_t end)
    : path_(std::move(path)), file_(std::move(file)), end_(end) {}

Result<std::unique_ptr<WriteJournal>> WriteJournal::open(
    const std::string& path) {
  HVAC_ASSIGN_OR_RETURN(PosixFile f, PosixFile::open_rw(path));
  HVAC_ASSIGN_OR_RETURN(uint64_t end, f.size());
  return std::unique_ptr<WriteJournal>(
      new WriteJournal(path, std::move(f), end));
}

Status WriteJournal::append_record(JournalRecordType type,
                                   const std::vector<uint8_t>& body_tail) {
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kJournalAppend));
  std::vector<uint8_t> frame;
  frame.reserve(kFrameHeader + 9 + body_tail.size());
  frame.resize(kFrameHeader);  // patched below
  frame.push_back(static_cast<uint8_t>(type));
  put_u64(frame, seq_);
  frame.insert(frame.end(), body_tail.begin(), body_tail.end());
  const uint32_t len = static_cast<uint32_t>(frame.size() - kFrameHeader);
  const uint32_t crc = crc32(frame.data() + kFrameHeader, len);
  std::memcpy(frame.data(), &len, 4);
  std::memcpy(frame.data() + 4, &crc, 4);
  HVAC_ASSIGN_OR_RETURN(size_t n,
                        file_.pwrite(frame.data(), frame.size(), end_));
  end_ += n;
  ++seq_;
  ++records_;
  uncommitted_ = true;
  return Status::Ok();
}

Status WriteJournal::append_write(const std::string& logical_path,
                                  uint64_t offset, const void* data,
                                  size_t size) {
  std::vector<uint8_t> tail;
  tail.reserve(4 + logical_path.size() + 8 + 4 + size);
  put_string(tail, logical_path);
  put_u64(tail, offset);
  put_u32(tail, static_cast<uint32_t>(size));
  const auto* p = static_cast<const uint8_t*>(data);
  tail.insert(tail.end(), p, p + size);
  std::lock_guard<std::mutex> lock(mutex_);
  return append_record(JournalRecordType::kWrite, tail);
}

Status WriteJournal::append_flushed(const std::string& logical_path) {
  std::vector<uint8_t> tail;
  put_string(tail, logical_path);
  std::lock_guard<std::mutex> lock(mutex_);
  return append_record(JournalRecordType::kFlushed, tail);
}

Status WriteJournal::append_truncate(const std::string& logical_path) {
  std::vector<uint8_t> tail;
  put_string(tail, logical_path);
  std::lock_guard<std::mutex> lock(mutex_);
  return append_record(JournalRecordType::kTruncate, tail);
}

Status WriteJournal::commit() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Nothing appended since the last barrier: nothing to make durable.
  // (A commit racing a checkpoint reset would otherwise leave a lone
  // marker in the emptied log.)
  if (!uncommitted_) return Status::Ok();
  // A failure below leaves the records uncommitted, so the next commit
  // retries the barrier.
  HVAC_RETURN_IF_ERROR(append_record(JournalRecordType::kCommit, {}));
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kJournalFsync));
  HVAC_RETURN_IF_ERROR(file_.datasync());
  uncommitted_ = false;
  return Status::Ok();
}

Result<JournalReplayStats> WriteJournal::replay(const ApplyFn& apply,
                                                const TruncateFn& truncate) {
  std::lock_guard<std::mutex> lock(mutex_);
  JournalReplayStats stats;

  // Snapshot the log. Reading it whole is fine: the journal is
  // checkpoint-reset whenever all dirty paths drain, so its size is
  // bounded by one burst of unflushed writes.
  std::vector<uint8_t> log;
  log.resize(end_);
  size_t got = 0;
  while (got < log.size()) {
    HVAC_ASSIGN_OR_RETURN(
        size_t n, file_.pread(log.data() + got, log.size() - got, got));
    if (n == 0) break;  // file shorter than expected: treat as torn
    got += n;
  }
  log.resize(got);

  // Last-writer-wins per path: a kWrite marks it dirty, a kFlushed
  // with a later seq clears it.
  std::unordered_set<std::string> dirty;
  uint64_t max_seq = 0;

  size_t pos = 0;
  size_t valid_end = 0;
  while (log.size() - pos >= kFrameHeader) {
    uint32_t len = 0;
    uint32_t crc = 0;
    std::memcpy(&len, log.data() + pos, 4);
    std::memcpy(&crc, log.data() + pos + 4, 4);
    if (len > kMaxBody || log.size() - pos - kFrameHeader < len) {
      break;  // torn tail (or garbage length)
    }
    const uint8_t* body = log.data() + pos + kFrameHeader;
    if (crc32(body, len) != crc) break;  // bit rot / torn overwrite

    Cursor c{body, len};
    const auto type = static_cast<JournalRecordType>(c.u8());
    const uint64_t seq = c.u64();
    bool parsed = true;
    switch (type) {
      case JournalRecordType::kWrite: {
        const std::string path = c.str();
        const uint64_t offset = c.u64();
        const uint32_t data_len = c.u32();
        if (c.bad || c.left < data_len) {
          parsed = false;
          break;
        }
        HVAC_RETURN_IF_ERROR(apply(path, offset, c.p, data_len));
        ++stats.writes_applied;
        stats.bytes_applied += data_len;
        dirty.insert(path);
        break;
      }
      case JournalRecordType::kCommit:
        parsed = !c.bad;
        if (parsed) ++stats.commits_seen;
        break;
      case JournalRecordType::kFlushed: {
        const std::string path = c.str();
        parsed = !c.bad;
        if (parsed) {
          ++stats.flushes_seen;
          dirty.erase(path);
        }
        break;
      }
      case JournalRecordType::kTruncate: {
        const std::string path = c.str();
        parsed = !c.bad;
        if (parsed) {
          ++stats.truncates_seen;
          if (truncate) {
            HVAC_RETURN_IF_ERROR(truncate(path));
            // Still dirty: the truncation itself must reach the PFS.
            dirty.insert(path);
          }
        }
        break;
      }
      default:
        parsed = false;
        break;
    }
    if (!parsed) break;  // framed correctly but body is garbage
    max_seq = seq + 1 > max_seq ? seq + 1 : max_seq;
    pos += kFrameHeader + len;
    valid_end = pos;
  }

  stats.truncated_bytes = end_ - valid_end;
  if (stats.truncated_bytes > 0) {
    HVAC_RETURN_IF_ERROR(file_.truncate(valid_end));
    HVAC_RETURN_IF_ERROR(file_.datasync());
    end_ = valid_end;
  }
  seq_ = max_seq;
  records_ = stats.writes_applied + stats.commits_seen +
             stats.flushes_seen + stats.truncates_seen;
  uncommitted_ = false;
  stats.dirty_paths.assign(dirty.begin(), dirty.end());
  return stats;
}

Status WriteJournal::checkpoint_reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  HVAC_RETURN_IF_ERROR(file_.truncate(0));
  HVAC_RETURN_IF_ERROR(file_.datasync());
  end_ = 0;
  records_ = 0;
  uncommitted_ = false;
  return Status::Ok();
}

uint64_t WriteJournal::size_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return end_;
}

uint64_t WriteJournal::record_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

uint64_t WriteJournal::next_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return seq_;
}

}  // namespace hvac::storage
