// pb_loader — the benchmark's trainer. It links no HVAC code and does
// plain libc open/read/close, so with libhvac_intercept.so preloaded it
// reads through HVAC exactly as an unmodified training script does, and
// without it it reads the node-local copy.
//
//   pb_loader --manifest M --root DIR --out FILE
//             [--order FILE] [--spans FILE]
//             [--ckpt PATH --ckpt-tag T]
//             [--ladder FILE --ladder-warm FILE]
//
// --order runs one epoch over those manifest indices (pipeline.h).
// --ckpt saves kSaves checkpoints of kCkptBytes, one after another:
// save = open(O_WRONLY|O_CREAT|O_TRUNC) -> kWriteBytes writes -> fsync
// -> close, then wait until the flushed file is on the PFS with the
// right bytes. Save n carries tag T+n; tags must not repeat within a
// dataset dir. --ladder times rung 4 of the latency ladder: open, read
// to EOF and close of each listed sample, one thread, after an untimed
// pass over the --ladder-warm samples.
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "pipeline.h"

namespace {

using namespace perfbench;

constexpr size_t kCkptBytes = 16u << 20;
constexpr size_t kWriteBytes = 4u << 20;  // per write() call
constexpr int kSaves = 2;
constexpr auto kSavePause = std::chrono::milliseconds(20);

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> a;
  for (int i = 1; i + 1 < argc; i += 2) a[argv[i]] = argv[i + 1];
  return a;
}

std::string arg(const std::map<std::string, std::string>& a,
                const std::string& key, const std::string& fallback = "") {
  auto it = a.find(key);
  return it == a.end() ? fallback : it->second;
}

uint64_t arg_u64(const std::map<std::string, std::string>& a,
                 const std::string& key, uint64_t fallback) {
  auto it = a.find(key);
  return it == a.end() ? fallback : std::strtoull(it->second.c_str(), nullptr, 10);
}

// One sample through libc: open, read to EOF, close. Each call is a
// span when tracing (rung 4: these are the calls the shim intercepts).
ReadOutcome libc_read(const std::string& root, const Sample& s, uint8_t* buf,
                      size_t cap, SpanLog* log, uint64_t parent_slot) {
  const std::string path = root + "/" + s.path;
  const uint64_t parent = log ? log->id_of(parent_slot) : 0;
  const uint64_t sample = log ? log->spans[parent_slot].sample : 0;
  uint64_t t = now_ns();
  uint64_t slot = log ? log->open("intercept.open", parent, sample, t) : 0;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (log) log->close(slot, now_ns());
  if (fd < 0) return {};
  ReadOutcome out;
  out.ok = true;
  t = now_ns();
  slot = log ? log->open("intercept.read", parent, sample, t) : 0;
  for (;;) {
    const ssize_t n = ::read(fd, buf + out.size, cap - out.size);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      out.ok = false;
      break;
    }
    if (n == 0 || out.size + size_t(n) >= cap) {
      out.size += size_t(n);
      break;
    }
    out.size += size_t(n);
  }
  if (log) log->close(slot, now_ns());
  t = now_ns();
  slot = log ? log->open("intercept.close", parent, sample, t) : 0;
  if (::close(fd) != 0) out.ok = false;
  if (log) log->close(slot, now_ns());
  return out;
}

// ---- checkpoints ----------------------------------------------------------

struct SaveRecord {
  double save_ms = 0;
  double lag_ms = 0;
  uint64_t bytes = 0;
  bool ok = false;
};

// PFS-side checks go around the shim with raw syscalls: an O_RDONLY
// open under the dataset dir would otherwise be served by HVAC itself.
struct RawFile {
  int fd = -1;
  explicit RawFile(const std::string& path)
      : fd(int(::syscall(SYS_openat, AT_FDCWD, path.c_str(), O_RDONLY))) {}
  ~RawFile() {
    if (fd >= 0) ::syscall(SYS_close, fd);
  }
};

// True once `path` on the PFS holds exactly `want`. Every save starts
// with its own 8-byte tag, so the previous save's file is told apart
// by one small read; the whole file is hashed only once the tag
// matches.
bool raw_matches(const std::string& path, const std::vector<uint8_t>& want,
                 std::vector<uint8_t>& tmp) {
  RawFile f(path);
  uint64_t tag = 0;
  if (f.fd < 0 || ::syscall(SYS_pread64, f.fd, &tag, 8, 0L) != 8 ||
      std::memcmp(&tag, want.data(), 8) != 0) {
    return false;
  }
  size_t got = 0;
  for (;;) {
    const long n = ::syscall(SYS_pread64, f.fd, tmp.data() + got,
                             tmp.size() - got, long(got));
    if (n < 0) return false;
    if (n == 0 || (got += size_t(n)) == tmp.size()) break;
  }
  return got == want.size() &&
         hash_bytes(tmp.data(), got) == hash_bytes(want.data(), want.size());
}

// `path` is under the dataset dir, which is the PFS root: the shim
// routes the write, and the flusher lands the file at the same path.
SaveRecord save_checkpoint(const std::string& path,
                           const std::vector<uint8_t>& data,
                           std::vector<uint8_t>& tmp) {
  SaveRecord r;
  r.bytes = data.size();
  const uint64_t t0 = now_ns();
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return r;
  bool ok = true;
  for (size_t off = 0; ok && off < data.size();) {
    const size_t want = std::min(kWriteBytes, data.size() - off);
    const ssize_t n = ::write(fd, data.data() + off, want);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) ok = false;
    else off += size_t(n);
  }
  ok = ok && ::fsync(fd) == 0;
  const uint64_t acked = now_ns();
  ok = ::close(fd) == 0 && ok;
  r.save_ms = double(now_ns() - t0) / 1e6;
  if (!ok) return r;
  // Flush lag: poll the PFS until the byte-checked file is there.
  const uint64_t deadline = acked + 10000000000ull;
  while (now_ns() < deadline) {
    if (raw_matches(path, data, tmp)) {
      r.lag_ms = double(now_ns() - acked) / 1e6;
      r.ok = true;
      return r;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return r;
}

// Checkpoint contents for save `tag`: the tag, then a SplitMix64
// stream seeded by it.
std::vector<uint8_t> checkpoint_bytes(size_t size, uint64_t tag) {
  std::vector<uint8_t> data(size);
  std::memcpy(data.data(), &tag, 8);
  uint64_t x = tag * 0x9E3779B97F4A7C15ull + 1;
  for (size_t i = 8; i + 8 <= size; i += 8) {
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    std::memcpy(data.data() + i, &z, 8);
  }
  return data;
}

std::string saves_json(const std::vector<SaveRecord>& saves) {
  std::vector<double> save_ms, lag_ms, bytes, ok;
  for (const SaveRecord& s : saves) {
    save_ms.push_back(s.save_ms);
    lag_ms.push_back(s.lag_ms);
    bytes.push_back(double(s.bytes));
    ok.push_back(s.ok ? 1 : 0);
  }
  Json j;
  j.list("save_ms", save_ms).list("lag_ms", lag_ms).list("bytes", bytes)
      .list("ok", ok);
  return j.done();
}

// ---- rung 4 ---------------------------------------------------------------

// One untimed pass over the `warm` samples (dials the server, faults
// the code in), then one timed pass over `idx`. Each sample is opened
// once, so the client metadata cache never answers an open.
std::string ladder_json(const std::string& root,
                        const std::vector<Sample>& manifest,
                        const std::vector<uint32_t>& warm,
                        const std::vector<uint32_t>& idx) {
  size_t cap = 1;
  for (uint32_t i : idx) cap = std::max<size_t>(cap, manifest[i].size + 1);
  for (uint32_t i : warm) cap = std::max<size_t>(cap, manifest[i].size + 1);
  std::vector<uint8_t> buf(cap);
  std::vector<double> open_us, read_us, close_us, total_us;
  uint64_t failed = 0;
  std::vector<uint32_t> all = warm;
  all.insert(all.end(), idx.begin(), idx.end());
  for (size_t k = 0; k < all.size(); ++k) {
    const Sample& s = manifest[all[k]];
    SpanLog log;
    const uint64_t slot = log.open("sample", 0, all[k], now_ns());
    const ReadOutcome out = libc_read(root, s, buf.data(), cap, &log, slot);
    log.close(slot, now_ns());
    if (!out.ok || out.size != s.size ||
        hash_bytes(buf.data(), out.size) != s.hash) {
      ++failed;
    }
    if (k < warm.size() || log.spans.size() != 4) continue;
    const auto us = [&](size_t i) {
      return double(log.spans[i].end_ns - log.spans[i].start_ns) / 1e3;
    };
    total_us.push_back(us(0));
    open_us.push_back(us(1));
    read_us.push_back(us(2));
    close_us.push_back(us(3));
  }
  Json j;
  j.list("open_us", open_us).list("read_us", read_us)
      .list("close_us", close_us).list("total_us", total_us)
      .num("failed", double(failed));
  return j.done();
}

}  // namespace

int main(int argc, char** argv) {
  const auto a = parse_args(argc, argv);
  const std::string root = arg(a, "--root");
  const std::string out_file = arg(a, "--out");
  if (root.empty() || out_file.empty() || arg(a, "--manifest").empty()) {
    std::fprintf(stderr, "pb_loader: --manifest, --root and --out are required\n");
    return 2;
  }
  const std::vector<Sample> manifest = read_manifest(arg(a, "--manifest"));
  Json out;

  if (!arg(a, "--ladder").empty()) {
    out.raw("ladder", ladder_json(root, manifest,
                                  read_indices(arg(a, "--ladder-warm")),
                                  read_indices(arg(a, "--ladder"))));
  }

  if (!arg(a, "--order").empty()) {
    const bool trace = !arg(a, "--spans").empty();
    const EpochResult r = run_epoch(
        manifest, read_indices(arg(a, "--order")), trace,
        [&](const Sample& s, uint8_t* buf, size_t cap, SpanLog* log,
            uint64_t slot) { return libc_read(root, s, buf, cap, log, slot); });
    out.raw("epoch", epoch_json(r));
    if (trace) write_spans(arg(a, "--spans"), r.spans);
  }

  const std::string ckpt_path = arg(a, "--ckpt");
  if (!ckpt_path.empty()) {
    const uint64_t tag = arg_u64(a, "--ckpt-tag", 1);
    std::vector<SaveRecord> saves;
    std::vector<uint8_t> tmp(kCkptBytes + 1);
    for (int n = 0; n < kSaves; ++n) {
      if (n) std::this_thread::sleep_for(kSavePause);
      saves.push_back(save_checkpoint(
          ckpt_path, checkpoint_bytes(kCkptBytes, tag + n), tmp));
    }
    out.raw("ckpt", saves_json(saves));
  }
  out.num("rss_mib", peak_rss_mib());
  return write_text(out_file, out.done()) ? 0 : 1;
}
