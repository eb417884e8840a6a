// The training input pipeline the benchmark models: two reader threads
// (DataLoader workers as threads) fetch whole samples in the epoch's
// order into a bounded pool of buffers, and one trainer thread takes
// them in batches and checks every sample's bytes against the
// manifest. Closed loop: a reader only starts a sample when a buffer is
// free, so a slow trainer slows the readers and a slow read stalls the
// trainer.
//
// Header-only and libc-only; the read function is a template argument
// so the loader (libc calls under the shim) and the probe (PfsBackend)
// run the same loop.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

namespace perfbench {

constexpr int kReaders = 2;
constexpr size_t kBatch = 32;
// Bytes per sample buffer, well above the largest generated sample. A
// fixed size keeps the loader's footprint independent of the seed; a
// sample that does not fit reads short and fails the byte check.
constexpr size_t kBufferBytes = 512 * 1024;

// One recorded span: name, [start, end), the span that caused it (0 =
// none) and the sample it belongs to.
struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t sample;
  uint64_t start_ns;
  uint64_t end_ns;
};

// Per-thread span buffer, merged at the end of the epoch.
struct SpanLog {
  std::vector<Span> spans;
  uint64_t next_id = 1;
  uint64_t tag = 0;  // high bits that keep ids unique across threads

  uint64_t open(const char* name, uint64_t parent, uint64_t sample,
                uint64_t start) {
    const uint64_t id = (tag << 48) | next_id++;
    spans.push_back(Span{name, id, parent, sample, start, 0});
    return spans.size() - 1;
  }
  void close(uint64_t slot, uint64_t end) { spans[slot].end_ns = end; }
  uint64_t id_of(uint64_t slot) const { return spans[slot].id; }
};

struct EpochResult {
  double wall_s = 0;
  uint64_t samples = 0;
  uint64_t bytes = 0;
  uint64_t failed = 0;   // errors + short reads + wrong bytes
  std::vector<std::string> failures;  // first few, for the log
  std::vector<double> read_us;        // per sample, open -> close
  std::vector<Span> spans;
};

// What a read function reports for one sample.
struct ReadOutcome {
  size_t size = 0;
  bool ok = false;
};

// ReadFn: ReadOutcome(const Sample&, uint8_t* buf, size_t cap,
//                     SpanLog* log, uint64_t parent_slot)
template <typename ReadFn>
EpochResult run_epoch(const std::vector<Sample>& manifest,
                      const std::vector<uint32_t>& order,
                      bool trace, ReadFn read_fn) {
  struct Item {
    uint32_t idx;
    size_t buf;
    ReadOutcome out;
  };
  const size_t cap = kBufferBytes;
  const size_t nbufs = 2 * kBatch + kReaders;
  std::vector<std::vector<uint8_t>> bufs(nbufs, std::vector<uint8_t>(cap));

  std::mutex mu;
  std::condition_variable cv_free, cv_ready;
  std::vector<size_t> free_bufs;
  for (size_t i = 0; i < nbufs; ++i) free_bufs.push_back(i);
  std::deque<Item> ready;
  std::atomic<size_t> cursor{0};

  EpochResult res;
  std::vector<std::vector<double>> lat(kReaders);
  std::vector<SpanLog> logs(kReaders + 1);
  for (size_t t = 0; t < logs.size(); ++t) logs[t].tag = t + 1;

  const uint64_t t0 = now_ns();
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (;;) {
        const size_t k = cursor.fetch_add(1);
        if (k >= order.size()) return;
        size_t b;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv_free.wait(lock, [&] { return !free_bufs.empty(); });
          b = free_bufs.back();
          free_bufs.pop_back();
        }
        const Sample& s = manifest[order[k]];
        const uint64_t start = now_ns();
        uint64_t slot = 0;
        if (trace) slot = logs[t].open("sample", 0, order[k], start);
        const ReadOutcome out = read_fn(s, bufs[b].data(), cap,
                                        trace ? &logs[t] : nullptr, slot);
        const uint64_t end = now_ns();
        if (trace) logs[t].close(slot, end);
        lat[t].push_back(double(end - start) / 1e3);
        {
          std::lock_guard<std::mutex> lock(mu);
          ready.push_back(Item{order[k], b, out});
        }
        cv_ready.notify_one();
      }
    });
  }

  // Trainer: consume in batches, check bytes.
  SpanLog& tlog = logs[kReaders];
  for (size_t done = 0; done < order.size();) {
    const size_t n = std::min(kBatch, order.size() - done);
    for (size_t j = 0; j < n; ++j) {
      Item it;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv_ready.wait(lock, [&] { return !ready.empty(); });
        it = ready.front();
        ready.pop_front();
      }
      const uint64_t w1 = now_ns();
      const Sample& s = manifest[it.idx];
      const bool good = it.out.ok && it.out.size == s.size &&
                        hash_bytes(bufs[it.buf].data(), it.out.size) == s.hash;
      if (trace) {
        tlog.close(tlog.open("verify", 0, it.idx, w1), now_ns());
      }
      if (good) {
        res.bytes += s.size;
      } else {
        ++res.failed;
        if (res.failures.size() < 8) res.failures.push_back(s.path);
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        free_bufs.push_back(it.buf);
      }
      cv_free.notify_one();
    }
    done += n;
  }
  for (auto& r : readers) r.join();
  res.wall_s = double(now_ns() - t0) / 1e9;
  res.samples = order.size();
  for (auto& l : lat) res.read_us.insert(res.read_us.end(), l.begin(), l.end());
  if (trace) {
    for (auto& l : logs) {
      res.spans.insert(res.spans.end(), l.spans.begin(), l.spans.end());
    }
  }
  return res;
}

inline std::string epoch_json(const EpochResult& r) {
  std::string fails = "[";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    fails += (i ? ",\"" : "\"") + r.failures[i] + "\"";
  }
  fails += "]";
  Json j;
  j.num("wall_s", r.wall_s)
      .num("samples", double(r.samples))
      .num("bytes", double(r.bytes))
      .num("failed", double(r.failed))
      .raw("failures", fails)
      .list("read_us", r.read_us);
  return j.done();
}

// Spans as text, one per line: name id parent sample start_ns end_ns.
inline bool write_spans(const std::string& path,
                        const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f, "%s %llu %llu %llu %llu %llu\n", s.name,
                 (unsigned long long)s.id, (unsigned long long)s.parent,
                 (unsigned long long)s.sample,
                 (unsigned long long)s.start_ns,
                 (unsigned long long)s.end_ns);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
