#include "common/trace.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

namespace hvac::trace {
namespace {

// Global counters. `emitted`/`dropped` are process totals across all
// rings; span/trace id generators never hand out 0 (0 means "none").
std::atomic<uint64_t> g_emitted{0};
std::atomic<uint64_t> g_dropped{0};
std::atomic<uint32_t> g_next_span_id{1};
std::atomic<uint64_t> g_next_trace_id{0};
std::atomic<uint32_t> g_next_tid{0};
std::atomic<size_t> g_ring_capacity{0};  // 0: not yet read from env
std::atomic<int64_t> g_slow_ms{-2};      // -2: not yet read from env

constexpr size_t kDefaultRingCapacity = 4096;

size_t ring_capacity() {
  size_t cap = g_ring_capacity.load(std::memory_order_relaxed);
  if (cap == 0) {
    const char* env = std::getenv("HVAC_TRACE_RING");
    long parsed = env != nullptr ? std::atol(env) : 0;
    cap = parsed > 0 ? size_t(parsed) : kDefaultRingCapacity;
    g_ring_capacity.store(cap, std::memory_order_relaxed);
  }
  return cap;
}

int64_t slow_ms() {
  int64_t ms = g_slow_ms.load(std::memory_order_relaxed);
  if (ms == -2) {
    const char* env = std::getenv("HVAC_SLOW_MS");
    ms = env != nullptr ? std::atoll(env) : 0;
    if (ms < 0) ms = 0;
    g_slow_ms.store(ms, std::memory_order_relaxed);
  }
  return ms;
}

// Single-producer ring: the owning thread pushes, drain()/snapshot
// read under the registry mutex. head/tail are monotonically
// increasing record counts; (head - tail) is the occupancy. A full
// ring drops the record — unread history is never overwritten, so the
// dropped counter is exact.
struct Ring {
  explicit Ring(size_t cap) : capacity(cap), slots(cap) {}

  const size_t capacity;
  std::vector<SpanRecord> slots;
  std::atomic<uint64_t> head{0};  // written by producer, release
  std::atomic<uint64_t> tail{0};  // written by drain, release
  uint32_t tid = 0;

  bool push(const SpanRecord& rec) {
    const uint64_t h = head.load(std::memory_order_relaxed);
    // Acquire pairs with drain()'s release store: slot [tail-1] must
    // be fully read before the producer reuses it.
    const uint64_t t = tail.load(std::memory_order_acquire);
    if (h - t >= capacity) return false;
    slots[h % capacity] = rec;
    head.store(h + 1, std::memory_order_release);
    return true;
  }
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<Ring>> rings;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: outlives exiting threads
  return *r;
}

// Thread state: the active span and this thread's ring. The ring is a
// shared_ptr held both here and in the registry so records emitted by
// a thread remain drainable after it exits.
struct ThreadState {
  uint64_t trace_id = 0;
  uint32_t active_span = 0;
  std::shared_ptr<Ring> ring;
};

ThreadState& tls() {
  thread_local ThreadState state;
  return state;
}

Ring& thread_ring(ThreadState& state) {
  if (!state.ring) {
    auto ring = std::make_shared<Ring>(ring_capacity());
    ring->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.rings.push_back(ring);
    state.ring = std::move(ring);
  }
  return *state.ring;
}

uint64_t new_trace_id() {
  uint64_t seed = g_next_trace_id.load(std::memory_order_relaxed);
  if (seed == 0) {
    // Seed once from wall clock ^ pid so traces from concurrent
    // processes don't collide; ids are then sequential oddified.
    struct timespec ts;
    clock_gettime(CLOCK_REALTIME, &ts);
    uint64_t init = (uint64_t(ts.tv_sec) << 32) ^ uint64_t(ts.tv_nsec) ^
                    (uint64_t(::getpid()) << 17);
    init |= 1;  // never 0
    uint64_t expected = 0;
    g_next_trace_id.compare_exchange_strong(expected, init,
                                            std::memory_order_relaxed);
  }
  uint64_t id = g_next_trace_id.fetch_add(2, std::memory_order_relaxed);
  return id | 1;
}

void push_record(ThreadState& state, const SpanRecord& rec) {
  Ring& ring = thread_ring(state);
  SpanRecord stamped = rec;
  stamped.tid = ring.tid;
  if (ring.push(stamped)) {
    g_emitted.fetch_add(1, std::memory_order_relaxed);
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

void dump_slow_trace(uint64_t trace_id, uint64_t dur_ns);

}  // namespace

namespace detail {

std::atomic<int> g_mode{-1};

int init_mode() {
  const char* env = std::getenv("HVAC_TRACE");
  const int mode =
      (env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0) ? 1 : 0;
  g_mode.store(mode, std::memory_order_relaxed);
  return mode;
}

}  // namespace detail

uint64_t now_ns() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return uint64_t(ts.tv_sec) * 1000000000ull + uint64_t(ts.tv_nsec);
}

TraceContext current_context() {
  TraceContext ctx;
  if (!enabled()) return ctx;
  ThreadState& state = tls();
  if (state.trace_id == 0) return ctx;
  ctx.trace_id = state.trace_id;
  ctx.parent_span_id = state.active_span;
  ctx.flags = kFlagSampled;
  return ctx;
}

uint64_t current_trace_id() {
  return enabled() ? tls().trace_id : 0;
}

uint32_t current_span_id() {
  return enabled() ? tls().active_span : 0;
}

void Span::begin() {
  ThreadState& state = tls();
  prev_trace_ = state.trace_id;
  prev_span_ = state.active_span;
  if (state.trace_id == 0) {
    state.trace_id = new_trace_id();
    state.active_span = 0;
    root_ = true;
  }
  span_id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  if (span_id_ == 0) {  // wrapped
    span_id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  }
  start_ns_ = now_ns();
  armed_ = true;
  // The record's parent is whatever was active when we started; our
  // children see us as the active span.
  state.active_span = span_id_;
}

void Span::finish() {
  ThreadState& state = tls();
  SpanRecord rec;
  rec.trace_id = state.trace_id;
  rec.start_ns = start_ns_;
  rec.dur_ns = now_ns() - start_ns_;
  rec.arg = arg_;
  rec.name = name_;
  rec.span_id = span_id_;
  rec.parent_id = prev_span_;
  rec.flags = kFlagSampled;
  const uint64_t trace_id = state.trace_id;
  push_record(state, rec);
  state.active_span = prev_span_;
  state.trace_id = prev_trace_;
  if (root_) {
    const int64_t threshold = slow_ms();
    if (threshold > 0 && rec.dur_ns >= uint64_t(threshold) * 1000000ull) {
      dump_slow_trace(trace_id, rec.dur_ns);
    }
  }
}

void Span::discard() {
  if (!armed_) return;
  ThreadState& state = tls();
  state.active_span = prev_span_;
  state.trace_id = prev_trace_;
  armed_ = false;
}

void Span::event(const char* name, uint64_t arg) {
  if (!enabled()) return;
  ThreadState& state = tls();
  if (state.trace_id == 0) return;  // events never root a trace
  SpanRecord rec;
  rec.trace_id = state.trace_id;
  rec.start_ns = now_ns();
  rec.dur_ns = 0;
  rec.arg = arg;
  rec.name = name;
  rec.span_id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  rec.parent_id = state.active_span;
  rec.flags = kFlagSampled;
  push_record(state, rec);
}

ScopedContext::ScopedContext(const TraceContext& ctx) {
  if (!enabled() || !ctx.valid()) return;
  ThreadState& state = tls();
  prev_trace_ = state.trace_id;
  prev_span_ = state.active_span;
  state.trace_id = ctx.trace_id;
  state.active_span = ctx.parent_span_id;
  armed_ = true;
}

ScopedContext::~ScopedContext() {
  if (!armed_) return;
  ThreadState& state = tls();
  state.trace_id = prev_trace_;
  state.active_span = prev_span_;
}

void emit(const char* name, uint64_t start_ns, uint64_t end_ns, uint64_t arg) {
  if (!enabled()) return;
  ThreadState& state = tls();
  if (state.trace_id == 0) return;
  SpanRecord rec;
  rec.trace_id = state.trace_id;
  rec.start_ns = start_ns;
  rec.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  rec.arg = arg;
  rec.name = name;
  rec.span_id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  rec.parent_id = state.active_span;
  rec.flags = kFlagSampled;
  push_record(state, rec);
}

std::vector<SpanRecord> drain() {
  std::vector<SpanRecord> out;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& ring : reg.rings) {
    // Acquire pairs with push()'s release: every slot below `h` is
    // fully written.
    const uint64_t h = ring->head.load(std::memory_order_acquire);
    uint64_t t = ring->tail.load(std::memory_order_relaxed);
    for (; t < h; ++t) {
      out.push_back(ring->slots[t % ring->capacity]);
    }
    ring->tail.store(t, std::memory_order_release);
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

std::vector<SpanRecord> snapshot_trace(uint64_t trace_id) {
  std::vector<SpanRecord> out;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& ring : reg.rings) {
    const uint64_t h = ring->head.load(std::memory_order_acquire);
    const uint64_t t = ring->tail.load(std::memory_order_relaxed);
    for (uint64_t i = t; i < h; ++i) {
      const SpanRecord& rec = ring->slots[i % ring->capacity];
      if (rec.trace_id == trace_id) out.push_back(rec);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

Stats stats() {
  Stats s;
  s.emitted = g_emitted.load(std::memory_order_relaxed);
  s.dropped = g_dropped.load(std::memory_order_relaxed);
  s.ring_capacity = ring_capacity();
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  s.rings = reg.rings.size();
  for (auto& ring : reg.rings) {
    s.occupancy += ring->head.load(std::memory_order_acquire) -
                   ring->tail.load(std::memory_order_relaxed);
  }
  return s;
}

std::string format_tree(const std::vector<SpanRecord>& spans) {
  if (spans.empty()) return "(no spans)\n";
  uint64_t min_start = UINT64_MAX;
  for (const auto& s : spans) min_start = std::min(min_start, s.start_ns);
  std::string out;
  char line[256];
  // Depth by walking parent ids; spans whose parent is not buffered
  // (e.g. the client half of a server-side-only dump) print at the
  // top level.
  auto depth_of = [&spans](const SpanRecord& rec) {
    int depth = 0;
    uint32_t parent = rec.parent_id;
    while (parent != 0 && depth < 16) {
      bool found = false;
      for (const auto& s : spans) {
        if (s.span_id == parent) {
          parent = s.parent_id;
          ++depth;
          found = true;
          break;
        }
      }
      if (!found) break;
    }
    return depth;
  };
  for (const auto& s : spans) {
    const int depth = depth_of(s);
    std::snprintf(line, sizeof(line),
                  "%*s%-18s +%8.3fms %9.3fms tid=%u arg=%" PRIu64 "\n",
                  depth * 2, "", s.name != nullptr ? s.name : "?",
                  double(s.start_ns - min_start) / 1e6, double(s.dur_ns) / 1e6,
                  s.tid, s.arg);
    out += line;
  }
  return out;
}

namespace {

void dump_slow_trace(uint64_t trace_id, uint64_t dur_ns) {
  const std::vector<SpanRecord> spans = snapshot_trace(trace_id);
  std::string tree = format_tree(spans);
  std::fprintf(stderr,
               "[hvac-trace] slow request t=%016" PRIx64 " (%.3f ms):\n%s",
               trace_id, double(dur_ns) / 1e6, tree.c_str());
}

}  // namespace

void init_for_test(bool enabled, size_t ring_capacity, int64_t slow_ms) {
  detail::g_mode.store(enabled ? 1 : 0, std::memory_order_relaxed);
  if (ring_capacity > 0) {
    g_ring_capacity.store(ring_capacity, std::memory_order_relaxed);
  }
  if (slow_ms >= 0) g_slow_ms.store(slow_ms, std::memory_order_relaxed);
  g_emitted.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
}

}  // namespace hvac::trace
