#include "client/prefetch_scheduler.h"

#include <algorithm>
#include <chrono>

#include "client/hvac_client.h"
#include "common/trace.h"
#include "core/metrics.h"
#include "server/hvac_proto.h"

namespace hvac::client {

PrefetchScheduler::PrefetchScheduler(HvacClient* client,
                                     PrefetchSchedulerOptions options)
    : client_(client), options_(options) {
  if (options_.depth == 0) options_.depth = 1;
  if (options_.est_sample_bytes == 0) options_.est_sample_bytes = 1;
  est_sample_bytes_.store(options_.est_sample_bytes,
                          std::memory_order_relaxed);
  options_.batch_size = std::max<uint32_t>(
      1, std::min<uint32_t>(options_.batch_size, proto::kMaxPrefetchBatch));
  if (options_.bw_mbps > 0) {
    // Decimal MB/s; burst = one full batch so a freshly installed plan
    // starts immediately and pacing kicks in from the second batch.
    bucket_ = std::make_unique<storage::TokenBucket>(
        options_.bw_mbps * 1e6,
        double(options_.est_sample_bytes) * options_.batch_size);
  }
  for (size_t i = 0; i < kMaxInflightBatches; ++i) {
    threads_.emplace_back([this] { run(); });
  }
}

PrefetchScheduler::~PrefetchScheduler() { stop(); }

void PrefetchScheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  caught_up_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void PrefetchScheduler::set_plan(std::vector<std::string> logical_paths) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    plan_.clear();
    plan_.reserve(logical_paths.size());
    occurrences_.clear();
    for (size_t i = 0; i < logical_paths.size(); ++i) {
      occurrences_[logical_paths[i]].push_back(i);
      Entry e;
      e.path = std::move(logical_paths[i]);
      plan_.push_back(std::move(e));
    }
    cursor_ = 0;
    issue_pos_ = 0;
    ++epoch_;  // a batch in flight for the old plan discards its answer
    // Epoch boundary for stall attribution: reads from here on charge
    // against this plan's epoch (frame v2 section 12).
    core::StallCounters::global().begin_epoch(epoch_);
    stats_.planned += plan_.size();
    core::PrefetchCounters::global().planned.fetch_add(
        plan_.size(), std::memory_order_relaxed);
  }
  cv_.notify_all();
}

void PrefetchScheduler::on_access(const std::string& logical_path,
                                  std::optional<bool> resident) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = occurrences_.find(logical_path);
  if (it == occurrences_.end() || it->second.empty()) return;
  const size_t idx = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) occurrences_.erase(it);

  Entry& e = plan_[idx];
  core::PrefetchCounters& g = core::PrefetchCounters::global();
  const bool warm =
      resident.has_value()
          ? *resident &&
                (e.state == State::kWarm || e.state == State::kIssued)
          : e.state == State::kWarm;
  if (warm) {
    ++stats_.hit_after_prefetch;
    g.hit_after.fetch_add(1, std::memory_order_relaxed);
  } else if (e.state != State::kMiss) {
    // The training cursor beat the prefetch — the pipeline ran late
    // (window too shallow, pacing too tight, or the mover shed us).
    ++stats_.late;
    g.late.fetch_add(1, std::memory_order_relaxed);
    if (e.state == State::kPending) {
      // Never issued and already consumed: prefetching it now would
      // be pure waste.
      e.state = State::kMiss;
    }
  }
  if (idx + 1 > cursor_) {
    cursor_ = idx + 1;
    cv_.notify_all();  // the window slid forward
  }
}

size_t PrefetchScheduler::next_issuable_locked() const {
  const size_t window_end =
      std::min(plan_.size(), cursor_ + options_.depth);
  for (size_t i = std::min(issue_pos_, window_end); i < window_end; ++i) {
    if (plan_[i].state == State::kPending) return i;
  }
  return plan_.size();
}

void PrefetchScheduler::wait_caught_up() {
  std::unique_lock<std::mutex> lock(mutex_);
  caught_up_cv_.wait(lock, [&] {
    return stop_ ||
           (inflight_batches_ == 0 && next_issuable_locked() >= plan_.size());
  });
}

void PrefetchScheduler::observe_sample_bytes(uint64_t bytes) {
  if (bytes == 0) return;
  uint64_t cur = est_sample_bytes_.load(std::memory_order_relaxed);
  uint64_t next;
  do {
    // EWMA with alpha = 1/8, rounded so tiny samples still register.
    next = std::max<uint64_t>(1, (cur * 7 + bytes + 7) / 8);
  } while (!est_sample_bytes_.compare_exchange_weak(
      cur, next, std::memory_order_relaxed));
}

PrefetchScheduler::Stats PrefetchScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.cursor = cursor_;
  s.est_sample_bytes = est_sample_bytes_.load(std::memory_order_relaxed);
  return s;
}

void PrefetchScheduler::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] {
      return stop_ || next_issuable_locked() < plan_.size();
    });
    if (stop_) return;

    // Collect one batch of pending entries inside the window, in plan
    // (= deadline) order.
    const uint64_t epoch = epoch_;
    const size_t window_end =
        std::min(plan_.size(), cursor_ + options_.depth);
    std::vector<size_t> batch_idx;
    std::vector<std::string> batch_paths;
    size_t pos = std::min(issue_pos_, window_end);
    while (pos < window_end && batch_idx.size() < options_.batch_size) {
      if (plan_[pos].state == State::kPending) {
        plan_[pos].state = State::kIssued;
        batch_idx.push_back(pos);
        batch_paths.push_back(plan_[pos].path);
      }
      ++pos;
    }
    issue_pos_ = pos;
    if (batch_idx.empty()) continue;
    ++inflight_batches_;
    stats_.issued += batch_idx.size();
    core::PrefetchCounters& g = core::PrefetchCounters::global();
    g.issued.fetch_add(batch_idx.size(), std::memory_order_relaxed);
    lock.unlock();

    // Pace OUTSIDE the lock: a stalled bucket must not block
    // on_access / set_plan / stats.
    uint64_t paced_ns = 0;
    if (bucket_) {
      const uint64_t bytes =
          est_sample_bytes_.load(std::memory_order_relaxed) *
          batch_idx.size();
      const double wait_s = bucket_->would_wait_seconds(bytes);
      paced_ns = wait_s > 0 ? uint64_t(wait_s * 1e9) : 0;
      bucket_->acquire(bytes);
      g.paced_delay.record(paced_ns);
    }

    Result<std::vector<uint8_t>> statuses = [&] {
      trace::Span span("client.prefetch", batch_paths.size());
      return client_->prefetch_batch_status(batch_paths);
    }();

    lock.lock();
    stats_.paced_delay_ns += paced_ns;
    bool had_shed = false;
    if (epoch_ == epoch) {
      for (size_t b = 0; b < batch_idx.size(); ++b) {
        Entry& e = plan_[batch_idx[b]];
        if (e.state != State::kIssued) continue;  // consumed meanwhile
        const uint8_t status =
            statuses.ok() && b < statuses->size()
                ? (*statuses)[b]
                // Transport failure / open breaker: every path is
                // retryable, same as a server-side shed.
                : uint8_t(proto::kPrefetchShed);
        if (status == proto::kPrefetchCached) {
          e.state = State::kWarm;
          ++stats_.completed;
          g.completed.fetch_add(1, std::memory_order_relaxed);
        } else if (status == proto::kPrefetchShed) {
          ++stats_.shed;
          g.shed.fetch_add(1, std::memory_order_relaxed);
          if (++e.shed_count > options_.max_shed_retries) {
            e.state = State::kMiss;  // demand fetch will cover it
          } else {
            e.state = State::kPending;
            issue_pos_ = std::min(issue_pos_, batch_idx[b]);
            had_shed = true;
          }
        } else {
          e.state = State::kMiss;
        }
      }
    }
    --inflight_batches_;
    caught_up_cv_.notify_all();
    if (had_shed) cv_.notify_all();  // the rewound entries are issuable
    if (had_shed && options_.shed_backoff_ms > 0 && !stop_) {
      // Re-pace: give the mover queue room to drain before retrying.
      lock.unlock();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.shed_backoff_ms));
      lock.lock();
    }
  }
}

}  // namespace hvac::client
