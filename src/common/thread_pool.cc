#include "common/thread_pool.h"

#include <chrono>

namespace hvac {

WorkStealingPool::WorkStealingPool(Options options)
    : options_(std::move(options)) {
  const size_t shards = options_.shards == 0 ? 1 : options_.shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  const size_t per_shard =
      options_.workers_per_shard == 0 ? 1 : options_.workers_per_shard;
  workers_.reserve(shards * per_shard);
  for (size_t s = 0; s < shards; ++s) {
    for (size_t w = 0; w < per_shard; ++w) {
      workers_.emplace_back([this, s] { worker_loop(s); });
    }
  }
}

WorkStealingPool::~WorkStealingPool() { shutdown(); }

Status WorkStealingPool::submit(size_t shard, std::function<void()> task) {
  if (stopping_.load(std::memory_order_acquire)) {
    return Error(ErrorCode::kCancelled, "pool shut down");
  }
  Shard& s = *shards_[shard % shards_.size()];
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.tasks.size() >= options_.shard_capacity) {
      return Error(ErrorCode::kCapacity, "shard queue full");
    }
    s.tasks.push_back(std::move(task));
    s.depth.store(s.tasks.size(), std::memory_order_relaxed);
  }
  pending_.fetch_add(1, std::memory_order_release);
  // Wake a worker that can run the task: a sleeping home worker first;
  // failing that (all busy), a sleeping thief when stealing is on.
  // With stealing off a busy home shard needs no wake — its workers
  // re-check the deque before they sleep.
  const size_t home = shard % shards_.size();
  if (wake_one(home) || !options_.steal_enabled) return Status::Ok();
  for (size_t i = 1; i < shards_.size(); ++i) {
    if (wake_one((home + i) % shards_.size())) break;
  }
  return Status::Ok();
}

bool WorkStealingPool::wake_one(size_t shard) {
  Shard& s = *shards_[shard];
  {
    // Taking the sleep mutex orders this against a worker between its
    // has_work() check and its wait: either it sees the new task, or
    // it is already counted in `sleepers` and gets the notify.
    std::lock_guard<std::mutex> lock(s.sleep_mutex);
    if (s.sleepers == 0) return false;
  }
  // Notified after the unlock, so the woken worker does not block at
  // once on the mutex this thread still holds.
  s.sleep_cv.notify_one();
  return true;
}

bool WorkStealingPool::has_work(size_t home) const {
  if (options_.steal_enabled) {
    return pending_.load(std::memory_order_acquire) > 0;
  }
  return shards_[home]->depth.load(std::memory_order_relaxed) > 0;
}

void WorkStealingPool::shutdown() {
  bool expected = false;
  if (stopping_.compare_exchange_strong(expected, true)) {
    for (auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->sleep_mutex);
      s->sleep_cv.notify_all();
    }
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

uint64_t WorkStealingPool::steals(size_t shard) const {
  if (shards_.empty()) return 0;
  return shards_[shard % shards_.size()]->steals.load(
      std::memory_order_relaxed);
}

uint64_t WorkStealingPool::steal_backoffs(size_t shard) const {
  if (shards_.empty()) return 0;
  return shards_[shard % shards_.size()]->steal_backoffs.load(
      std::memory_order_relaxed);
}

bool WorkStealingPool::try_pop(size_t shard, std::function<void()>* out) {
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.tasks.empty()) return false;
  *out = std::move(s.tasks.front());
  s.tasks.pop_front();
  s.depth.store(s.tasks.size(), std::memory_order_relaxed);
  return true;
}

void WorkStealingPool::worker_loop(size_t home) {
  if (options_.worker_init) options_.worker_init(home);
  const size_t n = shards_.size();
  // Consecutive throttled scans; the third scan runs unthrottled so a
  // lone queued task behind a busy worker is picked up within a couple
  // of passes even when depths stay uniform.
  size_t backoff_streak = 0;
  for (;;) {
    std::function<void()> task;
    bool got = try_pop(home, &task);
    if (!got && options_.steal_enabled) {
      bool scan = true;
      if (options_.steal_throttle && backoff_streak < 2) {
        size_t max_depth = 0;
        for (size_t i = 1; i < n; ++i) {
          const size_t d =
              shards_[(home + i) % n]->depth.load(std::memory_order_relaxed);
          if (d > max_depth) max_depth = d;
        }
        if (max_depth < 2) {
          // Depths are uniform (no victim backlogged): its home worker
          // drains a depth-1 queue as fast as a thief would, so skip
          // the n-1 lock acquisitions. Only count it as a backoff when
          // stealable work actually existed.
          scan = false;
          if (max_depth > 0) {
            ++backoff_streak;
            shards_[home]->steal_backoffs.fetch_add(
                1, std::memory_order_relaxed);
          }
        }
      }
      if (scan) {
        backoff_streak = 0;
        // Steal scan: oldest task from the first non-empty victim,
        // walking shards in ring order starting after home so steal
        // pressure spreads instead of piling on shard 0.
        for (size_t i = 1; i < n && !got; ++i) {
          const size_t victim = (home + i) % n;
          got = try_pop(victim, &task);
          if (got) {
            shards_[victim]->steals.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }
    if (got) {
      backoff_streak = 0;
      pending_.fetch_sub(1, std::memory_order_release);
      task();
      continue;
    }
    Shard& own = *shards_[home];
    std::unique_lock<std::mutex> lock(own.sleep_mutex);
    if (stopping_.load(std::memory_order_acquire)) {
      // Draining shutdown: exit only once every shard is empty. With
      // stealing off, a worker still drains foreign shards here so no
      // accepted task is dropped.
      if (pending_.load(std::memory_order_acquire) == 0) return;
      if (!options_.steal_enabled) {
        lock.unlock();
        for (size_t i = 1; i < n; ++i) {
          if (try_pop((home + i) % n, &task)) {
            pending_.fetch_sub(1, std::memory_order_release);
            task();
            break;
          }
        }
      }
      continue;
    }
    ++own.sleepers;
    own.sleep_cv.wait_for(lock, std::chrono::milliseconds(50), [&] {
      return has_work(home) || stopping_.load(std::memory_order_acquire);
    });
    --own.sleepers;
  }
}

}  // namespace hvac
