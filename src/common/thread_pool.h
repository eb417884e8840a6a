// The sharded work-stealing pool backing the multi-reactor RPC server.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"

namespace hvac {

// Sharded handler pool with work stealing. Each shard (one per
// reactor) owns a bounded FIFO deque and a set of home workers; an
// idle worker first drains its home shard, then — unless stealing is
// disabled — steals the *oldest* task from the busiest other shard,
// so mover-bound misses queued behind a hot reactor migrate to idle
// cores while the common case stays shard-local.
//
// submit() never blocks: a full shard returns kCapacity and the
// caller sheds the request (the RPC server's backpressure contract).
class WorkStealingPool {
 public:
  struct Options {
    size_t shards = 1;
    size_t workers_per_shard = 1;
    // Per-shard backlog bound; a full deque rejects with kCapacity.
    size_t shard_capacity = 1024;
    // HVAC_STEAL=0 pins workers to their home shard (measurement aid).
    bool steal_enabled = true;
    // Adaptive steal throttling (HVAC_STEAL_THROTTLE=0 disables):
    // when no victim shard has a backlog (every depth <= 1), their
    // home workers drain the odd queued task as fast as a thief
    // would, so the scan's n-1 mutex acquisitions buy nothing — the
    // worker backs off instead (counted per home shard). Two
    // consecutive backoffs force a scan anyway, bounding the added
    // pickup latency for a lone task stuck behind a busy worker.
    bool steal_throttle = true;
    // Runs once on each worker thread before it serves tasks, with the
    // worker's home shard index (binds per-reactor buffer arenas).
    std::function<void(size_t shard)> worker_init;
  };

  explicit WorkStealingPool(Options options);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  // Enqueues on `shard` (clamped by modulo). Returns kCapacity when
  // the shard deque is full, kCancelled after shutdown.
  Status submit(size_t shard, std::function<void()> task);

  // Drains every shard, then joins the workers. Idempotent.
  void shutdown();

  size_t shard_count() const { return shards_.size(); }
  size_t num_threads() const { return workers_.size(); }
  // Tasks submitted to `shard` that were executed by a foreign
  // worker (counted on the victim shard).
  uint64_t steals(size_t shard) const;
  // Steal scans skipped by the adaptive throttle while stealable work
  // existed (counted on the would-be thief's home shard).
  uint64_t steal_backoffs(size_t shard) const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::deque<std::function<void()>> tasks;
    // Queue depth mirrored outside the mutex so the throttle's
    // uniformity check is a relaxed load, not a lock acquisition.
    std::atomic<size_t> depth{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> steal_backoffs{0};
    // Per-shard sleep: this shard's idle home workers wait here, so
    // submit() wakes a worker that can actually run the task (with
    // stealing off, a foreign worker could not).
    std::mutex sleep_mutex;
    std::condition_variable sleep_cv;
    size_t sleepers = 0;  // guarded by sleep_mutex
  };

  bool try_pop(size_t shard, std::function<void()>* out);
  // Wakes one sleeping worker of `shard`; false when none sleeps.
  bool wake_one(size_t shard);
  // Work a worker of `home` may take right now (sleep predicate).
  bool has_work(size_t home) const;
  void worker_loop(size_t home);

  const Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Queued tasks across all shards, so an idle worker knows whether a
  // steal scan is worth another pass before sleeping.
  std::atomic<size_t> pending_{0};
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;
};

}  // namespace hvac
