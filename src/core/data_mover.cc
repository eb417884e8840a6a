#include "core/data_mover.h"

#include "rpc/health.h"

namespace hvac::core {

DataMover::DataMover(CacheManager* cache, size_t movers,
                     size_t queue_capacity)
    : cache_(cache), queue_(queue_capacity) {
  threads_.reserve(movers == 0 ? 1 : movers);
  for (size_t i = 0; i < std::max<size_t>(movers, 1); ++i) {
    threads_.emplace_back([this] { mover_loop(); });
  }
}

DataMover::~DataMover() { shutdown(); }

std::shared_future<Result<bool>> DataMover::submit(
    std::string logical_path,
    std::shared_ptr<storage::BatchContainer> container) {
  {
    // Coalesce onto an in-flight fetch for the same path: the waiter
    // shares the first submit's future, the queue sees one task.
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto it = inflight_.find(logical_path);
    if (it != inflight_.end()) {
      ++it->second->waiters;
      if (it->second->first_wait_ns == 0 && trace::enabled()) {
        it->second->first_wait_ns = trace::now_ns();
      }
      dedup_coalesced_.fetch_add(1, std::memory_order_relaxed);
      return it->second->fut;
    }
  }

  auto inflight = std::make_shared<Inflight>();
  inflight->fut = inflight->done.get_future().share();
  auto task = std::make_unique<Task>();
  task->logical_path = logical_path;
  task->inflight = inflight;
  task->container = std::move(container);
  if (trace::enabled()) {
    task->ctx = trace::current_context();
    task->enqueue_ns = trace::now_ns();
  }
  std::shared_future<Result<bool>> fut = inflight->fut;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.emplace(logical_path, inflight);
  }
  // Bounded: a full FIFO rejects instead of blocking the caller (an
  // RPC handler thread). Blocking here under a prefetch flood would
  // park every handler thread on the queue and stall even cache-hit
  // reads; rejecting lets the client fall back to the PFS (fail-open)
  // or re-pace and retry later.
  Status pushed = queue_.try_push(std::move(task));
  if (!pushed.ok()) {
    {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_.erase(logical_path);
    }
    Error error = pushed.error();
    if (error.code == ErrorCode::kCapacity) {
      rpc::ResilienceCounters::global().mover_rejects.fetch_add(
          1, std::memory_order_relaxed);
      error = Error(ErrorCode::kUnavailable,
                    "data-mover queue saturated; retry later");
    }
    // Queue closed or full: resolve immediately with the error. Any
    // waiter that coalesced between the map insert and the failed
    // push still sees this error through the shared future.
    inflight->done.set_value(Result<bool>(std::move(error)));
    return fut;
  }
  return fut;
}

Result<bool> DataMover::fetch(const std::string& logical_path) {
  return submit(logical_path).get();
}

size_t DataMover::dedup_inflight() const {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  return inflight_.size();
}

void DataMover::shutdown() {
  queue_.close();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void DataMover::mover_loop() {
  for (;;) {
    auto task = queue_.pop();
    if (!task.ok()) return;  // closed and drained
    // Queue wait (submit → pop) and the fetch itself are separate
    // spans, so "mover was backed up" and "PFS was slow" are
    // distinguishable in a trace.
    trace::ScopedContext adopt((*task)->ctx);
    if ((*task)->enqueue_ns != 0 && (*task)->ctx.valid()) {
      trace::emit("mover.queue", (*task)->enqueue_ns, trace::now_ns());
    }
    Result<bool> result = [&] {
      trace::Span span("mover.fetch");
      return cache_->ensure_cached((*task)->logical_path,
                                   (*task)->container.get());
    }();
    // Let go of the batch container before publishing: once a caller
    // sees the result, the container lives only as long as its cached
    // samples, and the last eviction unlinks it.
    (*task)->container.reset();
    uint32_t waiters = 0;
    uint64_t first_wait_ns = 0;
    {
      // Retire the in-flight entry BEFORE publishing the result: a
      // submit racing this completion starts a fresh fetch instead of
      // receiving an answer that may already be stale (evicted).
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_.erase((*task)->logical_path);
      waiters = (*task)->inflight->waiters;
      first_wait_ns = (*task)->inflight->first_wait_ns;
    }
    if (waiters > 0 && first_wait_ns != 0 && (*task)->ctx.valid()) {
      // One retroactive span covers every piggybacked waiter: from the
      // earliest coalesced submit to completion, arg = waiter count.
      trace::emit("mover.dedup_wait", first_wait_ns, trace::now_ns(),
                  waiters);
    }
    (*task)->inflight->done.set_value(std::move(result));
  }
}

}  // namespace hvac::core
