// Work-batching helpers over ThreadPool — the engines' execution mode.
//
// An ExecContext either borrows a pool (parallel scatter/gather) or
// holds none (the serial path, byte-for-byte the single-threaded
// engine). for_each_task runs one pool task per independent item (a
// partition); OrderedGate retires concurrently-produced chunk
// results strictly in submission order — PR 2's byte-identical in-order
// merge, extracted as a primitive so the scatter phase's update shuffle
// and stay streams stay deterministic at every thread count.
#pragma once

#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace fbfs {

/// Ceiling on any configured worker-thread count; anything above it is
/// a config typo, not a machine (CHECK-fatal in resolve_thread_count
/// and Config::get_threads).
inline constexpr std::uint32_t kMaxEngineThreads = 512;

/// 0 -> one worker per hardware thread (at least 1); otherwise the
/// requested count. CHECK-fatal above kMaxEngineThreads.
inline unsigned resolve_thread_count(std::uint32_t requested) {
  FB_CHECK_MSG(requested <= kMaxEngineThreads,
               "thread count " << requested << " exceeds the sanity cap of "
                               << kMaxEngineThreads);
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Execution mode handed through the engine internals: a borrowed pool
/// (parallel) or none (serial). The pool outlives every phase that uses
/// the context.
struct ExecContext {
  ThreadPool* pool = nullptr;

  unsigned threads() const { return pool != nullptr ? pool->size() : 1u; }
  bool parallel() const { return threads() > 1; }
};

/// Waits for every future, then rethrows the first captured exception
/// (all tasks are always joined first, so no task outlives its
/// captures).
inline void join_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr first;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

/// Runs fn(i) for every i in [0, n) and returns when all are done.
/// Without a pool (or for a single item) the calls run inline in index
/// order; otherwise each index is one pool task, and the first task
/// exception is rethrown once every task has finished. The engines' per-
/// partition passes (init, gather, final collection) use it: each index
/// owns disjoint files and state slots, so T=1 and T>1 run one code path.
template <typename Fn>
void for_each_task(const ExecContext& exec, std::uint64_t n, Fn&& fn) {
  if (!exec.parallel() || n <= 1) {
    for (std::uint64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    futures.push_back(exec.pool->submit([&fn, i] { fn(i); }));
  }
  join_all(futures);
}

/// Serialises chunk hand-offs in ticket order: producer c blocks in
/// wait_turn(c) until every ticket below c has completed. Safe to drive
/// from ThreadPool tasks BECAUSE the pool pops tasks FIFO: when ticket
/// c's task runs, every lower ticket's task has already started, so the
/// lowest unfinished ticket is always running and the chain advances.
/// A producer that fails must still complete its ticket (after
/// wait_turn) or every later ticket deadlocks.
class OrderedGate {
 public:
  void wait_turn(std::uint64_t ticket) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return next_ == ticket; });
  }

  void complete(std::uint64_t ticket) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      FB_CHECK_MSG(next_ == ticket,
                   "OrderedGate ticket " << ticket << " completed out of turn ("
                                         << next_ << " expected)");
      ++next_;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t next_ = 0;
};

}  // namespace fbfs
