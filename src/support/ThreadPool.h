//===- support/ThreadPool.h - Fixed-size task pool --------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool with a single FIFO queue: fixed workers run
/// posted tasks. It has two users, the helpers behind parallelFor and the
/// HTTP server's connection handlers. A task that throws is caught and
/// logged on its worker. The pool is reusable: wait() drains outstanding
/// work and the pool then accepts new tasks. With one worker the pool runs
/// tasks in strict posting order.
///
/// parallelFor spreads the iterations of one loop over the calling thread
/// and a process-wide pool of helpers. It is the process's one fan-out
/// rule: the front end analyzes the functions of a module with it, and
/// kremlin-bench profiles the suite's programs with it.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_SUPPORT_THREADPOOL_H
#define KREMLIN_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace kremlin {

/// Number of CPUs this process may run on: the size of its
/// sched_getaffinity mask, so taskset and cpusets count (at least one).
unsigned availableCpus();

/// Fixed pool of worker threads consuming a shared FIFO queue.
class ThreadPool {
public:
  /// Spawns \p NumThreads workers (at least one).
  explicit ThreadPool(unsigned NumThreads);

  /// Drains the queue, waits for running tasks, and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of worker threads.
  unsigned size() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues \p Task. An exception it throws is logged as an error on
  /// its worker and goes no further; the pool keeps running.
  void post(std::function<void()> Task);

  /// Blocks until every queued and running task has finished. The pool
  /// stays usable afterwards.
  void wait();

private:
  void workerLoop();

  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllIdle;
  std::deque<std::function<void()>> Queue;
  std::vector<std::thread> Workers;
  unsigned ActiveTasks = 0;
  bool ShuttingDown = false;
};

/// Calls \p Fn(I) once for every I in [0, N) and returns when all calls
/// have returned. The calls run on the calling thread and on one
/// process-wide pool of helpers, created on first use with one helper per
/// available CPU beyond the caller's; every participant claims indices
/// from one shared counter, so the caller never waits on a helper that
/// has not started. With no helpers (one CPU) or N < 2 this is a plain
/// loop on the caller. Calls may run in any order and at once, so each
/// must write only state of its own index. If calls throw, the first
/// exception is rethrown once every claimed call has returned. Safe to
/// call from several threads at once and from inside pool tasks.
void parallelFor(size_t N, const std::function<void(size_t)> &Fn);

} // namespace kremlin

#endif // KREMLIN_SUPPORT_THREADPOOL_H
