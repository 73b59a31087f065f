//===- support/ThreadPool.h - Fixed-size task pool --------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool with a single FIFO queue (no work stealing —
/// our workloads are coarse-grained pipeline runs, so a shared queue is
/// both simpler and fair). Tasks are submitted as callables and return
/// std::futures; exceptions thrown by a task propagate through its future.
/// The pool is reusable: wait() drains outstanding work and the pool then
/// accepts new submissions. With one worker the pool executes tasks in
/// strict submission order, which the tests rely on.
///
/// parallelFor spreads the iterations of one loop over the calling thread
/// and a process-wide pool of helpers; the front end uses it to analyze
/// the functions of a module at once.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_SUPPORT_THREADPOOL_H
#define KREMLIN_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace kremlin {

/// Number of CPUs this process may run on: the size of its
/// sched_getaffinity mask, so taskset and cpusets count (at least one).
unsigned availableCpus();

/// Fixed pool of worker threads consuming a shared FIFO queue.
class ThreadPool {
public:
  /// Spawns \p NumThreads workers; 0 means availableCpus().
  explicit ThreadPool(unsigned NumThreads = 0);

  /// Drains the queue, waits for running tasks, and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of worker threads.
  unsigned size() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues \p Fn; the returned future yields its result (or rethrows
  /// its exception).
  template <typename F>
  auto submit(F &&Fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto Task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(Fn));
    std::future<R> Result = Task->get_future();
    enqueue([Task]() { (*Task)(); });
    return Result;
  }

  /// Blocks until every queued and running task has finished. The pool
  /// stays usable afterwards.
  void wait();

  /// Tasks waiting in the queue (racy; for tests and reporting).
  size_t queuedTasks() const;

private:
  void enqueue(std::function<void()> Job);
  void workerLoop();

  mutable std::mutex Mutex;
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
