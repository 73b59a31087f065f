//===- support/ThreadPool.cpp ---------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <sched.h>

using namespace kremlin;

unsigned kremlin::availableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0 && CPU_COUNT(&Set) > 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  // A mask larger than cpu_set_t (over 1024 CPUs) does not fit.
  unsigned Hardware = std::thread::hardware_concurrency();
  return Hardware == 0 ? 1 : Hardware;
}

ThreadPool::ThreadPool(unsigned NumThreads) {
  if (NumThreads == 0)
    NumThreads = availableCpus();
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I < NumThreads; ++I)
    Workers.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::enqueue(std::function<void()> Job) {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Job));
  }
  WorkAvailable.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllIdle.wait(Lock,
               [this]() { return Queue.empty() && ActiveTasks == 0; });
}

size_t ThreadPool::queuedTasks() const {
  std::unique_lock<std::mutex> Lock(Mutex);
  return Queue.size();
}

void ThreadPool::workerLoop() {
  while (true) {
    std::function<void()> Job;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(
          Lock, [this]() { return ShuttingDown || !Queue.empty(); });
      // Drain the queue even when shutting down: submitted futures must
      // complete.
      if (Queue.empty())
        return;
      Job = std::move(Queue.front());
      Queue.pop_front();
      ++ActiveTasks;
    }
    Job(); // packaged_task captures any exception into the future.
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      --ActiveTasks;
      if (Queue.empty() && ActiveTasks == 0)
        AllIdle.notify_all();
    }
  }
}

namespace {

/// The helpers every parallelFor shares, created on first use; null when
/// the process may run on one CPU only.
ThreadPool *helperPool() {
  static const std::unique_ptr<ThreadPool> Pool =
      availableCpus() > 1 ? std::make_unique<ThreadPool>(availableCpus() - 1)
                          : nullptr;
  return Pool.get();
}

/// One parallelFor call, shared with its helper tasks. A helper task may
/// start after the call has returned; it then claims no index and never
/// touches Fn, which lives on the caller's stack.
struct ForLoop {
  ForLoop(size_t N, const std::function<void(size_t)> &Fn) : N(N), Fn(Fn) {}

  /// Claims and runs indices until none is left.
  void work() {
    size_t Completed = 0;
    for (size_t I = Next.fetch_add(1, std::memory_order_relaxed); I < N;
         I = Next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        Fn(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(Mutex);
        if (!Error)
          Error = std::current_exception();
      }
      ++Completed;
    }
    if (Completed == 0)
      return;
    std::lock_guard<std::mutex> Lock(Mutex);
    Done += Completed;
    if (Done == N)
      AllDone.notify_all();
  }

  /// Blocks until every index has been run, then rethrows the first
  /// exception a call threw.
  void finish() {
    std::unique_lock<std::mutex> Lock(Mutex);
    AllDone.wait(Lock, [this]() { return Done == N; });
    if (Error)
      std::rethrow_exception(Error);
  }

  const size_t N;
  const std::function<void(size_t)> &Fn;
  std::atomic<size_t> Next{0};
  std::mutex Mutex;
  std::condition_variable AllDone;
  size_t Done = 0;
  std::exception_ptr Error;
};

} // namespace

void kremlin::parallelFor(size_t N, const std::function<void(size_t)> &Fn) {
  ThreadPool *Pool = N < 2 ? nullptr : helperPool();
  if (!Pool) {
    for (size_t I = 0; I < N; ++I)
      Fn(I);
    return;
  }
  auto Loop = std::make_shared<ForLoop>(N, Fn);
  size_t Helpers = std::min<size_t>(Pool->size(), N - 1);
  for (size_t H = 0; H < Helpers; ++H) {
    try {
      Pool->submit([Loop]() { Loop->work(); });
    } catch (...) {
      // Out of memory while enqueueing leaves fewer helpers, and the
      // caller claims what they would have. Unwinding instead would leave
      // the helpers already enqueued calling Fn after it is gone.
      break;
    }
  }
  Loop->work();
  Loop->finish();
}
