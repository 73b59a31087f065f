//===- tests/ThreadPoolTest.cpp - ThreadPool tests ------------------------===//

#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <sched.h>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace kremlin;

namespace {

TEST(ThreadPool, ReportsRequestedSize) {
  ThreadPool Pool(3);
  EXPECT_EQ(Pool.size(), 3u);
}

TEST(ThreadPool, AvailableCpusCountsTheAffinityMask) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(Set), &Set), 0);
  EXPECT_EQ(availableCpus(), static_cast<unsigned>(CPU_COUNT(&Set)));
}

TEST(ThreadPool, SingleWorkerRunsInSubmissionOrder) {
  ThreadPool Pool(1);
  std::vector<int> Order;
  for (int I = 0; I < 64; ++I)
    Pool.post([I, &Order]() { Order.push_back(I); });
  Pool.wait();
  std::vector<int> Expected(64);
  std::iota(Expected.begin(), Expected.end(), 0);
  EXPECT_EQ(Order, Expected);
}

TEST(ThreadPool, ReturnsTaskResults) {
  // Each task writes its result into its own slot; wait() publishes them.
  ThreadPool Pool(4);
  std::vector<int> Results(100, -1);
  for (int I = 0; I < 100; ++I)
    Pool.post([I, &Results]() { Results[static_cast<size_t>(I)] = I * I; });
  Pool.wait();
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Results[static_cast<size_t>(I)], I * I);
}

TEST(ThreadPool, ThrowingTaskIsLoggedAndThePoolGoesOn) {
  // A task that throws is caught on its worker and logged; the tasks
  // around it still run, and the pool keeps taking work.
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  ::testing::internal::CaptureStderr();
  Pool.post([]() { throw std::runtime_error("task failed"); });
  Pool.post([&Count]() { Count.fetch_add(1); });
  Pool.wait();
  std::string Log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(Log.find("task failed"), std::string::npos) << Log;
  Pool.post([&Count]() { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 2);
}

TEST(ThreadPool, PoolIsReusableAfterWait) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  for (int Round = 0; Round < 3; ++Round) {
    for (int I = 0; I < 50; ++I)
      Pool.post([&Count]() { Count.fetch_add(1); });
    Pool.wait();
    EXPECT_EQ(Count.load(), (Round + 1) * 50);
  }
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(1);
    for (int I = 0; I < 32; ++I)
      Pool.post([&Count]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        Count.fetch_add(1);
      });
    // Destructor runs here with most tasks still queued.
  }
  EXPECT_EQ(Count.load(), 32);
}

TEST(ThreadPool, ManyWorkersAllParticipate) {
  ThreadPool Pool(8);
  std::atomic<int> Running{0};
  std::atomic<int> MaxRunning{0};
  for (int I = 0; I < 64; ++I)
    Pool.post([&Running, &MaxRunning]() {
      int Now = Running.fetch_add(1) + 1;
      int Prev = MaxRunning.load();
      while (Prev < Now && !MaxRunning.compare_exchange_weak(Prev, Now))
        ;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      Running.fetch_sub(1);
    });
  Pool.wait();
  // With 8 workers and 2ms tasks, at least two must have overlapped.
  EXPECT_GE(MaxRunning.load(), 2);
}

// --- parallelFor ------------------------------------------------------------

/// Runs parallelFor over \p N indices and returns how often each ran.
std::vector<int> runCounts(size_t N) {
  std::vector<std::atomic<int>> Runs(N);
  parallelFor(N, [&Runs](size_t I) { Runs[I].fetch_add(1); });
  std::vector<int> Counts;
  for (const std::atomic<int> &R : Runs)
    Counts.push_back(R.load());
  return Counts;
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  EXPECT_TRUE(runCounts(0).empty());
  EXPECT_EQ(runCounts(1), std::vector<int>(1, 1));
  EXPECT_EQ(runCounts(10000), std::vector<int>(10000, 1));
}

TEST(ParallelFor, RethrowsFirstExceptionAfterEveryClaimedCallReturns) {
  // Every eighth call throws after a pause; the rest pause too, so calls
  // are still running elsewhere when the first throw happens.
  std::atomic<int> InFlight{0};
  bool Caught = false;
  try {
    parallelFor(64, [&](size_t I) {
      InFlight.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      InFlight.fetch_sub(1);
      if (I % 8 == 3)
        throw std::runtime_error("index " + std::to_string(I));
    });
  } catch (const std::runtime_error &E) {
    Caught = true;
    EXPECT_EQ(InFlight.load(), 0) << "rethrown while calls were running";
    EXPECT_EQ(std::string(E.what()).rfind("index ", 0), 0u) << E.what();
  }
  EXPECT_TRUE(Caught);
}

TEST(ParallelFor, ConcurrentCallersAllFinish) {
  // Several threads (serve's handlers, say) each run a front end that
  // fans out on the one shared helper pool.
  constexpr unsigned Callers = 4;
  std::vector<std::vector<int>> Counts(Callers);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Callers; ++T)
    Threads.emplace_back([&Counts, T]() {
      for (int Round = 0; Round < 20; ++Round)
        Counts[T] = runCounts(500);
    });
  for (std::thread &T : Threads)
    T.join();
  for (const std::vector<int> &C : Counts)
    EXPECT_EQ(C, std::vector<int>(500, 1));
}

TEST(ParallelFor, CallFromInsideAPoolTaskFinishes) {
  ThreadPool Pool(2);
  std::vector<std::vector<int>> Counts(4);
  for (size_t I = 0; I < Counts.size(); ++I)
    Pool.post([&Counts, I]() { Counts[I] = runCounts(300); });
  Pool.wait();
  for (const std::vector<int> &C : Counts)
    EXPECT_EQ(C, std::vector<int>(300, 1));
}

TEST(ParallelFor, CallFromInsideAParallelForCallFinishes) {
  // The shape of kremlin-bench: each program's front end fans out on the
  // helpers that are already busy running the suite's programs.
  std::vector<std::vector<int>> Counts(8);
  parallelFor(Counts.size(),
              [&Counts](size_t I) { Counts[I] = runCounts(300); });
  for (const std::vector<int> &C : Counts)
    EXPECT_EQ(C, std::vector<int>(300, 1));
}

} // namespace
