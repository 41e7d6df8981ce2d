//===- tests/threadpool_test.cpp - ThreadPool unit tests ------------------===//

#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <atomic>
#include <stdexcept>

using namespace offchip;

TEST(ThreadPoolTest, HardwareThreadsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ThreadPoolTest, ZeroMeansOnePerHardwareThread) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.threadCount(), ThreadPool::hardwareThreads());
}

TEST(ThreadPoolTest, ResultsTravelThroughFutures) {
  ThreadPool Pool(4);
  std::vector<std::future<int>> Futures;
  for (int I = 0; I < 32; ++I)
    Futures.push_back(Pool.submit([I] { return I * I; }));
  for (int I = 0; I < 32; ++I)
    EXPECT_EQ(Futures[I].get(), I * I);
}

TEST(ThreadPoolTest, SingleWorkerRunsFifo) {
  ThreadPool Pool(1);
  std::vector<int> Order;
  std::vector<std::future<void>> Futures;
  for (int I = 0; I < 16; ++I)
    Futures.push_back(Pool.submit([I, &Order] { Order.push_back(I); }));
  for (auto &F : Futures)
    F.get();
  ASSERT_EQ(Order.size(), 16u);
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(ThreadPoolTest, ExceptionsRethrowFromGet) {
  ThreadPool Pool(2);
  std::future<int> Ok = Pool.submit([] { return 7; });
  std::future<int> Bad =
      Pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(Ok.get(), 7);
  EXPECT_THROW(Bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, PoolSurvivesTaskExceptions) {
  // A throwing task must not kill its worker: the pool keeps executing
  // later submissions on every thread.
  ThreadPool Pool(2);
  for (int Round = 0; Round < 8; ++Round) {
    std::vector<std::future<int>> Bad;
    for (int I = 0; I < 4; ++I)
      Bad.push_back(
          Pool.submit([]() -> int { throw std::runtime_error("boom"); }));
    for (auto &F : Bad)
      EXPECT_THROW(F.get(), std::runtime_error);
    std::vector<std::future<int>> Good;
    for (int I = 0; I < 8; ++I)
      Good.push_back(Pool.submit([I] { return I + 100; }));
    for (int I = 0; I < 8; ++I)
      EXPECT_EQ(Good[I].get(), I + 100);
  }
}

TEST(ThreadPoolTest, ConcurrentExceptionsStayDistinct) {
  // Each future must carry its own exception object, not a shared one.
  ThreadPool Pool(4);
  std::vector<std::future<void>> Futures;
  for (int I = 0; I < 16; ++I)
    Futures.push_back(Pool.submit(
        [I] { throw std::runtime_error("task " + std::to_string(I)); }));
  for (int I = 0; I < 16; ++I) {
    try {
      Futures[I].get();
      FAIL() << "future " << I << " did not throw";
    } catch (const std::runtime_error &E) {
      EXPECT_EQ(std::string(E.what()), "task " + std::to_string(I));
    }
  }
}

TEST(ThreadPoolTest, NonStdExceptionPropagates) {
  // The pool is joined before get(): otherwise the worker may drop the last
  // reference to the thrown int after the handler below has read it, and
  // ThreadSanitizer cannot see the (uninstrumented) libstdc++ atomic
  // refcount that orders the two, so it reports a race that is not there.
  std::future<void> F;
  {
    ThreadPool Pool(1);
    F = Pool.submit([] { throw 42; });
  }
  try {
    F.get();
    FAIL() << "expected the int to propagate";
  } catch (int V) {
    EXPECT_EQ(V, 42);
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> Completed{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 64; ++I)
      Pool.submit([&Completed] { ++Completed; });
    // No join here: the destructor must finish every queued task.
  }
  EXPECT_EQ(Completed.load(), 64);
}

TEST(ThreadPoolTest, MoveOnlyResultsWork) {
  ThreadPool Pool(2);
  auto F = Pool.submit([] { return std::make_unique<int>(42); });
  EXPECT_EQ(*F.get(), 42);
}
