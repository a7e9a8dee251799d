// Work-batching helpers the parallel engines are built on: per-item
// pool fan-out with exception propagation, and the OrderedGate that
// keeps chunked output byte-deterministic.
#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace fbfs {
namespace {

TEST(ForEachTask, SumsMatchAndExceptionsPropagate) {
  ThreadPool pool(4);
  for (const ExecContext exec : {ExecContext{}, ExecContext{&pool}}) {
    SCOPED_TRACE(exec.parallel() ? "pool" : "inline");
    std::vector<std::uint64_t> values(1'000);
    std::iota(values.begin(), values.end(), 0);
    std::vector<std::uint64_t> sums(10, 0);
    // Each task owns one slot: the engines' one-partition-per-task shape.
    for_each_task(exec, sums.size(), [&](std::uint64_t t) {
      for (std::uint64_t i = t * 100; i < (t + 1) * 100; ++i) {
        sums[t] += values[i];
      }
    });
    EXPECT_EQ(std::accumulate(sums.begin(), sums.end(), std::uint64_t{0}),
              1'000ull * 999 / 2);

    // On the pool a throwing task surfaces after every task ran (no task
    // outlives its captures); inline, the first failure stops the loop.
    std::atomic<unsigned> ran{0};
    EXPECT_THROW(for_each_task(exec, 4,
                               [&](std::uint64_t t) {
                                 ran.fetch_add(1);
                                 if (t == 0) {
                                   throw std::runtime_error("task failed");
                                 }
                               }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), exec.parallel() ? 4u : 1u);
  }
}

TEST(ForEachTask, InlineRunsInIndexOrder) {
  std::vector<std::uint64_t> order;
  for_each_task(ExecContext{}, 5, [&](std::uint64_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(OrderedGate, RetiresTicketsInSubmissionOrderOnThePool) {
  // The scatter hand-off shape: chunk tasks do unordered work, then
  // append to a shared log strictly in ticket order. FIFO task pop is
  // what makes blocking in wait_turn deadlock-free.
  ThreadPool pool(4);
  constexpr std::uint64_t kTickets = 200;
  OrderedGate gate;
  std::vector<std::uint64_t> log;
  std::vector<std::future<void>> tasks;
  tasks.reserve(kTickets);
  for (std::uint64_t c = 0; c < kTickets; ++c) {
    tasks.push_back(pool.submit([&gate, &log, c] {
      gate.wait_turn(c);
      log.push_back(c);  // gate-serialised: no lock needed
      gate.complete(c);
    }));
  }
  join_all(tasks);
  ASSERT_EQ(log.size(), kTickets);
  for (std::uint64_t c = 0; c < kTickets; ++c) EXPECT_EQ(log[c], c);
}

TEST(ResolveThreadCount, ZeroMeansHardwareConcurrency) {
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(7), 7u);
  EXPECT_GE(resolve_thread_count(0), 1u);
  EXPECT_EQ(resolve_thread_count(kMaxEngineThreads), kMaxEngineThreads);
}

TEST(ResolveThreadCountDeath, RejectsAbsurdCounts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(resolve_thread_count(kMaxEngineThreads + 1),
               "exceeds the sanity cap");
}

}  // namespace
}  // namespace fbfs
