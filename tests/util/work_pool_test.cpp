/**
 * @file
 * Shared worker pool: caller participation, nested fan-out without
 * deadlock, per-task exception capture, concurrency bounding,
 * concurrent callers, worker placement inside the creator's CPU
 * affinity and the `threads=` validation used by every bench CLI.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "util/work_pool.hpp"

namespace grow::util {
namespace {

TEST(WorkPool, RunsEveryTaskExactlyOnce)
{
    WorkPool pool(3);
    std::vector<std::atomic<int>> hits(64);
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < hits.size(); ++i)
        tasks.emplace_back([&hits, i] { hits[i].fetch_add(1); });
    auto errors = pool.runAll(std::move(tasks));
    ASSERT_EQ(errors.size(), 64u);
    for (const auto &e : errors)
        EXPECT_EQ(e, nullptr);
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(WorkPool, ZeroWorkersRunsOnCaller)
{
    WorkPool pool(0);
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran(8);
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < ran.size(); ++i)
        tasks.emplace_back(
            [&ran, i] { ran[i] = std::this_thread::get_id(); });
    pool.runAll(std::move(tasks));
    for (const auto &id : ran)
        EXPECT_EQ(id, caller);
}

TEST(WorkPool, MaxParallelOneIsSerialInTaskOrder)
{
    WorkPool pool(4);
    std::vector<int> order;
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i)
        tasks.emplace_back([&order, i] { order.push_back(i); });
    pool.runAll(std::move(tasks), 1);
    std::vector<int> expect(16);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect);
}

TEST(WorkPool, ConcurrencyNeverExceedsMaxParallel)
{
    WorkPool pool(4);
    std::atomic<int> inFlight{0};
    std::atomic<int> highWater{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 32; ++i) {
        tasks.emplace_back([&] {
            int now = inFlight.fetch_add(1) + 1;
            int seen = highWater.load();
            while (now > seen && !highWater.compare_exchange_weak(seen, now))
                ;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            inFlight.fetch_sub(1);
        });
    }
    pool.runAll(std::move(tasks), 2);
    EXPECT_LE(highWater.load(), 2);
    EXPECT_GE(highWater.load(), 1);
}

TEST(WorkPool, ExceptionsAreCapturedPerTaskAndSiblingsFinish)
{
    WorkPool pool(2);
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.emplace_back([&ran, i] {
            ran.fetch_add(1);
            if (i % 2 == 1)
                throw std::runtime_error("task " + std::to_string(i));
        });
    }
    auto errors = pool.runAll(std::move(tasks));
    EXPECT_EQ(ran.load(), 8);
    for (int i = 0; i < 8; ++i) {
        if (i % 2 == 1) {
            ASSERT_NE(errors[i], nullptr) << i;
            EXPECT_THROW(std::rethrow_exception(errors[i]),
                         std::runtime_error);
        } else {
            EXPECT_EQ(errors[i], nullptr) << i;
        }
    }
}

TEST(WorkPool, NestedFanOutDoesNotDeadlock)
{
    // Outer tasks saturate the pool, then each fans out again: the
    // nested runAll must drain on the already-occupied workers (caller
    // participation), not wait for free ones.
    WorkPool pool(2);
    std::atomic<int> leaves{0};
    std::vector<std::function<void()>> outer;
    for (int i = 0; i < 6; ++i) {
        outer.emplace_back([&pool, &leaves] {
            std::vector<std::function<void()>> inner;
            for (int j = 0; j < 5; ++j)
                inner.emplace_back([&leaves] { leaves.fetch_add(1); });
            auto errors = pool.runAll(std::move(inner));
            for (const auto &e : errors)
                EXPECT_EQ(e, nullptr);
        });
    }
    pool.runAll(std::move(outer));
    EXPECT_EQ(leaves.load(), 30);
}

TEST(WorkPool, SharedPoolIsAProcessSingleton)
{
    EXPECT_EQ(&WorkPool::shared(), &WorkPool::shared());
    std::atomic<int> hits{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 4; ++i)
        tasks.emplace_back([&hits] { hits.fetch_add(1); });
    WorkPool::shared().runAll(std::move(tasks), 8);
    EXPECT_EQ(hits.load(), 4);
}

TEST(WorkPool, ConcurrentCallersFromForeignThreads)
{
    // Four threads outside the pool submit at once; caller 0's tasks
    // fan out again. Every batch must finish with its own error slots:
    // task 7 of each batch throws, nothing else does.
    WorkPool pool(3);
    constexpr int kCallers = 4;
    constexpr int kTasks = 64;
    constexpr int kInner = 4;
    std::vector<std::vector<int>> slots(kCallers,
                                        std::vector<int>(kTasks, 0));
    std::vector<std::vector<std::exception_ptr>> errors(kCallers);
    std::atomic<int> leaves{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            std::vector<std::function<void()>> tasks;
            for (int i = 0; i < kTasks; ++i) {
                tasks.emplace_back([&, c, i] {
                    if (c == 0) {
                        std::vector<std::function<void()>> inner;
                        for (int j = 0; j < kInner; ++j)
                            inner.emplace_back(
                                [&leaves] { leaves.fetch_add(1); });
                        rethrowFirstError(pool.runAll(std::move(inner)));
                    }
                    slots[c][i] = c * kTasks + i + 1;
                    if (i == 7)
                        throw std::runtime_error("task 7");
                });
            }
            errors[c] = pool.runAll(std::move(tasks));
        });
    }
    for (auto &t : callers)
        t.join();
    EXPECT_EQ(leaves.load(), kTasks * kInner);
    for (int c = 0; c < kCallers; ++c) {
        ASSERT_EQ(errors[c].size(), static_cast<size_t>(kTasks)) << c;
        for (int i = 0; i < kTasks; ++i) {
            EXPECT_EQ(slots[c][i], c * kTasks + i + 1) << c << "/" << i;
            EXPECT_EQ(errors[c][i] != nullptr, i == 7) << c << "/" << i;
        }
    }
}

#ifdef __linux__
TEST(WorkPool, WorkersStayInsideCreatorAffinity)
{
    cpu_set_t original;
    ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
    if (CPU_COUNT(&original) < 2)
        GTEST_SKIP() << "needs at least 2 CPUs in the affinity mask";
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &original))
            last = c;
    cpu_set_t creator;
    CPU_ZERO(&creator);
    CPU_SET(last, &creator);
    ASSERT_EQ(sched_setaffinity(0, sizeof(creator), &creator), 0);

    // Two tasks that wait for each other: one of them must run on the
    // pool's only worker, and it reports that thread's mask.
    cpu_set_t worker;
    CPU_ZERO(&worker);
    bool sawWorker = false;
    std::vector<std::exception_ptr> errors;
    {
        WorkPool pool(1);
        std::latch bothStarted(2);
        const auto caller = std::this_thread::get_id();
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 2; ++i)
            tasks.emplace_back([&] {
                bothStarted.arrive_and_wait();
                if (std::this_thread::get_id() != caller) {
                    sched_getaffinity(0, sizeof(worker), &worker);
                    sawWorker = true;
                }
            });
        errors = pool.runAll(std::move(tasks));
    }
    sched_setaffinity(0, sizeof(original), &original);

    for (const auto &e : errors)
        EXPECT_EQ(e, nullptr);
    ASSERT_TRUE(sawWorker);
    EXPECT_GT(CPU_COUNT(&worker), 0);
    std::vector<int> outside;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &worker) && !CPU_ISSET(c, &creator))
            outside.push_back(c);
    EXPECT_EQ(outside, std::vector<int>{})
        << "worker may run outside its creator's mask (CPU " << last
        << ")";
}
#endif

TEST(CheckedThreadCount, AcceptsSaneValues)
{
    EXPECT_EQ(checkedThreadCount(1), 1u);
    EXPECT_EQ(checkedThreadCount(2), 2u);
    const uint32_t hw =
        std::max(1u, std::thread::hardware_concurrency());
    EXPECT_EQ(checkedThreadCount(static_cast<int64_t>(hw) * 4),
              hw * 4);
}

TEST(CheckedThreadCount, RejectsZeroNegativeAndSillyValues)
{
    EXPECT_THROW(checkedThreadCount(0), std::runtime_error);
    EXPECT_THROW(checkedThreadCount(-3), std::runtime_error);
    const int64_t hw = std::max(1u, std::thread::hardware_concurrency());
    EXPECT_THROW(checkedThreadCount(hw * 4 + 1), std::runtime_error);
    EXPECT_THROW(checkedThreadCount(1 << 20), std::runtime_error);
}

} // namespace
} // namespace grow::util
