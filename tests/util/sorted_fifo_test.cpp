/**
 * @file
 * util::Fifo and util::SortedFifo: FIFO order and indexing across ring
 * growth and wraparound, in-place updates through front()/back(), the
 * range asserts, and SortedFifo's pop order against
 * std::priority_queue on seeded streams
 * that are mostly in order (the row engine's case), with ties, late
 * out-of-order pushes and interleaved pops.
 */
#include <gtest/gtest.h>

#include "util/sorted_fifo.hpp"

#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/random.hpp"

namespace grow::util {
namespace {

TEST(Fifo, KeepsOrderAcrossGrowthAndWraparound)
{
    Fifo<int> q;
    EXPECT_TRUE(q.empty());
    int pushed = 0, popped = 0;
    // Interleave so the head wraps before every doubling.
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 7; ++i)
            q.push_back(pushed++);
        EXPECT_EQ(q.back(), pushed - 1);
        for (int i = 0; i < 5; ++i) {
            ASSERT_EQ(q.front(), popped++);
            q.pop_front();
        }
    }
    EXPECT_EQ(q.size(), static_cast<size_t>(pushed - popped));
    while (!q.empty()) {
        ASSERT_EQ(q.front(), popped++);
        q.pop_front();
    }
    EXPECT_THROW(q.pop_front(), std::logic_error);
}

TEST(Fifo, IndexesFromTheFrontAcrossWraparoundAndGrowth)
{
    // Cycling 3-in 3-out wraps the head around the first 16-slot ring;
    // the bursts after it grow the ring twice while the head sits
    // mid-ring, and every element must stay addressable from the front.
    Fifo<int> q;
    int pushed = 0, popped = 0;
    auto expectIndexed = [&] {
        ASSERT_EQ(q.size(), static_cast<size_t>(pushed - popped));
        for (size_t i = 0; i < q.size(); ++i)
            ASSERT_EQ(q[i], popped + static_cast<int>(i)) << "index " << i;
    };
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 3; ++i)
            q.push_back(pushed++);
        expectIndexed();
        for (int i = 0; i < 3; ++i) {
            q.pop_front();
            ++popped;
        }
    }
    for (int burst : {5, 20, 40}) {
        for (int i = 0; i < burst; ++i)
            q.push_back(pushed++);
        expectIndexed();
        q.pop_front();
        ++popped;
        expectIndexed();
    }
}

TEST(Fifo, FrontBackAndIndexAreMutableInPlace)
{
    Fifo<int> q;
    for (int v : {1, 2, 3})
        q.push_back(v);
    q.front() += 10;
    q.back() += 30;
    q[1] = 20;
    EXPECT_EQ(q[0], 11);
    EXPECT_EQ(q[1], 20);
    EXPECT_EQ(q[2], 33);
    const Fifo<int> &view = q;
    EXPECT_EQ(view.front(), 11);
    EXPECT_EQ(view.back(), 33);
}

TEST(Fifo, EmptyPopAndOutOfRangeIndexAssert)
{
    Fifo<int> q;
    EXPECT_THROW(q.pop_front(), std::logic_error);
    EXPECT_THROW(q.front(), std::logic_error);
    EXPECT_THROW(q.back(), std::logic_error);
    EXPECT_THROW(q[0], std::logic_error);
    q.push_back(7);
    q.push_back(8);
    EXPECT_THROW(q[2], std::logic_error);
    q.pop_front();
    EXPECT_THROW(q[1], std::logic_error);
    EXPECT_EQ(q[0], 8);
    q.pop_front();
    EXPECT_THROW(q.pop_front(), std::logic_error);
    EXPECT_THROW(q[0], std::logic_error);
}

TEST(SortedFifo, InOrderPushesNeverTouchTheHeap)
{
    SortedFifo<uint64_t> q;
    for (uint64_t v : {1, 1, 2, 5, 5, 9})
        q.push(v);
    EXPECT_EQ(q.heapSize(), 0u);
    q.push(3); // behind the tail: heap
    EXPECT_EQ(q.heapSize(), 1u);
    std::vector<uint64_t> order;
    while (!q.empty()) {
        order.push_back(q.top());
        q.pop();
    }
    EXPECT_EQ(order, (std::vector<uint64_t>{1, 1, 2, 3, 5, 5, 9}));
    EXPECT_THROW(q.top(), std::logic_error);
}

TEST(SortedFifo, PopOrderEqualsPriorityQueue)
{
    // Values are (key, id) pairs with unique ids, so every pop is
    // checked exactly, ties on the key included. Keys drift upwards
    // like fill cycles; some pushes reuse an earlier key (a shared
    // fill) or land far behind the tail (an out-of-order fill).
    using Item = std::pair<uint64_t, uint64_t>;
    for (uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        SortedFifo<Item> q;
        std::priority_queue<Item, std::vector<Item>, std::greater<>> ref;
        uint64_t clock = 0, id = 0;
        std::vector<uint64_t> keys;
        const double outOfOrder = rng.uniform(0.0, 0.5);
        const auto ops = rng.range(1, 2000);
        for (int64_t op = 0; op < ops; ++op) {
            if (!ref.empty() && rng.bernoulli(0.45)) {
                ASSERT_EQ(q.size(), ref.size());
                ASSERT_EQ(q.top(), ref.top());
                q.pop();
                ref.pop();
                continue;
            }
            uint64_t key;
            if (!keys.empty() && rng.bernoulli(outOfOrder)) {
                key = keys[static_cast<size_t>(
                    rng.range(0, static_cast<int64_t>(keys.size()) - 1))];
            } else {
                clock += static_cast<uint64_t>(rng.range(0, 3));
                key = clock;
            }
            keys.push_back(key);
            q.push({key, id});
            ref.push({key, id});
            ++id;
        }
        while (!ref.empty()) {
            ASSERT_EQ(q.top(), ref.top());
            q.pop();
            ref.pop();
        }
        EXPECT_TRUE(q.empty());
    }
}

TEST(SortedFifo, EqualValuesCannotBeToldApart)
{
    // Plain integers with many duplicates: the popped sequence of
    // values equals std::priority_queue's.
    Rng rng(11);
    SortedFifo<uint32_t> q;
    std::priority_queue<uint32_t, std::vector<uint32_t>, std::greater<>>
        ref;
    for (int op = 0; op < 20000; ++op) {
        if (!ref.empty() && rng.bernoulli(0.5)) {
            ASSERT_EQ(q.top(), ref.top());
            q.pop();
            ref.pop();
        } else {
            const auto v = static_cast<uint32_t>(rng.range(0, 8));
            q.push(v);
            ref.push(v);
        }
    }
}

} // namespace
} // namespace grow::util
