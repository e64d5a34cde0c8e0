#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <queue>
#include <string>
#include <vector>

#include "core/mac_scheduler.hpp"
#include "util/random.hpp"

namespace grow::core {
namespace {

TEST(MacScheduler, BackToBackProducts)
{
    MacScheduler m;
    m.addFill(0, 1, 4);
    m.addFill(0, 2, 4);
    auto a = m.drainOne();
    auto b = m.drainOne();
    EXPECT_EQ(a.rowToken, 1u);
    EXPECT_EQ(a.finish, 4u);
    EXPECT_EQ(b.rowToken, 2u);
    EXPECT_EQ(b.finish, 8u);
    EXPECT_EQ(m.busyCycles(), 8u);
}

TEST(MacScheduler, ReadyOrderNotInsertionOrder)
{
    MacScheduler m;
    m.addFill(100, 1, 4);   // a late miss product
    m.addRun(0, 2, 4, 1);   // an early hit product
    auto first = m.drainOne();
    EXPECT_EQ(first.rowToken, 2u); // the hit goes first
    EXPECT_EQ(first.finish, 4u);
    auto second = m.drainOne();
    EXPECT_EQ(second.rowToken, 1u);
    EXPECT_EQ(second.finish, 104u); // waits for the data
}

TEST(MacScheduler, IdleGapsNotBilled)
{
    MacScheduler m;
    m.addRun(0, 1, 2, 1);
    m.addRun(50, 2, 2, 1);
    m.drainOne();
    auto b = m.drainOne();
    EXPECT_EQ(b.finish, 52u);
    EXPECT_EQ(m.busyCycles(), 4u); // idle 2..50 not counted busy
}

TEST(MacScheduler, TieBreakDeterministic)
{
    // Products sharing one LDN fill are ready together.
    MacScheduler m;
    m.addFill(5, 10, 1);
    m.addFill(5, 20, 1);
    m.addFill(5, 30, 1);
    EXPECT_EQ(m.drainOne().rowToken, 10u);
    EXPECT_EQ(m.drainOne().rowToken, 20u);
    EXPECT_EQ(m.drainOne().rowToken, 30u);
}

TEST(MacScheduler, IdleUntilEveryRunDrains)
{
    MacScheduler m;
    EXPECT_TRUE(m.idle());
    m.addRun(0, 1, 1, 1);
    m.addFill(0, 1, 1);
    m.drainOne();
    EXPECT_FALSE(m.idle());
    m.drainOne();
    EXPECT_TRUE(m.idle());
}

TEST(MacScheduler, DrainEmptyThrows)
{
    MacScheduler m;
    EXPECT_ANY_THROW(m.drainOne());
}

TEST(MacScheduler, ZeroDurationRejected)
{
    MacScheduler m;
    EXPECT_ANY_THROW(m.addRun(0, 1, 0, 1));
    EXPECT_ANY_THROW(m.addFill(0, 1, 0));
}

TEST(MacScheduler, EmptyRunRejected)
{
    MacScheduler m;
    EXPECT_ANY_THROW(m.addRun(0, 1, 1, 0));
}

TEST(MacScheduler, MakespanLowerBound)
{
    // The MAC array is work-conserving: the makespan is at least the
    // total work and at least the last ready time.
    MacScheduler m;
    Cycle total = 0;
    for (int i = 0; i < 100; ++i) {
        m.addRun(i * 3, 1, 4, 1);
        total += 4;
    }
    Cycle last = 0;
    while (!m.idle())
        last = m.drainOne().finish;
    EXPECT_GE(last, total);
    EXPECT_GE(last, 99u * 3 + 4);
}

TEST(MacScheduler, RunDrainsInClosedForm)
{
    MacScheduler m;
    m.addRun(5, 1, 3, 4);   // ready 5..8, 3 cycles each
    m.addRun(100, 2, 3, 2); // after an idle gap
    auto a = m.drainOne();
    EXPECT_EQ(a.rowToken, 1u);
    EXPECT_EQ(a.count, 4u);
    EXPECT_EQ(a.finish, 5u + 4 * 3);
    auto b = m.drainOne();
    EXPECT_EQ(b.count, 2u);
    EXPECT_EQ(b.finish, 100u + 2 * 3);
    EXPECT_EQ(m.busyCycles(), 18u);
}

TEST(MacScheduler, RunStreamsDrainLikeTheirProductExpansion)
{
    // Seeded property: a strictly monotone stream of runs (count 1-700,
    // dur 1-40, 0-50 idle cycles between one run's last ready and the
    // next run's first) drains to the same finishes, macFree and busy
    // cycles as its expansion into single products, with drains
    // interleaved with enqueues as the row engine's retirement does.
    struct Queued
    {
        uint64_t token;
        Cycle ready;
        uint32_t count;
        Cycle dur;
    };
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        MacScheduler runs, products;
        std::deque<Queued> queued;
        Cycle oracleFree = 0;
        auto drainAndCompare = [&] {
            const Queued q = queued.front();
            queued.pop_front();
            const MacCompletion run = runs.drainOne();
            ASSERT_EQ(run.rowToken, q.token);
            ASSERT_EQ(run.count, q.count);
            MacCompletion last;
            for (uint32_t j = 0; j < q.count; ++j) {
                last = products.drainOne();
                ASSERT_EQ(last.rowToken, q.token);
            }
            ASSERT_EQ(run.finish, last.finish);
            oracleFree = std::max(oracleFree, q.ready) + q.count * q.dur;
            ASSERT_EQ(run.finish, oracleFree);
        };

        Cycle ready = static_cast<Cycle>(rng.range(0, 50));
        const auto numRuns = rng.range(1, 40);
        for (int64_t i = 0; i < numRuns; ++i) {
            const Queued q{static_cast<uint64_t>(i), ready,
                           static_cast<uint32_t>(rng.range(1, 700)),
                           static_cast<Cycle>(rng.range(1, 40))};
            runs.addRun(q.ready, q.token, q.dur, q.count);
            for (uint32_t j = 0; j < q.count; ++j)
                products.addRun(q.ready + j, q.token, q.dur, 1);
            queued.push_back(q);
            ready += q.count + static_cast<Cycle>(rng.range(0, 50));
            while (!queued.empty() && rng.bernoulli(0.4))
                drainAndCompare();
        }
        while (!queued.empty())
            drainAndCompare();
        EXPECT_TRUE(runs.idle());
        EXPECT_TRUE(products.idle());
        EXPECT_EQ(runs.macFree(), products.macFree());
        EXPECT_EQ(runs.busyCycles(), products.busyCycles());
    }
}

TEST(MacScheduler, InterleavingEnqueueAfterRunIsRejected)
{
    // Products ready inside a queued run would drain before its tail
    // in per-product order, so the run could not drain whole.
    MacScheduler m;
    m.addRun(10, 1, 2, 4); // ready 10..13
    EXPECT_ANY_THROW(m.addRun(12, 2, 2, 1));
    EXPECT_ANY_THROW(m.addRun(13, 2, 2, 3));
    EXPECT_ANY_THROW(m.addFill(13, 2, 2)); // from either source
    EXPECT_NO_THROW(m.addRun(14, 2, 2, 1));
    EXPECT_NO_THROW(m.addFill(15, 2, 2));
}

TEST(MacScheduler, CamReadyRunsMustArriveInCamOrder)
{
    // The CAM does one lookup per cycle: a CAM-ready product ready at
    // or before an earlier CAM-ready product is a caller bug.
    MacScheduler m;
    m.addRun(7, 1, 1, 1);
    EXPECT_ANY_THROW(m.addRun(7, 1, 1, 1));
    EXPECT_ANY_THROW(m.addRun(3, 1, 1, 1));
    EXPECT_NO_THROW(m.addFill(3, 1, 1)); // fills may come in any order
    EXPECT_NO_THROW(m.addRun(8, 1, 1, 1));
}

TEST(MacScheduler, RunMustFollowEveryEarlierProduct)
{
    // Fill-ready products may arrive out of ready order (aggregation
    // misses), but a multi-product run must start after all of them.
    MacScheduler m;
    m.addFill(51, 1, 1);
    m.addFill(10, 2, 1);
    EXPECT_ANY_THROW(m.addRun(50, 3, 1, 3)); // 50..52 straddles 51
    EXPECT_NO_THROW(m.addRun(52, 3, 1, 3));
}

TEST(MacScheduler, MixedStreamsDrainLikeAPerProductHeap)
{
    // Seeded property over both sources, as aggregation and combination
    // feed them: CAM-ready products and multi-product runs at strictly
    // increasing CAM cycles, and fill-ready products at any cycle --
    // behind the CAM clock, ahead of it, tied with an earlier fill (a
    // shared LDN fill) or with a CAM cycle -- with drains interleaved
    // at random. Once a multi-product run is queued, every later
    // product starts after all earlier ones (the run-length
    // precondition). The oracle is a per-product (ready, seq) heap:
    // every completion's rowToken, count and finish, and macFree and
    // busyCycles, must match it.
    struct Product
    {
        Cycle ready;
        uint64_t seq;
        uint64_t token;
        Cycle dur;
        uint64_t run;
        uint32_t index; ///< position within its run
        uint32_t count; ///< products in its run
    };
    struct Later
    {
        bool
        operator()(const Product &a, const Product &b) const
        {
            return a.ready != b.ready ? a.ready > b.ready : a.seq > b.seq;
        }
    };
    for (uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        MacScheduler m;
        std::priority_queue<Product, std::vector<Product>, Later> oracle;
        uint64_t seq = 0, runs = 0;
        Cycle oracleFree = 0, oracleBusy = 0;
        Cycle lastReady = 0; // latest ready of any product queued
        auto drainAndCompare = [&] {
            const MacCompletion c = m.drainOne();
            const Product first = oracle.top();
            ASSERT_EQ(first.index, 0u);
            ASSERT_EQ(c.rowToken, first.token);
            ASSERT_EQ(c.count, first.count);
            for (uint32_t j = 0; j < first.count; ++j) {
                const Product p = oracle.top();
                oracle.pop();
                ASSERT_EQ(p.run, first.run);
                ASSERT_EQ(p.index, j);
                oracleFree = std::max(oracleFree, p.ready) + p.dur;
                oracleBusy += p.dur;
            }
            ASSERT_EQ(c.finish, oracleFree);
            ASSERT_EQ(m.macFree(), oracleFree);
            ASSERT_EQ(m.busyCycles(), oracleBusy);
        };
        auto queue = [&](Cycle ready, uint32_t count, bool fill) {
            const auto token = static_cast<uint64_t>(rng.range(0, 5));
            const auto dur = static_cast<Cycle>(rng.range(1, 8));
            if (fill)
                m.addFill(ready, token, dur);
            else
                m.addRun(ready, token, dur, count);
            for (uint32_t j = 0; j < count; ++j)
                oracle.push(
                    {ready + j, seq++, token, dur, runs, j, count});
            ++runs;
            lastReady = std::max(lastReady, ready + count - 1);
        };

        const auto ops = rng.range(1, 1500);
        const int64_t multiFrom =
            rng.bernoulli(0.3) ? ops : rng.range(0, ops - 1);
        Cycle cam = static_cast<Cycle>(rng.range(0, 20)); // last CAM cycle
        bool inOrder = false; // a multi-product run has been queued
        std::vector<Cycle> fills;
        for (int64_t op = 0; op < ops; ++op) {
            if (!oracle.empty() && rng.bernoulli(0.4)) {
                drainAndCompare();
                continue;
            }
            const auto gap = static_cast<Cycle>(rng.range(0, 3));
            const Cycle next =
                inOrder ? std::max(cam, lastReady) + 1 + gap : cam + 1 + gap;
            const int64_t kind = rng.range(0, 2);
            if (kind == 0 || (kind == 1 && op < multiFrom)) {
                queue(next, 1, false); // an HDN or LRU hit
                cam = next;
            } else if (kind == 1) {
                // A combination row, after everything queued so far.
                const Cycle start = std::max(cam, lastReady) + 1 + gap;
                const auto n = static_cast<uint32_t>(rng.range(2, 30));
                queue(start, n, false);
                cam = start + n - 1;
                inOrder = true;
            } else {
                Cycle ready = next;
                if (!inOrder) {
                    const int64_t how = rng.range(0, 3);
                    if (how == 0 && !fills.empty())
                        ready = fills[static_cast<size_t>(rng.range(
                            0, static_cast<int64_t>(fills.size()) - 1))];
                    else if (how == 1)
                        ready = cam;
                    else if (how == 2)
                        ready = static_cast<Cycle>(rng.range(
                            0, static_cast<int64_t>(cam)));
                    else
                        ready = cam + static_cast<Cycle>(rng.range(0, 200));
                }
                queue(ready, 1, true);
                fills.push_back(ready);
            }
        }
        while (!oracle.empty())
            drainAndCompare();
        EXPECT_TRUE(m.idle());
    }
}

} // namespace
} // namespace grow::core
