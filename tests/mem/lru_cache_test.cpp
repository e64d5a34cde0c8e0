#include <gtest/gtest.h>

#include "mem/lru_cache.hpp"

namespace grow::mem {
namespace {

TEST(LruRowCache, BasicHitMiss)
{
    LruRowCache c(4 * 128, 128); // 4 rows
    EXPECT_FALSE(c.lookup(1));
    c.insert(1);
    EXPECT_TRUE(c.lookup(1));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(LruRowCache, EvictsLeastRecentlyUsed)
{
    LruRowCache c(2 * 128, 128); // 2 rows
    c.insert(1);
    c.insert(2);
    EXPECT_TRUE(c.lookup(1)); // 1 now most recent
    c.insert(3);              // evicts 2
    EXPECT_TRUE(c.lookup(1));
    EXPECT_FALSE(c.lookup(2));
    EXPECT_TRUE(c.lookup(3));
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(LruRowCache, DoubleInsertNoop)
{
    LruRowCache c(2 * 128, 128);
    c.insert(1);
    c.insert(1);
    EXPECT_EQ(c.residentRows(), 1u);
}

TEST(LruRowCache, CapacityAtLeastOneRow)
{
    LruRowCache c(10, 128); // capacity smaller than a row
    EXPECT_EQ(c.maxRows(), 1u);
    c.insert(1);
    EXPECT_TRUE(c.lookup(1));
}

TEST(LruRowCache, HitRateAndClear)
{
    LruRowCache c(4 * 128, 128);
    c.insert(1);
    c.lookup(1);
    c.lookup(2);
    EXPECT_NEAR(c.hitRate(), 0.5, 1e-12);
    c.clear();
    EXPECT_EQ(c.residentRows(), 0u);
    EXPECT_EQ(c.hits(), 0u);
}

TEST(LruRowCache, PowerLawReuseBeatsColdStream)
{
    // Hub rows re-referenced often should mostly hit; a cold scan
    // should mostly miss. This is the behaviour GAMMA's FiberCache
    // exhibits on GCN workloads.
    LruRowCache c(64 * 128, 128);
    for (int round = 0; round < 50; ++round)
        for (NodeId hub = 0; hub < 32; ++hub) {
            if (!c.lookup(hub))
                c.insert(hub);
        }
    double hubRate = c.hitRate();
    EXPECT_GT(hubRate, 0.9);

    LruRowCache cold(64 * 128, 128);
    for (NodeId v = 0; v < 10000; ++v) {
        if (!cold.lookup(v))
            cold.insert(v);
    }
    EXPECT_LT(cold.hitRate(), 0.01);
}

} // namespace
} // namespace grow::mem
