/**
 * @file
 * Open-addressing FlatMap: round-trip semantics against the contract
 * std::unordered_map used to provide, backward-shift deletion inside a
 * probe cluster and across the slot array's wraparound, the
 * growth-rejection bound, and full-occupancy churn (the LDN table's
 * access pattern) against a std::unordered_map reference.
 */
#include <gtest/gtest.h>

#include "util/flat_map.hpp"

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "util/random.hpp"

namespace grow::util {
namespace {

constexpr uint32_t kEmpty = UINT32_MAX;
using Map = FlatMap<uint32_t, uint32_t>;

/** The first @p n keys whose probe starts at slot @p home. */
std::vector<uint32_t>
keysHomedAt(const Map &map, size_t home, size_t n)
{
    std::vector<uint32_t> keys;
    for (uint32_t k = 0; keys.size() < n; ++k)
        if (map.homeSlot(k) == home)
            keys.push_back(k);
    return keys;
}

/** Insert @p keys in order, erase @p victim, and check the rest. */
void
eraseOneAndCheckTheRest(const std::vector<uint32_t> &keys, uint32_t victim)
{
    Map map(16, kEmpty);
    for (uint32_t k : keys)
        map.insert(k, k ^ 0xABCDu);
    ASSERT_TRUE(map.erase(victim));
    EXPECT_EQ(map.find(victim), nullptr);
    EXPECT_EQ(map.size(), keys.size() - 1);
    for (uint32_t k : keys) {
        if (k == victim)
            continue;
        ASSERT_NE(map.find(k), nullptr) << "lost " << k;
        EXPECT_EQ(*map.find(k), k ^ 0xABCDu);
    }
}

TEST(FlatMap, InsertFindEraseRoundTrip)
{
    FlatMap<uint32_t, int> map(8, kEmpty);
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.capacity(), 8u);
    EXPECT_EQ(map.find(3), nullptr);

    map.insert(3, 30);
    map.insert(4, 40);
    ASSERT_NE(map.find(3), nullptr);
    EXPECT_EQ(*map.find(3), 30);
    EXPECT_EQ(*map.find(4), 40);
    EXPECT_EQ(map.size(), 2u);

    // Overwrite keeps the size; insert is upsert.
    map.insert(3, 33);
    EXPECT_EQ(*map.find(3), 33);
    EXPECT_EQ(map.size(), 2u);

    EXPECT_TRUE(map.erase(3));
    EXPECT_EQ(map.find(3), nullptr);
    EXPECT_FALSE(map.erase(3));
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(*map.find(4), 40);
}

TEST(FlatMap, EraseInsideAProbeClusterKeepsEveryOtherKey)
{
    // One cluster of six slots: three keys homed at h, two at h + 1
    // (displaced behind them) and one at h + 3. Erasing any one of them
    // must shift the displaced keys back without losing any.
    const Map probe(16, kEmpty);
    const size_t h = probe.slotCount() / 2;
    std::vector<uint32_t> keys = keysHomedAt(probe, h, 3);
    for (uint32_t k : keysHomedAt(probe, h + 1, 2))
        keys.push_back(k);
    keys.push_back(keysHomedAt(probe, h + 3, 1).front());
    for (uint32_t victim : keys) {
        SCOPED_TRACE("erase " + std::to_string(victim));
        eraseOneAndCheckTheRest(keys, victim);
    }
}

TEST(FlatMap, EraseAcrossTheWraparoundKeepsEveryOtherKey)
{
    // Three keys homed at the last slot occupy it and slots 0 and 1;
    // keys homed at 0 and 1 land behind them at slots 2 and 3.
    const Map probe(16, kEmpty);
    const size_t last = probe.slotCount() - 1;
    std::vector<uint32_t> keys = keysHomedAt(probe, last, 3);
    keys.push_back(keysHomedAt(probe, 0, 1).front());
    keys.push_back(keysHomedAt(probe, 1, 1).front());
    for (uint32_t victim : keys) {
        SCOPED_TRACE("erase " + std::to_string(victim));
        eraseOneAndCheckTheRest(keys, victim);
    }
}

TEST(FlatMap, ErasedKeyOnProbePathDoesNotHideLaterEntries)
{
    // Fill to the live bound so colliding keys chain past each other,
    // then erase keys in the middle of chains: lookups must still find
    // every survivor.
    constexpr size_t kLive = 64;
    Map map(kLive, kEmpty);
    for (uint32_t k = 0; k < kLive; ++k)
        map.insert(k, k * 2);
    for (uint32_t k = 0; k < kLive; k += 2)
        EXPECT_TRUE(map.erase(k));
    for (uint32_t k = 0; k < kLive; ++k) {
        if (k % 2 == 0) {
            EXPECT_EQ(map.find(k), nullptr) << k;
        } else {
            ASSERT_NE(map.find(k), nullptr) << k;
            EXPECT_EQ(*map.find(k), k * 2);
        }
    }
}

TEST(FlatMap, GrowthBeyondMaxLiveIsRejected)
{
    FlatMap<uint32_t, int> map(4, kEmpty);
    for (uint32_t k = 0; k < 4; ++k)
        map.insert(k, 0);
    EXPECT_THROW(map.insert(99, 0), std::logic_error);
    // Overwriting a live key is not growth.
    map.insert(2, 7);
    EXPECT_EQ(*map.find(2), 7);
}

TEST(FlatMap, ReservedEmptyKeyIsRejected)
{
    FlatMap<uint32_t, int> map(4, kEmpty);
    EXPECT_THROW(map.insert(kEmpty, 1), std::logic_error);
    EXPECT_EQ(map.find(kEmpty), nullptr);
    EXPECT_FALSE(map.erase(kEmpty));
}

TEST(FlatMap, ClearRemovesEveryEntry)
{
    FlatMap<uint32_t, int> map(8, kEmpty);
    map.insert(1, 10);
    map.insert(2, 20);
    map.erase(1);
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(2), nullptr);
    map.insert(2, 21);
    EXPECT_EQ(*map.find(2), 21);
}

TEST(FlatMap, ChurnAtFullOccupancyMatchesAnUnorderedMap)
{
    // The LDN-table pattern: the table sits at its live bound while a
    // FIFO evicts the oldest entry to admit each new one -- then the
    // same with random victims. No slot is ever lost to an erase, so
    // the table never fills up, and it agrees with a reference map
    // throughout.
    constexpr size_t kLive = 256;
    for (const bool fifoVictims : {true, false}) {
        SCOPED_TRACE(fifoVictims ? "FIFO victims" : "random victims");
        Map map(kLive, kEmpty);
        std::unordered_map<uint32_t, uint32_t> ref;
        std::deque<uint32_t> live;
        Rng rng(7);

        uint32_t next = 0;
        for (; next < kLive; ++next) {
            map.insert(next, next ^ 0xABCDu);
            ref.emplace(next, next ^ 0xABCDu);
            live.push_back(next);
        }
        for (int churn = 0; churn < 20000; ++churn) {
            const size_t at =
                fifoVictims ? 0
                            : static_cast<size_t>(rng.range(0, kLive - 1));
            const uint32_t victim = live[at];
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
            ASSERT_TRUE(map.erase(victim));
            ref.erase(victim);
            ASSERT_EQ(map.find(victim), nullptr);
            map.insert(next, next ^ 0xABCDu);
            ref.emplace(next, next ^ 0xABCDu);
            live.push_back(next);
            ++next;
            ASSERT_EQ(map.size(), ref.size());

            if (churn % 1000 == 0) {
                for (const auto &[k, v] : ref) {
                    ASSERT_NE(map.find(k), nullptr) << k;
                    ASSERT_EQ(*map.find(k), v);
                }
            }
        }
        for (const auto &[k, v] : ref) {
            ASSERT_NE(map.find(k), nullptr) << k;
            EXPECT_EQ(*map.find(k), v);
        }
        // Misses after heavy churn.
        EXPECT_EQ(map.find(0), nullptr);
        EXPECT_EQ(map.find(next + 1), nullptr);
    }
}

} // namespace
} // namespace grow::util
