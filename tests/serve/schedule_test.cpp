/**
 * @file
 * Seeded request schedules (deterministic, weighted tenant draws, the
 * tenant-mix grammar) and the canonical digest line every served
 * request is compared by.
 */
#include <gtest/gtest.h>

#include "serve/request.hpp"
#include "serve/schedule.hpp"

namespace grow::serve {
namespace {

TEST(Request, DigestLineIsCanonical)
{
    ServeRequest req;
    req.id = 3;
    req.tenant = "alpha";
    req.dataset = "cora";
    req.tier = graph::ScaleTier::Unit;
    InferenceDigest digest{100, 200, 300, 4, 5};
    EXPECT_EQ(digestLine(req, digest),
              "tenant=alpha id=3 dataset=cora model=gcn engine=grow "
              "scale=unit depth=2 seed=7 cycles=100 dram_bytes=200 "
              "mac_ops=300 cache_hits=4 cache_misses=5");
}

TEST(Schedule, DeterministicAndWeighted)
{
    ScheduleConfig config;
    config.seed = 11;
    config.count = 200;
    config.tenants = {{"heavy", 8}, {"light", 1}};
    config.datasets = {"cora", "citeseer"};
    const auto a = buildSchedule(config);
    const auto b = buildSchedule(config);
    ASSERT_EQ(a.size(), 200u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].atUs, b[i].atUs);
        EXPECT_EQ(a[i].request.tenant, b[i].request.tenant);
        EXPECT_EQ(a[i].request.dataset, b[i].request.dataset);
        EXPECT_EQ(a[i].request.seed, b[i].request.seed);
    }
    // Arrival times strictly increase; the weighted draw skews ~8:1.
    size_t heavy = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        if (i > 0) {
            EXPECT_GT(a[i].atUs, a[i - 1].atUs);
        }
        heavy += a[i].request.tenant == "heavy";
    }
    EXPECT_GT(heavy, 150u);
    EXPECT_LT(heavy, 200u);

    // A different seed yields a different draw sequence.
    config.seed = 12;
    const auto c = buildSchedule(config);
    bool differs = false;
    for (size_t i = 0; i < a.size(); ++i)
        differs |= a[i].atUs != c[i].atUs ||
                   a[i].request.tenant != c[i].request.tenant;
    EXPECT_TRUE(differs);
}

TEST(Schedule, TenantMixParsing)
{
    std::vector<TenantMix> mix;
    std::string error;
    ASSERT_TRUE(parseTenantMix("alpha:3,beta,gamma:1", mix, &error));
    ASSERT_EQ(mix.size(), 3u);
    EXPECT_EQ(mix[0].name, "alpha");
    EXPECT_EQ(mix[0].weight, 3u);
    EXPECT_EQ(mix[1].name, "beta");
    EXPECT_EQ(mix[1].weight, 1u);
    EXPECT_FALSE(parseTenantMix("", mix, &error));
    EXPECT_FALSE(parseTenantMix(":2", mix, &error));
    EXPECT_FALSE(parseTenantMix("a:0", mix, &error));
    EXPECT_FALSE(parseTenantMix("a:x", mix, &error));
}

} // namespace
} // namespace grow::serve
