/**
 * @file
 * Seeded request schedules (deterministic, weighted tenant draws, the
 * tenant-mix grammar) and the canonical digest line every served
 * request is compared by.
 */
#include <gtest/gtest.h>

#include "serve/options.hpp"
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

/** Parsed key=value flags, as grow_serve's command line would give. */
CliArgs
flags(std::vector<std::string> items)
{
    static std::vector<std::string> storage;
    storage = std::move(items);
    std::vector<char *> argv = {const_cast<char *>("grow_serve")};
    for (auto &s : storage)
        argv.push_back(s.data());
    return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(ServeOptions, OutOfRangeScheduleValuesAreRejectedBeforeScheduling)
{
    // requests=-1 used to wrap to 4294967295 and reach reserve(); a
    // sub-2 mean gap tripped a GROW_ASSERT panic inside buildSchedule.
    for (const char *bad :
         {"requests=-1", "requests=0", "requests=1000001", "requests=abc",
          "mean_gap_us=1", "mean_gap_us=-5", "mean_gap_us=3600000001",
          "depth=0", "depth=17", "deadline_ms=-1"}) {
        try {
            scheduleFromArgs(flags({bad}));
            ADD_FAILURE() << bad << " was accepted";
        } catch (const std::runtime_error &e) {
            const std::string key =
                std::string(bad).substr(0, std::string(bad).find('='));
            EXPECT_NE(std::string(e.what()).find(key + "="),
                      std::string::npos)
                << e.what();
        }
    }
    const ScheduleConfig ok = scheduleFromArgs(
        flags({"requests=1000000", "mean_gap_us=2", "depth=16"}));
    EXPECT_EQ(ok.count, 1000000u);
    EXPECT_EQ(ok.meanGapUs, 2);
    EXPECT_EQ(ok.depth, 16u);
}

TEST(ServeOptions, OutOfRangeAdmissionValuesAreRejected)
{
    for (const char *bad : {"queue_depth=0", "queue_depth=-1",
                            "queue_depth=1000001", "queue_depth=x",
                            "default_deadline_ms=-1"})
        EXPECT_THROW(admissionFromArgs(flags({bad})), std::runtime_error)
            << bad;
    const AdmissionConfig ok =
        admissionFromArgs(flags({"queue_depth=1", "default_deadline_ms=5"}));
    EXPECT_EQ(ok.maxDepth, 1u);
    EXPECT_EQ(ok.defaultDeadlineUs, 5000);
}

} // namespace
} // namespace grow::serve
