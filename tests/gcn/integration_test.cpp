/**
 * @file
 * Whole-system integration: the paper's headline claims, checked as
 * directional properties at unit scale for every dataset. These are the
 * "does the reproduction behave like the paper says" tests; the bench
 * harness quantifies the same effects at larger scale.
 */
#include <gtest/gtest.h>

#include "accel/gamma.hpp"
#include "accel/gcnax.hpp"
#include "accel/matraptor.hpp"
#include "core/grow.hpp"
#include "gcn/runner.hpp"

namespace grow::gcn {
namespace {

struct WorkloadCache
{
    static const GcnWorkload &
    get(const std::string &name)
    {
        static std::map<std::string, GcnWorkload> cache;
        auto it = cache.find(name);
        if (it == cache.end()) {
            WorkloadConfig c;
            c.tier = graph::ScaleTier::Unit;
            it = cache.emplace(name, buildWorkload(
                                         graph::datasetByName(name), c))
                     .first;
        }
        return it->second;
    }
};

class DatasetSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(DatasetSweep, GrowReducesTrafficVsGcnax)
{
    const auto &w = WorkloadCache::get(GetParam());
    core::GrowSim grow((core::GrowConfig()));
    accel::GcnaxSim gcnax((accel::GcnaxConfig()));
    RunOptions gopt;
    gopt.usePartitioning = true;
    RunOptions bopt;
    auto rg = runInference(grow, w, gopt);
    auto rb = runInference(gcnax, w, bopt);
    // At unit scale (dense-ish mini graphs) GROW should at minimum be
    // traffic-competitive; on sparse datasets it must win.
    EXPECT_LT(rg.totalTrafficBytes(),
              rb.totalTrafficBytes() * 3 / 2)
        << GetParam();
}

TEST_P(DatasetSweep, AggregationLookupsCoverAllNonZeros)
{
    const auto &w = WorkloadCache::get(GetParam());
    core::GrowSim grow((core::GrowConfig()));
    RunOptions opt;
    opt.usePartitioning = true;
    auto r = runInference(grow, w, opt);
    EXPECT_EQ(r.cacheHits + r.cacheMisses, 2 * w.adjacency().nnz());
}

TEST_P(DatasetSweep, EnergyBreakdownComplete)
{
    const auto &w = WorkloadCache::get(GetParam());
    core::GrowSim grow((core::GrowConfig()));
    RunOptions opt;
    opt.usePartitioning = true;
    auto r = runInference(grow, w, opt);
    EXPECT_GT(r.energy.total(), 0.0);
    EXPECT_GT(r.energy.dramPj, 0.0);
    EXPECT_GT(r.energy.staticPj, 0.0);
    EXPECT_GT(r.energy.macPj, 0.0);
    EXPECT_GT(r.energy.sramPj, 0.0);
    EXPECT_GT(r.energy.rfPj, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetSweep,
                         ::testing::Values("cora", "citeseer", "pubmed",
                                           "flickr", "reddit", "yelp",
                                           "pokec", "amazon"));

TEST(Integration, PartitioningImprovesHitRateOnCommunityGraphs)
{
    // Unit-scale yelp: strong planted communities.
    const auto &w = WorkloadCache::get("yelp");
    core::GrowSim grow((core::GrowConfig()));
    RunOptions with;
    with.usePartitioning = true;
    RunOptions without;
    without.usePartitioning = false;
    auto rw = runInference(grow, w, with);
    auto ro = runInference(grow, w, without);
    // At unit scale everything may fit in the cache; partitioning must
    // never hurt by more than a whisker and traffic must not blow up.
    EXPECT_GE(rw.cacheHitRate() + 0.05, ro.cacheHitRate());
}

TEST(Integration, GrowBeatsSparseSparseBaselines)
{
    // Sec. VII-H: MatRaptor (no cache, CSR-RHS tax) and GAMMA (LRU
    // fiber cache) both trail GROW on GCN SpDeGEMM.
    const auto &w = WorkloadCache::get("pokec");
    core::GrowSim grow((core::GrowConfig()));
    accel::MatRaptorSim mat((accel::MatRaptorConfig()));
    accel::GammaSim gam((accel::GammaConfig()));
    RunOptions gopt;
    gopt.usePartitioning = true;
    RunOptions bopt;
    auto rg = runInference(grow, w, gopt);
    auto rm = runInference(mat, w, bopt);
    auto ra = runInference(gam, w, bopt);
    EXPECT_LT(rg.totalCycles, rm.totalCycles);
    EXPECT_LE(rg.totalCycles, ra.totalCycles);
    EXPECT_LT(rg.totalTrafficBytes(), rm.totalTrafficBytes());
    // And GAMMA beats MatRaptor (its fiber cache captures reuse).
    EXPECT_LT(ra.totalTrafficBytes(), rm.totalTrafficBytes());
}

TEST(Integration, AblationOrderingHolds)
{
    // Fig. 21: baseline (cache only, no runahead) < +runahead <
    // +partitioning, measured in cycles (lower is better).
    const auto &w = WorkloadCache::get("amazon");
    RunOptions noPart;
    RunOptions part;
    part.usePartitioning = true;

    core::GrowConfig base;
    base.runaheadDegree = 1;
    core::GrowConfig runahead;
    runahead.runaheadDegree = 16;

    core::GrowSim simBase(base);
    core::GrowSim simRunahead(runahead);

    auto r1 = runInference(simBase, w, noPart);
    auto r2 = runInference(simRunahead, w, noPart);
    auto r3 = runInference(simRunahead, w, part);
    EXPECT_LE(r2.totalCycles, r1.totalCycles);
    EXPECT_LE(r3.totalCycles, r2.totalCycles + r2.totalCycles / 10);
}

TEST(Integration, BandwidthSensitivityGcnaxSteeper)
{
    // Fig. 25(b): GCNAX's throughput degrades more steeply than GROW's
    // when bandwidth shrinks 128 -> 32 GB/s.
    const auto &w = WorkloadCache::get("amazon");
    auto slowdown = [&](auto makeSim) {
        auto fast = makeSim(128.0);
        auto slow = makeSim(32.0);
        RunOptions opt;
        auto rf = runInference(*fast, w, opt);
        auto rs = runInference(*slow, w, opt);
        return static_cast<double>(rs.totalCycles) /
               static_cast<double>(rf.totalCycles);
    };
    double growSlowdown = slowdown([](double bw) {
        core::GrowConfig c;
        c.dram.bandwidthGBps = bw;
        return std::make_unique<core::GrowSim>(c);
    });
    double gcnaxSlowdown = slowdown([](double bw) {
        accel::GcnaxConfig c;
        c.dram.bandwidthGBps = bw;
        return std::make_unique<accel::GcnaxSim>(c);
    });
    EXPECT_GE(gcnaxSlowdown, growSlowdown * 0.95);
}

} // namespace
} // namespace grow::gcn
