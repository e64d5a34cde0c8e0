#include <gtest/gtest.h>

#include "accel/gcnax.hpp"
#include "core/grow.hpp"
#include "gcn/runner.hpp"

namespace grow::gcn {
namespace {

GcnWorkload
unitWorkload(const std::string &name, bool functional = false)
{
    WorkloadConfig c;
    c.tier = graph::ScaleTier::Unit;
    c.functionalData = functional;
    return buildWorkload(graph::datasetByName(name), c);
}

TEST(Runner, FourPhasesPerInference)
{
    auto w = unitWorkload("cora");
    core::GrowSim grow((core::GrowConfig()));
    RunOptions opt;
    opt.usePartitioning = true;
    auto r = runInference(grow, w, opt);
    ASSERT_EQ(r.phases.size(), 4u);
    EXPECT_EQ(r.phases[0].result.phase, accel::Phase::Combination);
    EXPECT_EQ(r.phases[1].result.phase, accel::Phase::Aggregation);
    EXPECT_EQ(r.phases[2].result.phase, accel::Phase::Combination);
    EXPECT_EQ(r.phases[3].result.phase, accel::Phase::Aggregation);
}

TEST(Runner, CycleAccountingConsistent)
{
    auto w = unitWorkload("citeseer");
    core::GrowSim grow((core::GrowConfig()));
    RunOptions opt;
    opt.usePartitioning = true;
    auto r = runInference(grow, w, opt);
    Cycle sum = 0;
    for (const auto &ph : r.phases)
        sum += ph.result.cycles;
    EXPECT_EQ(r.totalCycles, sum);
    EXPECT_EQ(r.totalCycles,
              r.combinationCycles + r.aggregationCycles);
}

TEST(Runner, EnergyAggregationConsistent)
{
    auto w = unitWorkload("cora");
    core::GrowSim grow((core::GrowConfig()));
    RunOptions opt;
    opt.usePartitioning = true;
    auto r = runInference(grow, w, opt);
    double sum = 0;
    for (const auto &ph : r.phases)
        sum += ph.energy.total();
    EXPECT_NEAR(r.energy.total(), sum, 1e-6);
    EXPECT_GT(r.energy.dramPj, 0.0);
    EXPECT_GT(r.energy.macPj, 0.0);
    EXPECT_GT(r.energy.staticPj, 0.0);
}

TEST(Runner, FunctionalVerificationPasses)
{
    auto w = unitWorkload("cora", true);
    core::GrowSim grow((core::GrowConfig()));
    RunOptions opt;
    opt.sim.functional = true;
    opt.usePartitioning = true;
    // runInference panics internally on any functional mismatch.
    EXPECT_NO_THROW(runInference(grow, w, opt));
}

TEST(Runner, FunctionalVerificationAcrossEnginesAndLayouts)
{
    auto w = unitWorkload("pubmed", true);
    RunOptions part;
    part.sim.functional = true;
    part.usePartitioning = true;
    RunOptions orig;
    orig.sim.functional = true;
    orig.usePartitioning = false;

    core::GrowSim grow((core::GrowConfig()));
    EXPECT_NO_THROW(runInference(grow, w, part));
    EXPECT_NO_THROW(runInference(grow, w, orig));
    accel::GcnaxSim gcnax((accel::GcnaxConfig()));
    EXPECT_NO_THROW(runInference(gcnax, w, orig));
}

TEST(Runner, PartitioningRequiredWhenRequested)
{
    WorkloadConfig c;
    c.tier = graph::ScaleTier::Unit;
    c.plan.buildPartitioning = false;
    auto w = buildWorkload(graph::datasetByName("cora"), c);
    core::GrowSim grow((core::GrowConfig()));
    RunOptions opt;
    opt.usePartitioning = true;
    EXPECT_ANY_THROW(runInference(grow, w, opt));
}

TEST(Runner, CacheStatsOnlyFromAggregation)
{
    auto w = unitWorkload("cora");
    core::GrowSim grow((core::GrowConfig()));
    RunOptions opt;
    opt.usePartitioning = true;
    auto r = runInference(grow, w, opt);
    uint64_t aggLookups = 0;
    for (const auto &ph : r.phases)
        if (ph.result.phase == accel::Phase::Aggregation)
            aggLookups += ph.result.cacheHits + ph.result.cacheMisses;
    EXPECT_EQ(r.cacheHits + r.cacheMisses, aggLookups);
    // Each aggregation phase looks up once per adjacency non-zero.
    EXPECT_EQ(aggLookups, 2 * w.adjacency().nnz());
}

TEST(Runner, MacOpsMatchWorkloadStructure)
{
    auto w = unitWorkload("citeseer");
    core::GrowSim grow((core::GrowConfig()));
    RunOptions opt;
    opt.usePartitioning = true;
    auto r = runInference(grow, w, opt);
    uint64_t expect =
        w.x(0).nnz() * w.shape().hidden +       // comb layer 0
        w.adjacency().nnz() * w.shape().hidden + // agg layer 0
        w.x(1).nnz() * w.shape().classes +      // comb layer 1
        w.adjacency().nnz() * w.shape().classes; // agg layer 1
    EXPECT_EQ(r.macOps, expect);
}

} // namespace
} // namespace grow::gcn
