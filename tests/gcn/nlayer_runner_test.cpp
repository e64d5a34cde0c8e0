/**
 * @file
 * N-layer model coverage of the phase-plan runner: plans of arbitrary
 * depth lower correctly, execute on GROW and the baselines, and pass
 * per-phase functional verification against sparse::referenceSpMM
 * (runInference panics internally on any mismatch).
 */
#include <gtest/gtest.h>

#include "accel/gcnax.hpp"
#include "accel/matraptor.hpp"
#include "core/grow.hpp"
#include "gcn/runner.hpp"

namespace grow::gcn {
namespace {

GcnWorkload
unitWorkload(const std::string &name, uint32_t layers,
             bool functional = false)
{
    WorkloadConfig c;
    c.tier = graph::ScaleTier::Unit;
    c.numLayers = layers;
    c.functionalData = functional;
    return buildWorkload(graph::datasetByName(name), c);
}

TEST(NLayerRunner, PlanLowersTwoPhasesPerLayer)
{
    for (uint32_t depth : {1u, 2u, 3u, 4u}) {
        auto w = unitWorkload("cora", depth);
        RunOptions opt;
        opt.usePartitioning = true;
        auto plan = buildPhasePlan(w, opt);
        ASSERT_EQ(plan.size(), 2u * depth) << "depth " << depth;
        for (uint32_t i = 0; i < plan.size(); ++i) {
            EXPECT_EQ(plan[i].layer, i / 2);
            EXPECT_EQ(plan[i].problem.phase,
                      i % 2 == 0 ? accel::Phase::Combination
                                 : accel::Phase::Aggregation);
            EXPECT_EQ(plan[i].problem.rhsCols, w.layer(i / 2).outDim);
        }
        // Combination LHS is the layer's feature matrix; aggregation
        // LHS is always the (partitioned) adjacency.
        for (uint32_t layer = 0; layer < depth; ++layer) {
            EXPECT_EQ(plan[2 * layer].problem.lhs,
                      &w.xPartitioned(layer));
            EXPECT_EQ(plan[2 * layer + 1].problem.lhs,
                      &w.adjacencyPartitioned());
        }
    }
}

TEST(NLayerRunner, PlanAttachesArtefactsOnlyToAggregation)
{
    auto w = unitWorkload("citeseer", 3);
    RunOptions opt;
    opt.usePartitioning = true;
    auto plan = buildPhasePlan(w, opt);
    for (const auto &step : plan) {
        if (step.problem.phase == accel::Phase::Aggregation) {
            EXPECT_EQ(step.problem.clustering,
                      &w.relabel().clustering);
            EXPECT_EQ(step.problem.hdnLists, &w.hdnLists());
        } else {
            EXPECT_EQ(step.problem.clustering, nullptr);
            EXPECT_TRUE(step.problem.rhsOnChip);
        }
    }
}

class DepthSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(DepthSweep, FunctionalOnGrowMatchesReferencePerPhase)
{
    const uint32_t depth = GetParam();
    auto w = unitWorkload("cora", depth, /*functional=*/true);
    core::GrowSim grow((core::GrowConfig()));
    RunOptions opt;
    opt.sim.functional = true;
    opt.usePartitioning = true;
    // Each phase output is checked against sparse::referenceSpMM
    // inside executePlan; a mismatch panics.
    InferenceResult r;
    EXPECT_NO_THROW(r = runInference(grow, w, opt));
    ASSERT_EQ(r.phases.size(), 2u * depth);
    for (uint32_t i = 0; i < r.phases.size(); ++i)
        EXPECT_EQ(r.phases[i].layer, i / 2);
}

TEST_P(DepthSweep, FunctionalOnBaselinesMatchesReferencePerPhase)
{
    const uint32_t depth = GetParam();
    auto w = unitWorkload("citeseer", depth, /*functional=*/true);
    RunOptions opt;
    opt.sim.functional = true;
    accel::GcnaxSim gcnax((accel::GcnaxConfig()));
    EXPECT_NO_THROW(runInference(gcnax, w, opt));
    accel::MatRaptorSim mat((accel::MatRaptorConfig()));
    EXPECT_NO_THROW(runInference(mat, w, opt));
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthSweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(NLayerRunner, MacOpsScaleWithDepth)
{
    auto w = unitWorkload("cora", 3);
    core::GrowSim grow((core::GrowConfig()));
    RunOptions opt;
    opt.usePartitioning = true;
    auto r = runInference(grow, w, opt);
    uint64_t expect = 0;
    for (uint32_t i = 0; i < w.numLayers(); ++i) {
        expect += w.x(i).nnz() * w.layer(i).outDim;       // combination
        expect += w.adjacency().nnz() * w.layer(i).outDim;  // aggregation
    }
    EXPECT_EQ(r.macOps, expect);
    EXPECT_EQ(r.cacheHits + r.cacheMisses, 3 * w.adjacency().nnz());
}

TEST(NLayerRunner, ExecutePlanRunsCallerBuiltPlans)
{
    // The plan is data: a caller can lower once and execute on several
    // engines.
    auto w = unitWorkload("pubmed", 2, /*functional=*/true);
    RunOptions opt;
    opt.sim.functional = true;
    auto plan = buildPhasePlan(w, opt);
    core::GrowSim grow((core::GrowConfig()));
    accel::GcnaxSim gcnax((accel::GcnaxConfig()));
    auto rg = executePlan(grow, plan, opt);
    auto rb = executePlan(gcnax, plan, opt);
    EXPECT_EQ(rg.phases.size(), plan.size());
    EXPECT_EQ(rb.phases.size(), plan.size());
    EXPECT_EQ(rg.macOps, rb.macOps);
}

} // namespace
} // namespace grow::gcn
