/**
 * @file
 * Cross-engine end-to-end consistency: the full 2-layer inference flow
 * must hold the same structural invariants for every engine, and the
 * relabeled (partitioned) execution must be equivalent to the original
 * layout up to the row permutation.
 */
#include <gtest/gtest.h>

#include "accel/gamma.hpp"
#include "accel/gcnax.hpp"
#include "accel/matraptor.hpp"
#include "core/grow.hpp"
#include "gcn/runner.hpp"
#include "graph/normalize.hpp"
#include "sparse/convert.hpp"

namespace grow::gcn {
namespace {

const GcnWorkload &
unitWorkload()
{
    static GcnWorkload w = [] {
        WorkloadConfig c;
        c.tier = graph::ScaleTier::Unit;
        c.functionalData = true;
        return buildWorkload(graph::datasetByName("flickr"), c);
    }();
    return w;
}

class EngineSweep : public ::testing::TestWithParam<const char *>
{
  protected:
    std::unique_ptr<accel::AcceleratorSim>
    make()
    {
        std::string name = GetParam();
        if (name == "grow")
            return std::make_unique<core::GrowSim>(core::GrowConfig{});
        if (name == "gcnax")
            return std::make_unique<accel::GcnaxSim>(
                accel::GcnaxConfig{});
        if (name == "matraptor")
            return std::make_unique<accel::MatRaptorSim>(
                accel::MatRaptorConfig{});
        return std::make_unique<accel::GammaSim>(accel::GammaConfig{});
    }
};

TEST_P(EngineSweep, EndToEndFunctionalInference)
{
    auto engine = make();
    RunOptions opt;
    opt.sim.functional = true; // runner panics on any mismatch
    EXPECT_NO_THROW(runInference(*engine, unitWorkload(), opt));
}

TEST_P(EngineSweep, MacWorkIdenticalAcrossEngines)
{
    auto engine = make();
    RunOptions opt;
    auto r = runInference(*engine, unitWorkload(), opt);
    const auto &w = unitWorkload();
    uint64_t expect =
        w.x(0).nnz() * w.shape().hidden +
        w.adjacency().nnz() * w.shape().hidden +
        w.x(1).nnz() * w.shape().classes +
        w.adjacency().nnz() * w.shape().classes;
    EXPECT_EQ(r.macOps, expect);
}

TEST_P(EngineSweep, EnergyCategoriesAllPopulated)
{
    auto engine = make();
    RunOptions opt;
    auto r = runInference(*engine, unitWorkload(), opt);
    EXPECT_GT(r.energy.macPj, 0.0);
    EXPECT_GT(r.energy.dramPj, 0.0);
    EXPECT_GT(r.energy.sramPj, 0.0);
    EXPECT_GT(r.energy.staticPj, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineSweep,
                         ::testing::Values("grow", "gcnax", "matraptor",
                                           "gamma"));

TEST(CrossLayout, PartitionedExecutionIsPermutationEquivalent)
{
    // Running GROW on the relabeled layout must produce the original
    // layout's result with rows permuted by newToOld.
    const auto &w = unitWorkload();
    core::GrowSim sim((core::GrowConfig()));
    accel::SimOptions opt;
    opt.functional = true;

    Rng rng(3);
    auto rhsOrig =
        sparse::randomDense(w.nodes(), w.shape().hidden, rng);
    // Permute RHS rows to the relabeled space.
    sparse::DenseMatrix rhsPart(w.nodes(), w.shape().hidden);
    for (NodeId i = 0; i < w.nodes(); ++i)
        for (uint32_t j = 0; j < w.shape().hidden; ++j)
            rhsPart.at(i, j) = rhsOrig.at(w.relabel().newToOld[i], j);

    accel::SpDeGemmProblem orig;
    orig.lhs = &w.adjacency();
    orig.rhsCols = w.shape().hidden;
    orig.rhs = &rhsOrig;
    auto ro = sim.run(orig, opt);

    accel::SpDeGemmProblem part;
    part.lhs = &w.adjacencyPartitioned();
    part.rhsCols = w.shape().hidden;
    part.rhs = &rhsPart;
    part.clustering = &w.relabel().clustering;
    part.hdnLists = &w.hdnLists();
    auto rp = sim.run(part, opt);

    for (NodeId i = 0; i < w.nodes(); ++i)
        for (uint32_t j = 0; j < w.shape().hidden; ++j)
            ASSERT_NEAR(rp.output.at(i, j),
                        ro.output.at(w.relabel().newToOld[i], j), 1e-9)
                << "row " << i;
}

TEST(CrossLayout, GraphRelabelAgreesWithCsrPermutation)
{
    // graph::Graph::relabeled and CsrMatrix::permutedSymmetric must
    // describe the same structure.
    const auto &w = unitWorkload();
    auto rg = w.graph().relabeled(w.relabel().newToOld);
    auto fromGraph = graph::normalizedAdjacency(rg, true);
    EXPECT_EQ(fromGraph.rowPtr(), w.adjacencyPartitioned().rowPtr());
    EXPECT_EQ(fromGraph.colIdx(), w.adjacencyPartitioned().colIdx());
    for (size_t i = 0; i < fromGraph.values().size(); ++i)
        ASSERT_NEAR(fromGraph.values()[i],
                    w.adjacencyPartitioned().values()[i], 1e-12);
}

} // namespace
} // namespace grow::gcn
