/**
 * @file
 * Model-zoo lowering (Sec. VIII): golden plan shapes per ModelKind,
 * the model=gcn bit-for-bit regression lock against the original
 * 2-SpDeGEMM-per-layer lowering, functional execution of every model,
 * SageMean cross-engine equivalence, the GIN epsilon fold, the GAT
 * area/energy overhead wiring, and the executor's unconsumed-output
 * hardening.
 */
#include <gtest/gtest.h>

#include "accel/gcnax.hpp"
#include "accel/matraptor.hpp"
#include "core/grow.hpp"
#include "gcn/runner.hpp"

namespace grow::gcn {
namespace {

GcnWorkload
unitWorkload(const std::string &name, ModelKind model,
             uint32_t layers = 2, bool functional = false)
{
    WorkloadConfig c;
    c.tier = graph::ScaleTier::Unit;
    c.model = model;
    c.numLayers = layers;
    c.functionalData = functional;
    return buildWorkload(graph::datasetByName(name), c);
}

/** The pre-model-zoo lowering, reproduced verbatim: two SpDeGEMMs per
 *  layer, combination then aggregation. */
PhasePlan
legacyGcnPlan(const GcnWorkload &w, const RunOptions &options)
{
    const bool part = options.usePartitioning;
    const bool functional = options.sim.functional;
    const sparse::CsrMatrix &A =
        part ? w.adjacencyPartitioned() : w.adjacency();
    PhasePlan plan;
    for (uint32_t layer = 0; layer < w.numLayers(); ++layer) {
        PlannedPhase comb;
        comb.layer = layer;
        comb.op = PhaseOp::Combination;
        comb.problem.lhs = part ? &w.xPartitioned(layer) : &w.x(layer);
        comb.problem.rhsCols = w.layer(layer).outDim;
        comb.problem.rhs = functional ? &w.weight(layer) : nullptr;
        comb.problem.phase = accel::Phase::Combination;
        comb.problem.rhsOnChip = true;
        plan.push_back(comb);

        PlannedPhase agg;
        agg.layer = layer;
        agg.op = PhaseOp::Aggregation;
        agg.problem.lhs = &A;
        agg.problem.rhsCols = w.layer(layer).outDim;
        agg.problem.phase = accel::Phase::Aggregation;
        if (part) {
            agg.problem.clustering = &w.relabel().clustering;
            agg.problem.hdnLists = &w.hdnLists();
        }
        plan.push_back(agg);
    }
    return plan;
}

void
expectResultsBitIdentical(const InferenceResult &a,
                          const InferenceResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.combinationCycles, b.combinationCycles);
    EXPECT_EQ(a.aggregationCycles, b.aggregationCycles);
    EXPECT_EQ(a.attentionCycles, b.attentionCycles);
    EXPECT_EQ(a.macOps, b.macOps);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    for (size_t i = 0; i < mem::kNumTrafficClasses; ++i) {
        EXPECT_EQ(a.traffic.readBytes[i], b.traffic.readBytes[i]);
        EXPECT_EQ(a.traffic.writeBytes[i], b.traffic.writeBytes[i]);
    }
    EXPECT_EQ(a.energy.macPj, b.energy.macPj);
    EXPECT_EQ(a.energy.rfPj, b.energy.rfPj);
    EXPECT_EQ(a.energy.sramPj, b.energy.sramPj);
    EXPECT_EQ(a.energy.dramPj, b.energy.dramPj);
    EXPECT_EQ(a.energy.staticPj, b.energy.staticPj);
    EXPECT_EQ(a.energy.auxPj, b.energy.auxPj);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].layer, b.phases[i].layer);
        EXPECT_EQ(a.phases[i].result.cycles, b.phases[i].result.cycles);
    }
}

TEST(ModelZoo, DefaultGcnReproducesLegacyLoweringBitForBit)
{
    // The regression lock of the model-zoo refactor: model=Gcn (the
    // default) must lower to the exact pre-refactor plan and produce a
    // bit-identical InferenceResult.
    auto w = unitWorkload("cora", ModelKind::Gcn);
    RunOptions opt;
    opt.usePartitioning = true;

    auto plan = buildPhasePlan(w, opt);
    auto legacy = legacyGcnPlan(w, opt);
    ASSERT_EQ(plan.size(), legacy.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(plan[i].layer, legacy[i].layer);
        EXPECT_EQ(plan[i].op, legacy[i].op);
        EXPECT_EQ(plan[i].model, ModelKind::Gcn);
        EXPECT_EQ(plan[i].problem.lhs, legacy[i].problem.lhs);
        EXPECT_EQ(plan[i].problem.rhsCols, legacy[i].problem.rhsCols);
        EXPECT_EQ(plan[i].problem.rhsOnChip,
                  legacy[i].problem.rhsOnChip);
        EXPECT_EQ(plan[i].problem.clustering,
                  legacy[i].problem.clustering);
        EXPECT_EQ(plan[i].problem.hdnLists, legacy[i].problem.hdnLists);
    }

    core::GrowSim grow1((core::GrowConfig()));
    core::GrowSim grow2((core::GrowConfig()));
    auto rNew = executePlan(grow1, plan, opt);
    auto rOld = executePlan(grow2, legacy, opt);
    expectResultsBitIdentical(rNew, rOld);
    EXPECT_EQ(rNew.model, ModelKind::Gcn);
    EXPECT_EQ(rNew.modelAreaOverhead, 0.0);
}

TEST(ModelZoo, PlanShapesPerModelKind)
{
    const struct
    {
        ModelKind model;
        std::vector<PhaseOp> layerOps;
    } golden[] = {
        {ModelKind::Gcn,
         {PhaseOp::Combination, PhaseOp::Aggregation}},
        {ModelKind::SageMean,
         {PhaseOp::Combination, PhaseOp::Aggregation}},
        {ModelKind::SagePool,
         {PhaseOp::Combination, PhaseOp::Aggregation}},
        {ModelKind::Gin,
         {PhaseOp::Combination, PhaseOp::Aggregation,
          PhaseOp::Combination}},
        {ModelKind::Gat,
         {PhaseOp::Combination, PhaseOp::AttentionScore,
          PhaseOp::Aggregation}},
    };
    for (const auto &g : golden) {
        auto w = unitWorkload("cora", g.model, 3);
        RunOptions opt;
        opt.usePartitioning = true;
        auto plan = buildPhasePlan(w, opt);
        ASSERT_EQ(plan.size(), g.layerOps.size() * w.numLayers())
            << modelKindName(g.model);
        ASSERT_EQ(g.layerOps.size(), modelPhasesPerLayer(g.model));
        for (size_t i = 0; i < plan.size(); ++i) {
            EXPECT_EQ(plan[i].layer, i / g.layerOps.size());
            EXPECT_EQ(plan[i].op, g.layerOps[i % g.layerOps.size()])
                << modelKindName(g.model) << " step " << i;
            EXPECT_EQ(plan[i].model, g.model);
        }
    }
}

TEST(ModelZoo, SageAggregatesOverSampledAdjacency)
{
    auto w = unitWorkload("citeseer", ModelKind::SageMean);
    ASSERT_TRUE(w.hasSampling());
    RunOptions opt;
    opt.usePartitioning = true;
    auto plan = buildPhasePlan(w, opt);
    for (const auto &step : plan)
        if (step.op == PhaseOp::Aggregation) {
            EXPECT_EQ(step.problem.lhs,
                      &w.adjacencySampledPartitioned());
        }
    // The unpartitioned layout streams the original-labelling sample.
    RunOptions flat;
    auto flatPlan = buildPhasePlan(w, flat);
    for (const auto &step : flatPlan)
        if (step.op == PhaseOp::Aggregation) {
            EXPECT_EQ(step.problem.lhs, &w.adjacencySampled());
        }
}

TEST(ModelZoo, GatAttentionStreamsAdjacencyWithArtefacts)
{
    auto w = unitWorkload("cora", ModelKind::Gat);
    RunOptions opt;
    opt.usePartitioning = true;
    auto plan = buildPhasePlan(w, opt);
    for (const auto &step : plan) {
        if (step.op != PhaseOp::AttentionScore)
            continue;
        EXPECT_EQ(step.problem.lhs, &w.adjacencyPartitioned());
        EXPECT_EQ(step.problem.clustering, &w.relabel().clustering);
        EXPECT_EQ(step.problem.hdnLists, &w.hdnLists());
        EXPECT_FALSE(step.problem.rhsOnChip);
    }
}

TEST(ModelZoo, GinTrailingCombinationUsesMlpOperands)
{
    auto w = unitWorkload("cora", ModelKind::Gin, 2);
    RunOptions opt;
    opt.usePartitioning = true;
    auto plan = buildPhasePlan(w, opt);
    ASSERT_EQ(plan.size(), 6u);
    for (uint32_t layer = 0; layer < 2; ++layer) {
        // The aggregation streams GIN's sum operand, not the
        // normalized adjacency.
        EXPECT_EQ(plan[3 * layer + 1].problem.lhs,
                  &w.adjacencyGinPartitioned);
        const auto &mlp = plan[3 * layer + 2];
        EXPECT_EQ(mlp.op, PhaseOp::Combination);
        EXPECT_EQ(mlp.problem.lhs, &w.xMlpPartitioned(layer));
        EXPECT_EQ(mlp.problem.rhsCols, w.layer(layer).outDim);
        // Same-layer combinations stay distinguishable by provenance.
        EXPECT_NE(mlp.problem.label, plan[3 * layer].problem.label);
        // The stand-in for the aggregated output is N x outDim.
        EXPECT_EQ(w.xMlp(layer).cols(), w.layer(layer).outDim);
    }
}

class ModelSweep : public ::testing::TestWithParam<ModelKind>
{
};

TEST_P(ModelSweep, FunctionalInferenceOnGrow)
{
    auto w = unitWorkload("cora", GetParam(), 2, /*functional=*/true);
    core::GrowSim grow((core::GrowConfig()));
    RunOptions opt;
    opt.sim.functional = true;
    opt.usePartitioning = true;
    // Every phase is checked against sparse::referenceSpMM inside
    // executePlan; a mismatch (or an unconsumed output) panics.
    InferenceResult r;
    EXPECT_NO_THROW(r = runInference(grow, w, opt));
    EXPECT_EQ(r.phases.size(),
              modelPhasesPerLayer(GetParam()) * w.numLayers());
    EXPECT_EQ(r.model, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Models, ModelSweep,
                         ::testing::ValuesIn(allModelKinds()));

TEST(ModelZoo, SageMeanFunctionallyEquivalentAcrossEngines)
{
    auto w = unitWorkload("citeseer", ModelKind::SageMean, 2,
                          /*functional=*/true);
    RunOptions opt;
    opt.sim.functional = true;

    core::GrowSim grow((core::GrowConfig()));
    accel::GcnaxSim gcnax((accel::GcnaxConfig()));
    accel::MatRaptorSim mat((accel::MatRaptorConfig()));
    InferenceResult rg, rx, rm;
    EXPECT_NO_THROW(rg = runInference(grow, w, opt));
    EXPECT_NO_THROW(rx = runInference(gcnax, w, opt));
    EXPECT_NO_THROW(rm = runInference(mat, w, opt));
    // All three engines executed the same sampled-operand plan (each
    // verified per phase against the reference SpMM, so their outputs
    // agree); the MAC work is structural and must match exactly.
    EXPECT_EQ(rg.macOps, rx.macOps);
    EXPECT_EQ(rg.macOps, rm.macOps);
    uint64_t expect = 0;
    for (uint32_t i = 0; i < w.numLayers(); ++i)
        expect += (w.x(i).nnz() + w.adjacencySampled().nnz()) *
                  w.layer(i).outDim;
    EXPECT_EQ(rg.macOps, expect);
}

TEST(ModelZoo, GinEpsilonWeightsTheCentralNode)
{
    // GIN's aggregation operand is the *sum* operand A + (1+eps)I:
    // epsilon must weight exactly the diagonal, leaving neighbour
    // contributions at 1 -- a global W scale would not do (it cancels
    // into a uniform output factor).
    WorkloadConfig cfg;
    cfg.tier = graph::ScaleTier::Unit;
    cfg.model = ModelKind::Gin;
    cfg.functionalData = true;
    cfg.ginEpsilon = 0.5;
    auto w = buildWorkload(graph::datasetByName("cora"), cfg);

    const auto &g = w.graph();
    ASSERT_EQ(w.adjacencyGin.rows(), g.numNodes());
    EXPECT_EQ(w.adjacencyGin.nnz(), g.numArcs() + g.numNodes());
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        auto cols = w.adjacencyGin.rowCols(v);
        auto vals = w.adjacencyGin.rowVals(v);
        bool self = false;
        for (size_t i = 0; i < cols.size(); ++i) {
            if (cols[i] == v) {
                self = true;
                EXPECT_DOUBLE_EQ(vals[i], 1.5);
            } else {
                EXPECT_DOUBLE_EQ(vals[i], 1.0);
                EXPECT_TRUE(g.hasEdge(v, cols[i]));
            }
        }
        EXPECT_TRUE(self) << "node " << v;
    }

    // Epsilon never touches the weights: same seed, different eps,
    // identical W (the MLP stages are eps-independent).
    cfg.ginEpsilon = 0.0;
    auto plain = buildWorkload(graph::datasetByName("cora"), cfg);
    EXPECT_DOUBLE_EQ(w.weight(0).at(0, 0), plain.weight(0).at(0, 0));
    EXPECT_DOUBLE_EQ(w.mlpWeight(0).at(0, 0),
                     plain.mlpWeight(0).at(0, 0));
}

TEST(ModelZoo, GatCarriesSecViiiOverheads)
{
    auto w = unitWorkload("cora", ModelKind::Gat);
    core::GrowSim grow((core::GrowConfig()));
    RunOptions opt;
    opt.usePartitioning = true;
    auto r = runInference(grow, w, opt);
    EXPECT_EQ(r.model, ModelKind::Gat);
    EXPECT_NEAR(r.modelAreaOverhead, 0.017, 1e-12);
    EXPECT_GT(r.attentionCycles, 0u);
    EXPECT_GT(r.energy.auxPj, 0.0);
    // Exactly the attention-score phases carry the softmax unit's
    // energy, at the documented fraction of their MAC energy.
    for (const auto &ph : r.phases) {
        if (ph.op == PhaseOp::AttentionScore)
            EXPECT_DOUBLE_EQ(ph.energy.auxPj, 0.16 * ph.energy.macPj);
        else
            EXPECT_EQ(ph.energy.auxPj, 0.0);
    }
    EXPECT_EQ(r.totalCycles, r.combinationCycles + r.aggregationCycles +
                                 r.attentionCycles);
}

TEST(ModelZoo, SagePoolCarriesComparatorOverheadOnAggregation)
{
    auto w = unitWorkload("cora", ModelKind::SagePool);
    core::GrowSim grow((core::GrowConfig()));
    RunOptions opt;
    opt.usePartitioning = true;
    auto r = runInference(grow, w, opt);
    EXPECT_NEAR(r.modelAreaOverhead, 0.014, 1e-12);
    for (const auto &ph : r.phases) {
        if (ph.op == PhaseOp::Aggregation)
            EXPECT_GT(ph.energy.auxPj, 0.0);
        else
            EXPECT_EQ(ph.energy.auxPj, 0.0);
    }
}

TEST(ModelZoo, ExecutorRejectsPlansLeavingOutputsUnconsumed)
{
    // A truncated GAT plan (combination + attention score, no
    // aggregation) leaves the combination output pending: the
    // end-of-plan hardening must panic rather than drop it silently.
    auto w = unitWorkload("cora", ModelKind::Gat, 1, /*functional=*/true);
    RunOptions opt;
    opt.sim.functional = true;
    auto plan = buildPhasePlan(w, opt);
    ASSERT_EQ(plan.size(), 3u);
    plan.pop_back();
    core::GrowSim grow((core::GrowConfig()));
    EXPECT_ANY_THROW(executePlan(grow, plan, opt));
}

TEST(ModelZoo, AggregationWithoutCombinationNamesModelAndLayer)
{
    auto w = unitWorkload("cora", ModelKind::Gcn, 1, /*functional=*/true);
    RunOptions opt;
    opt.sim.functional = true;
    auto plan = buildPhasePlan(w, opt);
    ASSERT_EQ(plan.size(), 2u);
    plan.erase(plan.begin()); // orphan the aggregation step
    core::GrowSim grow((core::GrowConfig()));
    try {
        executePlan(grow, plan, opt);
        FAIL() << "orphaned aggregation must panic";
    } catch (const std::exception &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("gcn"), std::string::npos) << msg;
        EXPECT_NE(msg.find("layer 0"), std::string::npos) << msg;
    }
}

} // namespace
} // namespace grow::gcn
