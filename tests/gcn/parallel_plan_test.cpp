/**
 * @file
 * Phase-parallel plan execution: running the phases of one inference
 * on the worker pool must be bit-identical to the serial loop for
 * every engine, model and thread count -- each phase is hermetic (own
 * cloned engine, own DRAM model), so only the fold order matters and
 * that is fixed to plan order.
 */
#include <gtest/gtest.h>

#include "core/grow.hpp"
#include "driver/engine_factory.hpp"
#include "gcn/runner.hpp"
#include "gcn/workload.hpp"
#include "graph/datasets.hpp"

namespace grow::gcn {
namespace {

GcnWorkload
makeWorkload(ModelKind model, uint32_t layers, bool functional = false)
{
    WorkloadConfig wc;
    wc.tier = graph::ScaleTier::Unit;
    wc.model = model;
    wc.numLayers = layers;
    wc.functionalData = functional;
    return buildWorkload(graph::datasetByName("cora"), wc);
}

/** Full-surface bit-identity of two inference results. */
void
expectBitIdentical(const InferenceResult &a, const InferenceResult &b,
                   const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.engine, b.engine);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.combinationCycles, b.combinationCycles);
    EXPECT_EQ(a.aggregationCycles, b.aggregationCycles);
    EXPECT_EQ(a.attentionCycles, b.attentionCycles);
    EXPECT_EQ(a.macOps, b.macOps);
    for (size_t i = 0; i < mem::kNumTrafficClasses; ++i) {
        EXPECT_EQ(a.traffic.readBytes[i], b.traffic.readBytes[i]) << i;
        EXPECT_EQ(a.traffic.writeBytes[i], b.traffic.writeBytes[i]) << i;
    }
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    EXPECT_EQ(a.modelAreaOverhead, b.modelAreaOverhead);
    // Energy folds per-phase doubles in plan order: bit-equality, not
    // just closeness.
    EXPECT_EQ(a.energy.macPj, b.energy.macPj);
    EXPECT_EQ(a.energy.rfPj, b.energy.rfPj);
    EXPECT_EQ(a.energy.sramPj, b.energy.sramPj);
    EXPECT_EQ(a.energy.dramPj, b.energy.dramPj);
    EXPECT_EQ(a.energy.staticPj, b.energy.staticPj);
    EXPECT_EQ(a.energy.auxPj, b.energy.auxPj);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].layer, b.phases[i].layer) << i;
        EXPECT_EQ(a.phases[i].op, b.phases[i].op) << i;
        EXPECT_EQ(a.phases[i].result.cycles, b.phases[i].result.cycles)
            << i;
        EXPECT_EQ(a.phases[i].result.macOps, b.phases[i].result.macOps)
            << i;
        EXPECT_EQ(a.phases[i].result.label, b.phases[i].result.label)
            << i;
        EXPECT_EQ(a.phases[i].result.traffic.total(),
                  b.phases[i].result.traffic.total())
            << i;
    }
}

InferenceResult
runWith(const std::string &engine_key, const GcnWorkload &w,
        uint32_t threads)
{
    auto spec = driver::engineByKey(engine_key);
    auto engine = spec.make();
    RunOptions opt;
    opt.usePartitioning = spec.usePartitioning;
    opt.sim.threads = threads;
    return runInference(*engine, w, opt);
}

TEST(ParallelPlan, ThreadCountsAreBitIdenticalForEveryEngine)
{
    // The issue's headline contract: threads=1, 2 and 8 produce the
    // same EngineResult bits (cycles, traffic, energy, hit rates).
    auto w = makeWorkload(ModelKind::Gcn, 3);
    for (const char *key : {"grow", "gcnax", "gamma", "matraptor"}) {
        auto r1 = runWith(key, w, 1);
        auto r2 = runWith(key, w, 2);
        auto r8 = runWith(key, w, 8);
        expectBitIdentical(r1, r2, std::string(key) + " threads=2");
        expectBitIdentical(r1, r8, std::string(key) + " threads=8");
    }
}

TEST(ParallelPlan, ModelZooPlansAreBitIdenticalAcrossThreads)
{
    // Multi-phase plans (GAT: 3 phases/layer, GIN: 3 phases/layer)
    // exercise the fan-out with heterogeneous phase shapes.
    for (ModelKind model : {ModelKind::Gat, ModelKind::Gin,
                            ModelKind::SageMean}) {
        auto w = makeWorkload(model, 2);
        auto r1 = runWith("grow", w, 1);
        auto r8 = runWith("grow", w, 8);
        expectBitIdentical(r1, r8,
                           std::string(modelKindName(model)) +
                               " threads=8");
    }
}

TEST(ParallelPlan, FunctionalModeStaysSerialAndVerifies)
{
    // Functional runs thread combination outputs between phases, so
    // the executor falls back to the serial loop; requesting threads
    // must not break the verification or the results.
    auto w = makeWorkload(ModelKind::Gcn, 2, /*functional=*/true);
    auto spec = driver::engineByKey("grow");
    auto engine = spec.make();
    RunOptions opt;
    opt.usePartitioning = spec.usePartitioning;
    opt.sim.functional = true;
    opt.sim.threads = 8;
    auto r = runInference(*engine, w, opt);
    EXPECT_GT(r.totalCycles, 0u);
    auto serial = runWith("grow", w, 1);
    EXPECT_EQ(r.totalCycles, serial.totalCycles);
}

TEST(ParallelPlan, CloneProducesIdenticalResults)
{
    auto w = makeWorkload(ModelKind::Gcn, 2);
    auto spec = driver::engineByKey("grow");
    auto engine = spec.make();
    auto clone = engine->clone();
    RunOptions opt;
    opt.usePartitioning = spec.usePartitioning;
    auto a = runInference(*engine, w, opt);
    auto b = runInference(*clone, w, opt);
    expectBitIdentical(a, b, "clone");
    EXPECT_EQ(engine->name(), clone->name());
}

} // namespace
} // namespace grow::gcn
