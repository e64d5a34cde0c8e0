/**
 * @file
 * Declarative mapping layer: structural validation, the dataflows the
 * engines publish, and the lowering contract -- buildPhasePlan must produce field-identical problems no
 * matter which engine's mapping (or the generic fallback) it lowers
 * against, because every published spec agrees on the lowering-visible
 * fields.
 */
#include <gtest/gtest.h>

#include <memory>

#include "core/grow.hpp"
#include "driver/engine_factory.hpp"
#include "gcn/runner.hpp"
#include "gcn/workload.hpp"
#include "mapping/mapping.hpp"

namespace grow::mapping {
namespace {

TEST(Mapping, GenericMappingValidates)
{
    const EngineMapping &em = genericMapping();
    EXPECT_EQ(em.combination.phaseClass, PhaseClass::DenseResident);
    EXPECT_EQ(em.aggregation.phaseClass, PhaseClass::SparseStreaming);
    EXPECT_TRUE(em.combination.rhsResident());
    EXPECT_FALSE(em.aggregation.rhsResident());
    EXPECT_NO_THROW(validate(em));
    // spec() routes by phase class.
    EXPECT_EQ(&em.spec(PhaseClass::DenseResident), &em.combination);
    EXPECT_EQ(&em.spec(PhaseClass::SparseStreaming), &em.aggregation);
}

TEST(Mapping, ValidateRejectsStructuralViolations)
{
    MappingSpec ok = genericMapping().aggregation;
    EXPECT_NO_THROW(validate(ok));

    MappingSpec zeroLanes = ok;
    zeroLanes.spatialLanes = 0;
    EXPECT_ANY_THROW(validate(zeroLanes));

    MappingSpec zeroMisses = ok;
    zeroMisses.missConcurrency = 0;
    EXPECT_ANY_THROW(validate(zeroMisses));

    // A dense-resident phase cannot carry a pinned reuse cache.
    MappingSpec pinnedResident = ok;
    pinnedResident.phaseClass = PhaseClass::DenseResident;
    pinnedResident.denseReuse = DenseReuse::PinnedCache;
    EXPECT_ANY_THROW(validate(pinnedResident));
}

TEST(Mapping, ValidateRejectsMisclassifiedEngineMapping)
{
    EngineMapping em = genericMapping();
    em.combination.phaseClass = PhaseClass::SparseStreaming;
    EXPECT_ANY_THROW(validate(em));

    EngineMapping noBw = genericMapping();
    noBw.dramBytesPerCycle = 0.0;
    EXPECT_ANY_THROW(validate(noBw));
}

TEST(Mapping, EnginesPublishTheirDataflows)
{
    core::GrowSim grow(driver::growDefaultConfig());
    auto g = grow.mapping();
    EXPECT_EQ(g.aggregation.denseReuse, DenseReuse::PinnedCache);
    EXPECT_EQ(g.combination.denseReuse, DenseReuse::Resident);
    EXPECT_GT(g.aggregation.streamChunkBytes, 0u); // event-driven rows
    EXPECT_GT(g.aggregation.pinnedIdEntries, 0u);
    EXPECT_GT(g.aggregation.bufferCapacity(BufferRole::RowCache), 0u);
    EXPECT_GT(g.combination.bufferCapacity(BufferRole::DenseInput), 0u);
    EXPECT_EQ(g.combination.bufferCapacity(BufferRole::MergeQueue), 0u);

    accel::GcnaxSim gcnax(driver::gcnaxDefaultConfig());
    auto x = gcnax.mapping();
    EXPECT_EQ(x.aggregation.denseReuse, DenseReuse::Tiled);
    EXPECT_GT(x.aggregation.minTileK, 0u);
    EXPECT_EQ(x.aggregation.streamChunkBytes, 0u);

    accel::GammaSim gamma(driver::gammaDefaultConfig());
    auto a = gamma.mapping();
    EXPECT_EQ(a.aggregation.denseReuse, DenseReuse::LruCache);
    EXPECT_EQ(a.aggregation.rhsFormat, OperandFormat::CompressedFiber);
    EXPECT_GT(a.aggregation.reductionLanes, 0u);

    accel::MatRaptorSim mat(driver::matraptorDefaultConfig());
    auto m = mat.mapping();
    EXPECT_EQ(m.aggregation.denseReuse, DenseReuse::None);
    EXPECT_GT(m.aggregation.bufferCapacity(BufferRole::MergeQueue), 0u);
}

TEST(Mapping, GrowConfigVariantsReachTheSpec)
{
    core::GrowSim lru(driver::growLruConfig());
    EXPECT_EQ(lru.mapping().aggregation.denseReuse, DenseReuse::LruCache);

    core::GrowSim nocache(driver::growNoCacheConfig());
    auto nc = nocache.mapping();
    EXPECT_EQ(nc.aggregation.denseReuse, DenseReuse::None);
    EXPECT_EQ(nc.aggregation.pinnedIdEntries, 0u);
    EXPECT_EQ(nc.aggregation.bufferCapacity(BufferRole::RowCache), 0u);

    core::GrowConfig narrow = driver::growDefaultConfig();
    narrow.ldnEntries = 2;
    core::GrowSim sim(narrow);
    auto nm = sim.mapping();
    EXPECT_EQ(nm.aggregation.missConcurrency, 2u);
}

/** The lowering-visible problem fields of two plans must agree. */
void
expectPlansEquivalent(const gcn::PhasePlan &a, const gcn::PhasePlan &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].problem.label, b[i].problem.label);
        EXPECT_EQ(a[i].problem.rhsOnChip, b[i].problem.rhsOnChip);
        EXPECT_EQ(a[i].problem.phase, b[i].problem.phase);
        EXPECT_EQ(a[i].problem.lhs, b[i].problem.lhs);
        EXPECT_EQ(a[i].problem.rhsCols, b[i].problem.rhsCols);
        EXPECT_EQ(a[i].problem.clustering, b[i].problem.clustering);
        EXPECT_EQ(a[i].problem.hdnLists, b[i].problem.hdnLists);
        EXPECT_EQ(a[i].op, b[i].op);
        EXPECT_EQ(a[i].layer, b[i].layer);
    }
}

TEST(Mapping, PlanProblemsAreIdenticalUnderEveryEngineMapping)
{
    gcn::WorkloadConfig wc;
    wc.tier = graph::ScaleTier::Unit;
    auto w = gcn::buildWorkload(graph::datasetByName("cora"), wc);

    std::vector<EngineMapping> mappings;
    mappings.push_back(
        core::GrowSim(driver::growDefaultConfig()).mapping());
    mappings.push_back(
        accel::GcnaxSim(driver::gcnaxDefaultConfig()).mapping());
    mappings.push_back(
        accel::GammaSim(driver::gammaDefaultConfig()).mapping());
    mappings.push_back(
        accel::MatRaptorSim(driver::matraptorDefaultConfig()).mapping());

    for (bool part : {false, true}) {
        gcn::RunOptions generic;
        generic.usePartitioning = part;
        auto reference = gcn::buildPhasePlan(w, generic);
        for (const auto &em : mappings) {
            gcn::RunOptions opt;
            opt.usePartitioning = part;
            opt.mapping = std::make_shared<EngineMapping>(em);
            auto plan = gcn::buildPhasePlan(w, opt);
            expectPlansEquivalent(reference, plan);
        }
    }
}

} // namespace
} // namespace grow::mapping
