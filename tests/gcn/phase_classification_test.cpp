/**
 * @file
 * Per-phase traffic classification identities of the inference runner:
 * which traffic classes may appear in which phase, and how phase totals
 * roll up into the inference aggregate.
 */
#include <gtest/gtest.h>

#include "core/grow.hpp"
#include "gcn/runner.hpp"

namespace grow::gcn {
namespace {

InferenceResult
runGrow(const char *dataset, bool partitioned)
{
    WorkloadConfig c;
    c.tier = graph::ScaleTier::Unit;
    auto w = buildWorkload(graph::datasetByName(dataset), c);
    core::GrowSim sim((core::GrowConfig()));
    RunOptions opt;
    opt.usePartitioning = partitioned;
    return runInference(sim, w, opt);
}

TEST(PhaseClassification, CombinationHasNoDenseRowFetches)
{
    auto r = runGrow("cora", true);
    for (const auto &ph : r.phases) {
        if (ph.result.phase == accel::Phase::Combination) {
            EXPECT_EQ(ph.result.traffic.readBytes[static_cast<size_t>(
                          mem::TrafficClass::DenseRow)],
                      0u);
        }
    }
}

TEST(PhaseClassification, EveryPhaseWritesItsOutput)
{
    auto r = runGrow("citeseer", true);
    for (const auto &ph : r.phases)
        EXPECT_GT(ph.result.traffic.writeBytes[static_cast<size_t>(
                      mem::TrafficClass::OutputWrite)],
                  0u);
}

TEST(PhaseClassification, EveryPhaseStreamsItsLhs)
{
    auto r = runGrow("pubmed", true);
    for (const auto &ph : r.phases)
        EXPECT_GT(ph.result.traffic.readBytes[static_cast<size_t>(
                      mem::TrafficClass::SparseStream)],
                  0u);
}

TEST(PhaseClassification, TrafficRollsUpExactly)
{
    auto r = runGrow("flickr", true);
    mem::DramTraffic sum;
    for (const auto &ph : r.phases) {
        for (size_t i = 0; i < mem::kNumTrafficClasses; ++i) {
            sum.readBytes[i] += ph.result.traffic.readBytes[i];
            sum.writeBytes[i] += ph.result.traffic.writeBytes[i];
        }
    }
    for (size_t i = 0; i < mem::kNumTrafficClasses; ++i) {
        EXPECT_EQ(sum.readBytes[i], r.traffic.readBytes[i]);
        EXPECT_EQ(sum.writeBytes[i], r.traffic.writeBytes[i]);
    }
}

TEST(PhaseClassification, PartitionedRunsPreloadPerCluster)
{
    auto part = runGrow("yelp", true);
    auto flat = runGrow("yelp", false);
    // With partitioning, every cluster reloads the HDN cache; without,
    // there is a single global preload per aggregation phase (plus the
    // W preloads of combination). Partitioned preload traffic is
    // therefore at least the unpartitioned amount.
    auto preload = [](const InferenceResult &r) {
        return r.traffic.readBytes[static_cast<size_t>(
            mem::TrafficClass::HdnPreload)];
    };
    EXPECT_GE(preload(part), preload(flat));
}

TEST(PhaseClassification, AggregationLayersShareAdjacencyStream)
{
    auto r = runGrow("cora", true);
    // Both aggregation phases stream the same adjacency matrix: their
    // sparse-stream bytes must be equal.
    Bytes agg0 = 0, agg1 = 0;
    for (const auto &ph : r.phases) {
        if (ph.result.phase != accel::Phase::Aggregation)
            continue;
        Bytes b = ph.result.traffic.readBytes[static_cast<size_t>(
            mem::TrafficClass::SparseStream)];
        if (ph.layer == 0)
            agg0 = b;
        else
            agg1 = b;
    }
    EXPECT_EQ(agg0, agg1);
}

} // namespace
} // namespace grow::gcn
