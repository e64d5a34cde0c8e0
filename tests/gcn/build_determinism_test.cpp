/**
 * @file
 * The workload-build pipeline must be bit-identical for every thread
 * count: chunk boundaries depend only on the problem size, reductions
 * run in canonical order, and rng-sequential stages stay serial. The
 * CI threads=1-vs-8 diff rides on this guarantee; these tests pin it
 * at the unit level. The artefact and partitioner cases use tiny-scale
 * graphs, large enough that every parallelFor stage runs in several
 * chunks (a unit-scale graph is one chunk).
 */
#include <gtest/gtest.h>

#include "gcn/workload.hpp"
#include "graph/datasets.hpp"
#include "graph/normalize.hpp"
#include "partition/hdn_select.hpp"
#include "partition/multilevel.hpp"
#include "util/work_pool.hpp"

namespace grow::gcn {
namespace {

void
expectSameCsr(const sparse::CsrMatrix &a, const sparse::CsrMatrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.rowPtr(), b.rowPtr());
    ASSERT_EQ(a.colIdx(), b.colIdx());
    // Bit-wise equality, not approximate: the golden lock depends on
    // identical doubles, and vector== on doubles is exactly that.
    ASSERT_EQ(a.values(), b.values());
}

TEST(BuildDeterminism, ArtifactsBitIdenticalAcrossThreadCounts)
{
    const auto &spec = graph::datasetByName("pubmed");
    auto serial =
        buildGraphArtifacts(spec, graph::ScaleTier::Tiny, {}, 1);
    ASSERT_GT(util::parallelForChunks(serial->graph.numNodes()), 1u);
    ASSERT_GT(serial->relabel.clustering.clusterStart.size(), 2u);
    for (uint32_t threads : {2u, 8u}) {
        auto parallel = buildGraphArtifacts(
            spec, graph::ScaleTier::Tiny, {}, threads);
        ASSERT_EQ(serial->graph.offsets(), parallel->graph.offsets());
        ASSERT_EQ(serial->graph.adjacency(), parallel->graph.adjacency());
        expectSameCsr(serial->adjacency, parallel->adjacency);
        expectSameCsr(serial->adjacencyPartitioned,
                      parallel->adjacencyPartitioned);
        ASSERT_EQ(serial->relabel.newToOld, parallel->relabel.newToOld);
        ASSERT_EQ(serial->relabel.clustering.clusterStart,
                  parallel->relabel.clustering.clusterStart);
        ASSERT_EQ(serial->hdnLists, parallel->hdnLists);
        EXPECT_TRUE(parallel->buildProfile.valid);
        EXPECT_EQ(parallel->buildProfile.threads, threads);
    }
}

TEST(BuildDeterminism, NormalizeBitIdenticalAcrossThreadCounts)
{
    auto inst = graph::buildDataset(graph::datasetByName("reddit"),
                                    graph::ScaleTier::Unit);
    const auto g = inst.graph.view();
    auto serial = graph::normalizedAdjacency(g, true, 1);
    for (uint32_t threads : {2u, 3u, 8u})
        expectSameCsr(serial,
                      graph::normalizedAdjacency(g, true, threads));
}

TEST(BuildDeterminism, PartitionerBitIdenticalAcrossThreadCounts)
{
    auto inst = graph::buildDataset(graph::datasetByName("amazon"),
                                    graph::ScaleTier::Tiny);
    const auto g = inst.graph.view();
    ASSERT_GT(util::parallelForChunks(g.numNodes()), 1u);
    partition::PartitionConfig pc;
    pc.numParts = 8;
    pc.seed = 11;
    pc.threads = 1;
    auto serial = partition::MultilevelPartitioner(pc).partition(g);
    for (uint32_t threads : {2u, 8u}) {
        pc.threads = threads;
        auto parallel =
            partition::MultilevelPartitioner(pc).partition(g);
        ASSERT_EQ(serial.assignment, parallel.assignment);
    }
}

TEST(BuildDeterminism, HdnSelectionBitIdenticalAcrossThreadCounts)
{
    auto inst = graph::buildDataset(graph::datasetByName("yelp"),
                                    graph::ScaleTier::Unit);
    const auto g = inst.graph.view();
    partition::PartitionConfig pc;
    pc.numParts = 6;
    auto parts = partition::MultilevelPartitioner(pc).partition(g);
    auto relabel =
        partition::relabelByPartition(g.numNodes(), parts);
    auto serial = partition::selectHdnPerCluster(g, relabel, 16, 1);
    for (uint32_t threads : {2u, 8u})
        ASSERT_EQ(serial, partition::selectHdnPerCluster(g, relabel,
                                                         16, threads));
}

TEST(BuildDeterminism, BuildProfileStampsStages)
{
    auto a = buildGraphArtifacts(graph::datasetByName("cora"),
                                 graph::ScaleTier::Unit, {}, 2);
    const auto &p = a->buildProfile;
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.threads, 2u);
    EXPECT_EQ(p.arcs, a->graphView().numArcs());
    EXPECT_GE(p.totalMs, 0.0);
    EXPECT_GE(p.totalMs + 1e-9,
              p.synthMs); // total covers every stage
    EXPECT_GT(p.arcsPerSec(), 0.0);
}

} // namespace
} // namespace grow::gcn
