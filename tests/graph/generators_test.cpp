#include <gtest/gtest.h>

#include "graph/degree_stats.hpp"
#include "graph/generators.hpp"
#include "partition/metrics.hpp"

namespace grow::graph {
namespace {

TEST(Generators, DcSbmBasicShape)
{
    DcSbmParams p;
    p.nodes = 4000;
    p.avgDegree = 10.0;
    p.communities = 8;
    p.seed = 1;
    auto g = generateDcSbm(p);
    EXPECT_EQ(g.numNodes(), 4000u);
    // Duplicate removal trims a few percent.
    EXPECT_NEAR(g.avgDegree(), 10.0, 2.0);
    EXPECT_TRUE(g.validate());
}

TEST(Generators, DcSbmDeterministic)
{
    DcSbmParams p;
    p.nodes = 500;
    p.avgDegree = 6.0;
    p.communities = 4;
    p.seed = 42;
    auto a = generateDcSbm(p);
    auto b = generateDcSbm(p);
    EXPECT_EQ(a.adjacency(), b.adjacency());
}

TEST(Generators, DcSbmSeedChangesGraph)
{
    DcSbmParams p;
    p.nodes = 500;
    p.avgDegree = 6.0;
    p.seed = 1;
    auto a = generateDcSbm(p);
    p.seed = 2;
    auto b = generateDcSbm(p);
    EXPECT_NE(a.adjacency(), b.adjacency());
}

TEST(Generators, DcSbmPlantedCommunitiesAreAssortative)
{
    DcSbmParams p;
    p.nodes = 3000;
    p.avgDegree = 12.0;
    p.communities = 6;
    p.intraFraction = 0.85;
    p.seed = 7;
    std::vector<uint32_t> comm;
    auto g = generateDcSbm(p, comm);
    ASSERT_EQ(comm.size(), g.numNodes());

    partition::PartitionResult planted;
    planted.numParts = p.communities;
    planted.assignment = comm;
    auto q = partition::evaluatePartition(g, planted);
    // Intra fraction should be near the requested 0.85 (dedup losses
    // push it down slightly).
    EXPECT_GT(q.intraArcFraction, 0.7);
    // And far above the 1/k ~ 0.17 a random assignment would give.
    EXPECT_GT(q.intraArcFraction, 2.0 / p.communities);
}

TEST(Generators, DcSbmNodeIdsDoNotRevealCommunities)
{
    // Consecutive IDs must not be in the same community more often than
    // chance would allow by a wide margin (IDs are shuffled).
    DcSbmParams p;
    p.nodes = 4000;
    p.avgDegree = 8.0;
    p.communities = 8;
    p.seed = 3;
    std::vector<uint32_t> comm;
    generateDcSbm(p, comm);
    uint32_t sameAdjacent = 0;
    for (size_t i = 1; i < comm.size(); ++i)
        sameAdjacent += comm[i] == comm[i - 1];
    double frac = static_cast<double>(sameAdjacent) / (comm.size() - 1);
    EXPECT_LT(frac, 0.25); // chance level is 1/8 = 0.125
}

TEST(Generators, ChungLuPowerLawTail)
{
    auto g = generateChungLu(20000, 16.0, 2.2, 11);
    auto h = degreeHistogram(g);
    double alpha = h.powerLawAlpha(4);
    // MLE over a capped, deduplicated graph lands near the target.
    EXPECT_GT(alpha, 1.6);
    EXPECT_LT(alpha, 3.2);
    // Heavy tail: the max degree dwarfs the mean.
    EXPECT_GT(h.maxValue(), 10 * static_cast<uint64_t>(h.mean()));
}

TEST(Generators, ErdosRenyiNearUniform)
{
    auto g = generateErdosRenyi(5000, 25000, 5);
    EXPECT_NEAR(static_cast<double>(g.numEdges()), 25000, 1500);
    // Uniform graphs have low degree inequality.
    EXPECT_LT(degreeGini(g), 0.25);
}

TEST(Generators, GridStructure)
{
    auto g = generateGrid(4, 3);
    EXPECT_EQ(g.numNodes(), 12u);
    // 2D grid: 2*W*H - W - H edges.
    EXPECT_EQ(g.numEdges(), 2u * 12 - 4 - 3);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(0, 4));
    EXPECT_FALSE(g.hasEdge(0, 5));
    EXPECT_TRUE(g.validate());
}

/** Degree sweep: generated average degree tracks the request. */
class DegreeSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(DegreeSweep, AvgDegreeNearTarget)
{
    DcSbmParams p;
    p.nodes = 3000;
    p.avgDegree = GetParam();
    p.communities = 4;
    p.seed = 17;
    auto g = generateDcSbm(p);
    EXPECT_NEAR(g.avgDegree(), p.avgDegree, 0.25 * p.avgDegree + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Degrees, DegreeSweep,
                         ::testing::Values(4.0, 8.0, 20.0, 50.0));

} // namespace
} // namespace grow::graph
