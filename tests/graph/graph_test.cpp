#include <gtest/gtest.h>

#include <algorithm>

#include "graph/graph.hpp"
#include "util/random.hpp"

namespace grow::graph {
namespace {

Graph
triangle()
{
    return Graph::fromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
}

TEST(Graph, FromEdgesBasics)
{
    auto g = triangle();
    EXPECT_EQ(g.numNodes(), 3u);
    EXPECT_EQ(g.numEdges(), 3u);
    EXPECT_EQ(g.numArcs(), 6u);
    EXPECT_DOUBLE_EQ(g.avgDegree(), 2.0);
    EXPECT_TRUE(g.validate());
}

TEST(Graph, DropsSelfLoopsAndDuplicates)
{
    auto g = Graph::fromEdges(3, {{0, 1}, {1, 0}, {0, 0}, {0, 1}});
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_EQ(g.degree(0), 1u);
    EXPECT_EQ(g.degree(2), 0u);
}

TEST(Graph, NeighborsSorted)
{
    auto g = Graph::fromEdges(5, {{2, 4}, {2, 0}, {2, 3}, {2, 1}});
    auto nb = g.neighbors(2);
    ASSERT_EQ(nb.size(), 4u);
    for (size_t i = 1; i < nb.size(); ++i)
        EXPECT_LT(nb[i - 1], nb[i]);
}

TEST(Graph, HasEdgeSymmetric)
{
    auto g = triangle();
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0));
    EXPECT_FALSE(g.hasEdge(0, 0));
}

TEST(Graph, Density)
{
    auto g = triangle();
    EXPECT_DOUBLE_EQ(g.density(), 6.0 / 9.0);
}

TEST(Graph, RelabeledPreservesStructure)
{
    auto g = Graph::fromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
    // Reverse the labels.
    auto r = g.relabeled({3, 2, 1, 0});
    EXPECT_TRUE(r.validate());
    EXPECT_EQ(r.numEdges(), g.numEdges());
    // Old edge (0,1) -> new (3,2).
    EXPECT_TRUE(r.hasEdge(3, 2));
    EXPECT_TRUE(r.hasEdge(2, 1));
    EXPECT_TRUE(r.hasEdge(1, 0));
    EXPECT_FALSE(r.hasEdge(3, 0));
    // Degrees permute with the labels.
    EXPECT_EQ(r.degree(3), g.degree(0));
    EXPECT_EQ(r.degree(2), g.degree(1));
}

TEST(Graph, RelabelRejectsNonPermutation)
{
    auto g = triangle();
    EXPECT_ANY_THROW(g.relabeled({0, 0, 1}));
}

TEST(Graph, EmptyGraph)
{
    auto g = Graph::fromEdges(4, {});
    EXPECT_EQ(g.numArcs(), 0u);
    EXPECT_DOUBLE_EQ(g.avgDegree(), 0.0);
    EXPECT_TRUE(g.validate());
}

TEST(Graph, EdgeEndpointOutOfRangeRejected)
{
    EXPECT_ANY_THROW(Graph::fromEdges(2, {{0, 2}}));
}

/**
 * Oracle: Graph::fromEdges as it was before it bucketed edges by their
 * smaller endpoint (one global sort of the canonical pairs, a scatter
 * and a sort of every row), kept verbatim apart from its range
 * assertion and returning its arrays.
 */
std::pair<std::vector<uint64_t>, std::vector<NodeId>>
sortBasedFromEdges(uint32_t nodes,
                   std::vector<std::pair<NodeId, NodeId>> edges)
{
    // Canonicalize to (min, max), drop self loops, dedupe.
    for (auto &[u, v] : edges) {
        if (u > v)
            std::swap(u, v);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    edges.erase(std::remove_if(edges.begin(), edges.end(),
                               [](const auto &e) {
                                   return e.first == e.second;
                               }),
                edges.end());

    std::vector<uint64_t> offsets(static_cast<size_t>(nodes) + 1, 0);
    for (const auto &[u, v] : edges) {
        offsets[u + 1] += 1;
        offsets[v + 1] += 1;
    }
    for (uint32_t i = 0; i < nodes; ++i)
        offsets[i + 1] += offsets[i];
    std::vector<NodeId> neighbors(edges.size() * 2);
    std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto &[u, v] : edges) {
        neighbors[cursor[u]++] = v;
        neighbors[cursor[v]++] = u;
    }
    for (uint32_t v = 0; v < nodes; ++v)
        std::sort(neighbors.begin() + offsets[v],
                  neighbors.begin() + offsets[v + 1]);
    return {offsets, neighbors};
}

TEST(FromEdges, MatchesSortBasedOracle)
{
    Rng rng(29);
    auto expectMatch = [](uint32_t nodes,
                          const std::vector<std::pair<NodeId, NodeId>>
                              &edges) {
        const auto [offsets, neighbors] = sortBasedFromEdges(nodes, edges);
        const Graph g = Graph::fromEdges(nodes, edges);
        ASSERT_EQ(g.offsets(), offsets) << nodes << " nodes";
        ASSERT_EQ(g.adjacency(), neighbors) << nodes << " nodes";
        ASSERT_TRUE(g.validate());
    };
    expectMatch(0, {});
    expectMatch(1, {});
    expectMatch(1, {{0, 0}, {0, 0}});
    expectMatch(2, {{1, 0}, {0, 1}, {1, 1}});
    // Random soups: both orientations, duplicates, self loops, and
    // isolated nodes past the largest endpoint; dense and sparse.
    for (int trial = 0; trial < 40; ++trial) {
        const uint32_t span = 1 + static_cast<uint32_t>(rng.bounded(3000));
        const uint32_t nodes =
            span + static_cast<uint32_t>(rng.bounded(50));
        const uint64_t count = rng.bounded(trial % 2 ? 8 * span : 200);
        std::vector<std::pair<NodeId, NodeId>> edges;
        for (uint64_t e = 0; e < count; ++e) {
            const auto u = static_cast<NodeId>(rng.bounded(span));
            const auto v = rng.bernoulli(0.05)
                               ? u
                               : static_cast<NodeId>(rng.bounded(span));
            edges.emplace_back(u, v);
            if (rng.bernoulli(0.2))
                edges.emplace_back(v, u);
            if (rng.bernoulli(0.1))
                edges.emplace_back(u, v);
        }
        expectMatch(nodes, edges);
    }
}

} // namespace
} // namespace grow::graph
