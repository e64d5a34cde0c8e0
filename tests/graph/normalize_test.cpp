#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "graph/normalize.hpp"

namespace grow::graph {
namespace {

TEST(Normalize, SelfLoopsOnDiagonal)
{
    auto g = Graph::fromEdges(3, {{0, 1}});
    auto a = normalizedAdjacency(g, true);
    EXPECT_EQ(a.rows(), 3u);
    // Every node has a diagonal entry.
    for (NodeId v = 0; v < 3; ++v) {
        bool diag = false;
        for (NodeId c : a.rowCols(v))
            diag |= c == v;
        EXPECT_TRUE(diag) << "node " << v;
    }
    // Isolated node 2: degree 0 + self loop -> value 1.
    EXPECT_DOUBLE_EQ(a.rowVals(2)[0], 1.0);
}

TEST(Normalize, SymmetricValues)
{
    auto g = generateGrid(5, 4);
    auto a = normalizedAdjacency(g, true);
    auto at = a.transposed();
    ASSERT_EQ(at.nnz(), a.nnz());
    EXPECT_EQ(at.colIdx(), a.colIdx());
    for (size_t i = 0; i < a.values().size(); ++i)
        EXPECT_NEAR(at.values()[i], a.values()[i], 1e-12);
}

TEST(Normalize, KnownTwoNodeValues)
{
    // Two connected nodes with self loops: deg+1 = 2 for both, so every
    // entry is 1/sqrt(2)/sqrt(2) = 0.5.
    auto g = Graph::fromEdges(2, {{0, 1}});
    auto a = normalizedAdjacency(g, true);
    EXPECT_EQ(a.nnz(), 4u);
    for (double v : a.values())
        EXPECT_DOUBLE_EQ(v, 0.5);
}

TEST(Normalize, WithoutSelfLoops)
{
    auto g = Graph::fromEdges(2, {{0, 1}});
    auto a = normalizedAdjacency(g, false);
    EXPECT_EQ(a.nnz(), 2u);
    for (double v : a.values())
        EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Normalize, SpectralRadiusBounded)
{
    // Row sums of D^-1/2 (A+I) D^-1/2 are <= 1 when degrees are equal,
    // and the matrix is substochastic-like in general: all entries in
    // (0, 1].
    auto g = generateChungLu(500, 8.0, 2.3, 3);
    auto a = normalizedAdjacency(g, true);
    for (double v : a.values()) {
        EXPECT_GT(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
}

TEST(Normalize, NnzMatchesArcsPlusLoops)
{
    auto g = generateGrid(6, 6);
    auto a = normalizedAdjacency(g, true);
    EXPECT_EQ(a.nnz(), g.numArcs() + g.numNodes());
}

} // namespace
} // namespace grow::graph
