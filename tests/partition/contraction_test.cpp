/**
 * @file
 * Differential test of the partitioner's pair contraction: the flat
 * gather plus counting-sort transpose must equal, bit for bit, the
 * contraction it replaced, which built one vector per coarse row and
 * sorted it. The oracle below is that code, kept verbatim apart from
 * its accessors.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "graph/graph.hpp"
#include "partition/coarsen.hpp"
#include "util/random.hpp"
#include "util/work_pool.hpp"

namespace grow::partition {
namespace {

/** Oracle: the per-row-sort contraction. */
CoarseLevel
perRowSortContract(const WeightedCsr &g, const std::vector<NodeId> &match,
                   uint32_t threads)
{
    const uint64_t *off = g.offsets.data();
    const NodeId *adj = g.adjacency.data();
    auto ewt = [&g](uint64_t i) {
        return g.edgeWeights.empty() ? 1u : g.edgeWeights[i];
    };
    auto nwt = [&g](NodeId u) {
        return g.nodeWeights.empty() ? 1u : g.nodeWeights[u];
    };
    const uint32_t n = g.numNodes();

    CoarseLevel lvl;
    lvl.fineToCoarse.assign(n, kInvalidNode);
    uint32_t cn = 0;
    for (NodeId u = 0; u < n; ++u) {
        if (lvl.fineToCoarse[u] != kInvalidNode)
            continue;
        NodeId v = match[u];
        lvl.fineToCoarse[u] = cn;
        if (v != u)
            lvl.fineToCoarse[v] = cn;
        ++cn;
    }

    lvl.nodeWeights.assign(cn, 0);
    for (NodeId u = 0; u < n; ++u)
        lvl.nodeWeights[lvl.fineToCoarse[u]] += nwt(u);

    std::vector<std::vector<std::pair<NodeId, uint32_t>>> rows(cn);
    util::parallelFor(n, threads,
                      [&](uint64_t begin, uint64_t end, uint32_t) {
        static thread_local std::vector<uint32_t> weightTo;
        if (weightTo.size() < cn)
            weightTo.assign(cn, 0);
        std::vector<NodeId> touched;
        for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
            NodeId v = match[u];
            if (v < u)
                continue; // row is built by the smaller member
            NodeId cu = lvl.fineToCoarse[u];
            touched.clear();
            auto scan = [&](NodeId fine) {
                for (uint64_t i = off[fine]; i < off[fine + 1]; ++i) {
                    NodeId cv = lvl.fineToCoarse[adj[i]];
                    if (cv == cu)
                        continue; // interior edge disappears
                    if (weightTo[cv] == 0)
                        touched.push_back(cv);
                    weightTo[cv] += ewt(i);
                }
            };
            scan(u);
            if (v != u)
                scan(v);
            auto &row = rows[cu];
            row.reserve(touched.size());
            for (NodeId cv : touched) {
                row.emplace_back(cv, weightTo[cv]);
                weightTo[cv] = 0;
            }
            std::sort(row.begin(), row.end());
        }
    });

    std::vector<uint64_t> counts(cn + 1, 0);
    for (NodeId cu = 0; cu < cn; ++cu)
        counts[cu + 1] = counts[cu] + rows[cu].size();
    lvl.offsets = std::move(counts);
    lvl.adjacency.resize(lvl.offsets[cn]);
    lvl.edgeWeights.resize(lvl.offsets[cn]);
    util::parallelFor(cn, threads,
                      [&](uint64_t begin, uint64_t end, uint32_t) {
        for (NodeId cu = static_cast<NodeId>(begin); cu < end; ++cu) {
            uint64_t out = lvl.offsets[cu];
            for (const auto &[cv, w] : rows[cu]) {
                lvl.adjacency[out] = cv;
                lvl.edgeWeights[out] = w;
                ++out;
            }
        }
    });
    return lvl;
}

/** Transpose of a weighted CSR, rows sorted. */
CoarseLevel
transposed(const CoarseLevel &a)
{
    const uint32_t n = static_cast<uint32_t>(a.nodeWeights.size());
    CoarseLevel t;
    t.fineToCoarse = a.fineToCoarse;
    t.nodeWeights = a.nodeWeights;
    std::vector<std::vector<std::pair<NodeId, uint32_t>>> rows(n);
    for (NodeId r = 0; r < n; ++r)
        for (uint64_t i = a.offsets[r]; i < a.offsets[r + 1]; ++i)
            rows[a.adjacency[i]].emplace_back(r, a.edgeWeights[i]);
    t.offsets.assign(static_cast<size_t>(n) + 1, 0);
    for (NodeId c = 0; c < n; ++c) {
        std::sort(rows[c].begin(), rows[c].end());
        t.offsets[c + 1] = t.offsets[c] + rows[c].size();
        for (const auto &[r, w] : rows[c]) {
            t.adjacency.push_back(r);
            t.edgeWeights.push_back(w);
        }
    }
    return t;
}

void
expectSameLevel(const CoarseLevel &a, const CoarseLevel &b)
{
    ASSERT_EQ(a.fineToCoarse, b.fineToCoarse);
    ASSERT_EQ(a.nodeWeights, b.nodeWeights);
    ASSERT_EQ(a.offsets, b.offsets);
    ASSERT_EQ(a.adjacency, b.adjacency);
    ASSERT_EQ(a.edgeWeights, b.edgeWeights);
}

/** A random involution: about @p pairedShare of the nodes in pairs. */
std::vector<NodeId>
randomMatching(uint32_t n, double pairedShare, Rng &rng)
{
    std::vector<NodeId> order(n);
    std::iota(order.begin(), order.end(), 0u);
    rng.shuffle(order);
    std::vector<NodeId> match(n);
    std::iota(match.begin(), match.end(), 0u);
    for (size_t i = 0; i + 1 < order.size(); i += 2) {
        if (!rng.bernoulli(pairedShare))
            continue;
        match[order[i]] = order[i + 1];
        match[order[i + 1]] = order[i];
    }
    return match;
}

/** A random edge soup: duplicates, self loops, isolated nodes. */
graph::Graph
randomGraph(uint32_t n, uint64_t edges, Rng &rng)
{
    std::vector<std::pair<NodeId, NodeId>> soup;
    const auto span = std::max<uint32_t>(1, n - n / 10);
    for (uint64_t e = 0; e < edges; ++e) {
        const auto u = static_cast<NodeId>(rng.bounded(span));
        const auto v = rng.bernoulli(0.05)
                           ? u
                           : static_cast<NodeId>(rng.bounded(span));
        soup.emplace_back(u, v);
        if (rng.bernoulli(0.1))
            soup.emplace_back(v, u);
    }
    return graph::Graph::fromEdges(n, std::move(soup));
}

TEST(Contraction, MatchesPerRowSortOracle)
{
    Rng rng(41);
    // 0 and 1 nodes, one chunk, and several parallelFor chunks.
    for (uint32_t n : {0u, 1u, 2u, 37u, 2048u, 2049u, 9000u}) {
        for (uint64_t degree : {0u, 3u, 12u}) {
            const graph::Graph g = randomGraph(n, n * degree / 2, rng);
            const WeightedCsr level0{g.offsets(), g.adjacency(), {}, {}};
            for (uint32_t threads : {1u, 4u}) {
                SCOPED_TRACE(testing::Message()
                             << n << " nodes, degree " << degree
                             << ", threads " << threads);
                const auto match = randomMatching(n, 0.8, rng);
                const CoarseLevel oracle =
                    perRowSortContract(level0, match, 1);
                expectSameLevel(contractMatching(level0, match, threads),
                                oracle);
                // A weighted level: contract the coarse graph again.
                const auto coarseMatch = randomMatching(
                    static_cast<uint32_t>(oracle.nodeWeights.size()), 0.6,
                    rng);
                expectSameLevel(
                    contractMatching(oracle.graph(), coarseMatch, threads),
                    perRowSortContract(oracle.graph(), coarseMatch, 1));
            }
        }
    }
}

TEST(Contraction, AsymmetricInputGivesTheTransposedLevel)
{
    // Rows in any order, with duplicates and self loops, and arcs
    // without their reverse: what an unvalidated file graph may hold.
    Rng rng(43);
    for (uint32_t n : {1u, 5u, 300u, 5000u}) {
        std::vector<uint64_t> offsets(1, 0);
        std::vector<NodeId> adjacency;
        for (NodeId u = 0; u < n; ++u) {
            const uint64_t degree = rng.bounded(9);
            for (uint64_t i = 0; i < degree; ++i)
                adjacency.push_back(static_cast<NodeId>(rng.bounded(n)));
            offsets.push_back(adjacency.size());
        }
        std::vector<uint32_t> edgeWeights(adjacency.size());
        for (auto &w : edgeWeights)
            w = 1 + static_cast<uint32_t>(rng.bounded(5));
        std::vector<uint32_t> nodeWeights(n);
        for (auto &w : nodeWeights)
            w = 1 + static_cast<uint32_t>(rng.bounded(3));
        const WeightedCsr g{offsets, adjacency, edgeWeights, nodeWeights};
        const auto match = randomMatching(n, 0.7, rng);
        const CoarseLevel expected =
            transposed(perRowSortContract(g, match, 1));
        for (uint32_t threads : {1u, 4u}) {
            SCOPED_TRACE(testing::Message()
                         << n << " nodes, threads " << threads);
            expectSameLevel(contractMatching(g, match, threads), expected);
        }
    }
}

} // namespace
} // namespace grow::partition
