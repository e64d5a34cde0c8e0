#include "partition/multilevel.hpp"

#include <algorithm>
#include <numeric>

#include "partition/coarsen.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/work_pool.hpp"

namespace grow::partition {

namespace {

/**
 * Raw row pointers of one hierarchy level, hoisted out of the hot
 * loops. Unit = true is the input graph, whose all-1 weights compile
 * away; a contracted level reads its weight arrays.
 */
template <bool Unit>
struct Rows
{
    const uint64_t *off;
    const NodeId *adj;
    const uint32_t *ewt;
    const uint32_t *nwt;

    uint32_t edgeWeight(uint64_t i) const { return Unit ? 1 : ewt[i]; }
    uint32_t nodeWeight(NodeId u) const { return Unit ? 1 : nwt[u]; }
};

/** Run @p fn on @p g's Rows, instantiated for unit or stored weights. */
template <typename Fn>
decltype(auto)
withRows(const WeightedCsr &g, Fn &&fn)
{
    if (g.nodeWeights.empty())
        return fn(Rows<true>{g.offsets.data(), g.adjacency.data(),
                             nullptr, nullptr});
    return fn(Rows<false>{g.offsets.data(), g.adjacency.data(),
                          g.edgeWeights.data(), g.nodeWeights.data()});
}

/**
 * Per-thread scatter array of at least @p size zeroes, reused across
 * contractions. Users reset the entries they touch before returning.
 */
std::vector<uint32_t> &
scatterScratch(uint32_t size)
{
    static thread_local std::vector<uint32_t> weightTo;
    if (weightTo.size() < size)
        weightTo.assign(size, 0);
    return weightTo;
}

/**
 * Heavy-edge matching: every unmatched node grabs its unmatched
 * neighbor with the heaviest connecting edge. Inherently sequential
 * (each decision depends on all earlier ones through the rng-shuffled
 * visit order), so it stays serial -- see the determinism contract in
 * the header.
 */
std::vector<NodeId>
heavyEdgeMatching(const WeightedCsr &g, Rng &rng)
{
    std::vector<NodeId> order(g.numNodes());
    std::iota(order.begin(), order.end(), 0u);
    rng.shuffle(order);

    std::vector<NodeId> match(g.numNodes(), kInvalidNode);
    withRows(g, [&](auto rows) {
        for (NodeId u : order) {
            if (match[u] != kInvalidNode)
                continue;
            NodeId best = kInvalidNode;
            uint32_t bestW = 0;
            for (uint64_t i = rows.off[u]; i < rows.off[u + 1]; ++i) {
                NodeId v = rows.adj[i];
                if (v == u || match[v] != kInvalidNode)
                    continue;
                if (rows.edgeWeight(i) > bestW) {
                    bestW = rows.edgeWeight(i);
                    best = v;
                }
            }
            if (best == kInvalidNode) {
                match[u] = u; // matched with itself
            } else {
                match[u] = best;
                match[best] = u;
            }
        }
    });
    return match;
}

/**
 * Balanced greedy-attachment initial partition of the coarsest graph:
 * nodes are visited in descending weight order and each joins the
 * adjacent part with the strongest (edge-weight) attachment among the
 * parts still under the balance bound; unattached nodes seed the
 * currently lightest part. Heavy nodes therefore spread out first and
 * act as seeds, and community members follow their hubs.
 */
std::vector<uint32_t>
initialPartition(const WeightedCsr &g, uint32_t k, uint64_t totalWeight,
                 Rng &rng)
{
    std::vector<uint32_t> part(g.numNodes(), kInvalidNode);
    if (k == 1) {
        std::fill(part.begin(), part.end(), 0u);
        return part;
    }
    const double maxW = 1.05 * static_cast<double>(totalWeight) /
                        static_cast<double>(k);

    std::vector<NodeId> order(g.numNodes());
    std::iota(order.begin(), order.end(), 0u);
    rng.shuffle(order); // random tie-break below the weight sort
    withRows(g, [&](auto rows) {
        std::stable_sort(order.begin(), order.end(),
                         [&rows](NodeId a, NodeId b) {
                             return rows.nodeWeight(a) >
                                    rows.nodeWeight(b);
                         });

        std::vector<double> partW(k, 0.0);
        std::vector<uint64_t> conn(k, 0);
        std::vector<uint32_t> touched;
        for (NodeId u : order) {
            touched.clear();
            for (uint64_t i = rows.off[u]; i < rows.off[u + 1]; ++i) {
                uint32_t p = part[rows.adj[i]];
                if (p == kInvalidNode)
                    continue;
                if (conn[p] == 0)
                    touched.push_back(p);
                conn[p] += rows.edgeWeight(i);
            }
            uint32_t best = kInvalidNode;
            uint64_t bestConn = 0;
            for (uint32_t p : touched) {
                if (conn[p] > bestConn &&
                    partW[p] + rows.nodeWeight(u) <= maxW) {
                    best = p;
                    bestConn = conn[p];
                }
            }
            if (best == kInvalidNode) {
                // Seed (or overflow into) the lightest part.
                best = 0;
                for (uint32_t p = 1; p < k; ++p)
                    if (partW[p] < partW[best])
                        best = p;
            }
            part[u] = best;
            partW[best] += rows.nodeWeight(u);
            for (uint32_t p : touched)
                conn[p] = 0;
        }
    });
    return part;
}

/**
 * Boundary FM refinement: greedily move boundary nodes to the adjacent
 * part with maximal connectivity gain subject to the balance bound.
 */
void
refine(const WeightedCsr &g, std::vector<uint32_t> &part, uint32_t k,
       uint64_t totalWeight, double imbalance, uint32_t passes, Rng &rng)
{
    if (k <= 1)
        return;
    withRows(g, [&](auto rows) {
        const uint32_t n = g.numNodes();
        std::vector<uint64_t> partW(k, 0);
        for (NodeId u = 0; u < n; ++u)
            partW[part[u]] += rows.nodeWeight(u);
        const double maxW = imbalance * static_cast<double>(totalWeight) /
                            static_cast<double>(k);

        std::vector<NodeId> order(n);
        std::iota(order.begin(), order.end(), 0u);

        std::vector<uint64_t> conn(k, 0);
        // A node touches each part at most once: k slots always do.
        std::vector<uint32_t> touched(k);

        for (uint32_t pass = 0; pass < passes; ++pass) {
            rng.shuffle(order);
            uint64_t moves = 0;
            for (NodeId u : order) {
                const uint32_t own = part[u];
                const bool overweight = partW[own] > maxW;
                uint32_t numTouched = 0;
                bool boundary = false;
                for (uint64_t i = rows.off[u]; i < rows.off[u + 1]; ++i) {
                    const uint32_t p = part[rows.adj[i]];
                    if (p != own)
                        boundary = true;
                    if (conn[p] == 0)
                        touched[numTouched++] = p;
                    conn[p] += rows.edgeWeight(i);
                }
                if (boundary) {
                    const uint32_t w = rows.nodeWeight(u);
                    uint32_t best = own;
                    // An overweight part sheds boundary nodes even at a
                    // connectivity loss (explicit rebalancing).
                    uint64_t bestConn = overweight ? 0 : conn[own];
                    for (uint32_t t = 0; t < numTouched; ++t) {
                        const uint32_t p = touched[t];
                        if (p == own)
                            continue;
                        bool better = overweight ? conn[p] >= bestConn
                                                 : conn[p] > bestConn;
                        if (better && partW[p] + w <= maxW &&
                            partW[own] > w) {
                            best = p;
                            bestConn = conn[p];
                        }
                    }
                    if (best != own) {
                        partW[own] -= w;
                        partW[best] += w;
                        part[u] = best;
                        ++moves;
                    }
                }
                for (uint32_t t = 0; t < numTouched; ++t)
                    conn[touched[t]] = 0;
            }
            if (moves == 0)
                break;
        }
    });
}

} // namespace

CoarseLevel
contractMatching(const WeightedCsr &g, const std::vector<NodeId> &match,
                 uint32_t threads)
{
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

    // Gather each coarse row once, via its smaller member, into the
    // flat buffers of that member's chunk: disjoint writes, so the
    // buffers are the same for every thread count.
    struct Run
    {
        std::vector<uint64_t> rowEnd;
        std::vector<NodeId> cols;
        std::vector<uint32_t> weights;
    };
    std::vector<Run> runs(util::parallelForChunks(n));
    lvl.nodeWeights.assign(cn, 0);
    withRows(g, [&](auto rows) {
        for (NodeId u = 0; u < n; ++u)
            lvl.nodeWeights[lvl.fineToCoarse[u]] += rows.nodeWeight(u);
        util::parallelFor(n, threads, [&](uint64_t begin, uint64_t end,
                                          uint32_t chunk) {
            std::vector<uint32_t> &weightTo = scatterScratch(cn);
            Run &run = runs[chunk];
            for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
                const NodeId v = match[u];
                if (v < u)
                    continue; // row is built by the smaller member
                const NodeId cu = lvl.fineToCoarse[u];
                const size_t rowBegin = run.cols.size();
                auto scan = [&](NodeId fine) {
                    for (uint64_t i = rows.off[fine];
                         i < rows.off[fine + 1]; ++i) {
                        const NodeId cv = lvl.fineToCoarse[rows.adj[i]];
                        if (cv == cu)
                            continue; // interior edge disappears
                        if (weightTo[cv] == 0)
                            run.cols.push_back(cv);
                        weightTo[cv] += rows.edgeWeight(i);
                    }
                };
                scan(u);
                if (v != u)
                    scan(v);
                for (size_t j = rowBegin; j < run.cols.size(); ++j) {
                    run.weights.push_back(weightTo[run.cols[j]]);
                    weightTo[run.cols[j]] = 0;
                }
                run.rowEnd.push_back(run.cols.size());
            }
        });
    });

    // Counting-sort transpose. The runs hold the coarse rows in
    // ascending id order, so visiting them in order and appending row
    // r to the row of each of its columns leaves every row sorted.
    lvl.offsets.assign(static_cast<size_t>(cn) + 1, 0);
    for (const Run &run : runs)
        for (NodeId cv : run.cols)
            ++lvl.offsets[cv + 1];
    for (NodeId c = 0; c < cn; ++c)
        lvl.offsets[c + 1] += lvl.offsets[c];
    lvl.adjacency.resize(lvl.offsets[cn]);
    lvl.edgeWeights.resize(lvl.offsets[cn]);
    std::vector<uint64_t> cursor(lvl.offsets.begin(), lvl.offsets.end() - 1);
    NodeId row = 0;
    for (const Run &run : runs) {
        size_t j = 0;
        for (uint64_t rowEnd : run.rowEnd) {
            for (; j < rowEnd; ++j) {
                const uint64_t at = cursor[run.cols[j]]++;
                lvl.adjacency[at] = row;
                lvl.edgeWeights[at] = run.weights[j];
            }
            ++row;
        }
    }
    GROW_ASSERT(row == cn, "contraction built a row count other than "
                           "its coarse node count");
    return lvl;
}

MultilevelPartitioner::MultilevelPartitioner(PartitionConfig config)
    : config_(config)
{
    GROW_ASSERT(config_.numParts >= 1, "need at least one part");
}

PartitionResult
MultilevelPartitioner::partition(const graph::Graph &g) const
{
    return partition(g.view());
}

PartitionResult
MultilevelPartitioner::partition(const graph::CsrView &g) const
{
    PartitionResult result;
    const uint32_t k = std::min(config_.numParts,
                                std::max(1u, g.numNodes()));
    result.numParts = k;
    if (k == 1 || g.numNodes() == 0) {
        result.assignment.assign(g.numNodes(), 0);
        return result;
    }

    Rng rng(config_.seed);
    // The level-0 graph borrows the caller's arrays (possibly an
    // mmap-backed file bigger than RAM); contracted levels own theirs.
    const WeightedCsr input{g.offsets, g.adjacency, {}, {}};
    const uint64_t totalWeight = g.numNodes();
    std::vector<CoarseLevel> levels;
    auto finest = [&] {
        return levels.empty() ? input : levels.back().graph();
    };

    // Coarsening.
    const uint32_t targetNodes =
        std::max(2u * k, k * config_.coarsenNodesPerPart);
    while (finest().numNodes() > targetNodes &&
           levels.size() < config_.maxLevels) {
        const WeightedCsr current = finest();
        auto match = heavyEdgeMatching(current, rng);
        CoarseLevel lvl = contractMatching(current, match, config_.threads);
        if (lvl.nodeWeights.size() >= current.numNodes() * 95 / 100)
            break; // matching stalled (e.g. star graphs)
        levels.push_back(std::move(lvl));
    }

    // Initial partition at the coarsest level.
    std::vector<uint32_t> part =
        initialPartition(finest(), k, totalWeight, rng);
    refine(finest(), part, k, totalWeight, config_.imbalance,
           config_.refinePasses, rng);

    // Uncoarsen with refinement, dropping each level once projected.
    while (!levels.empty()) {
        const auto &map = levels.back().fineToCoarse;
        std::vector<uint32_t> finePart(map.size());
        for (size_t u = 0; u < map.size(); ++u)
            finePart[u] = part[map[u]];
        part = std::move(finePart);
        levels.pop_back();
        refine(finest(), part, k, totalWeight, config_.imbalance,
               config_.refinePasses, rng);
    }

    result.assignment = std::move(part);
    return result;
}

PartitionResult
contiguousPartition(uint32_t nodes, uint32_t parts)
{
    GROW_ASSERT(parts >= 1, "need at least one part");
    PartitionResult r;
    r.numParts = parts;
    r.assignment.resize(nodes);
    uint64_t per = (nodes + parts - 1) / std::max(1u, parts);
    for (uint32_t i = 0; i < nodes; ++i)
        r.assignment[i] = static_cast<uint32_t>(
            std::min<uint64_t>(i / std::max<uint64_t>(per, 1), parts - 1));
    return r;
}

PartitionResult
randomPartition(uint32_t nodes, uint32_t parts, uint64_t seed)
{
    GROW_ASSERT(parts >= 1, "need at least one part");
    PartitionResult r;
    r.numParts = parts;
    r.assignment.resize(nodes);
    Rng rng(seed);
    for (uint32_t i = 0; i < nodes; ++i)
        r.assignment[i] = static_cast<uint32_t>(rng.bounded(parts));
    return r;
}

} // namespace grow::partition
