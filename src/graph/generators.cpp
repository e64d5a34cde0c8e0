#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace grow::graph {

namespace {

/**
 * Draw Pareto degree weights with shape (alpha - 1), rescaled to the
 * target mean and capped to keep hubs bounded.
 */
std::vector<double>
degreeWeights(uint32_t nodes, double avg_degree, double alpha,
              double max_weight_fraction, Rng &rng)
{
    GROW_ASSERT(alpha > 1.0, "power-law exponent must exceed 1");
    std::vector<double> w(nodes);
    double sum = 0.0;
    for (auto &x : w) {
        x = rng.pareto(alpha - 1.0, 1.0);
        sum += x;
    }
    double scale = avg_degree * nodes / sum;
    double cap = std::max(avg_degree, max_weight_fraction * nodes);
    for (auto &x : w)
        x = std::min(x * scale, cap);
    return w;
}

} // namespace

Graph
generateDcSbm(const DcSbmParams &params)
{
    std::vector<uint32_t> ignored;
    return generateDcSbm(params, ignored);
}

Graph
generateDcSbm(const DcSbmParams &params, std::vector<uint32_t> &community_out)
{
    GROW_ASSERT(params.nodes > 1, "need at least two nodes");
    GROW_ASSERT(params.communities >= 1, "need at least one community");
    GROW_ASSERT(params.intraFraction >= 0.0 && params.intraFraction <= 1.0,
                "intraFraction must be in [0,1]");
    Rng rng(params.seed);

    const uint32_t n = params.nodes;
    const uint32_t k =
        std::min(params.communities, std::max(1u, n / 2));

    // Shuffled community assignment: communities are (almost) equal
    // sized, but node IDs give no hint of membership.
    std::vector<uint32_t> comm(n);
    for (uint32_t i = 0; i < n; ++i)
        comm[i] = i % k;
    rng.shuffle(comm);
    community_out = comm;

    std::vector<double> weights = degreeWeights(
        n, params.avgDegree, params.powerLawAlpha,
        params.maxWeightFraction, rng);

    // Global sampler and per-community samplers.
    AliasTable global(weights);
    std::vector<std::vector<NodeId>> members(k);
    for (uint32_t i = 0; i < n; ++i)
        members[comm[i]].push_back(i);
    std::vector<AliasTable> local(k);
    for (uint32_t c = 0; c < k; ++c) {
        GROW_ASSERT(!members[c].empty(), "empty community");
        std::vector<double> mw(members[c].size());
        for (size_t i = 0; i < members[c].size(); ++i)
            mw[i] = weights[members[c][i]];
        local[c] = AliasTable(mw);
    }

    // Target undirected edges; oversample slightly because self loops
    // and duplicates are discarded in Graph::fromEdges.
    const uint64_t target =
        static_cast<uint64_t>(params.avgDegree * n / 2.0);
    std::vector<std::pair<NodeId, NodeId>> edges;
    edges.reserve(target + target / 16);
    const uint64_t attempts = target + target / 12 + 16;
    for (uint64_t e = 0; e < attempts; ++e) {
        NodeId u = global.sample(rng);
        NodeId v;
        if (rng.bernoulli(params.intraFraction)) {
            const auto &m = members[comm[u]];
            v = m[local[comm[u]].sample(rng)];
        } else {
            v = global.sample(rng);
        }
        if (u == v)
            continue;
        edges.emplace_back(u, v);
    }
    return Graph::fromEdges(n, std::move(edges));
}

Graph
generateChungLu(uint32_t nodes, double avg_degree, double alpha,
                uint64_t seed)
{
    DcSbmParams p;
    p.nodes = nodes;
    p.avgDegree = avg_degree;
    p.powerLawAlpha = alpha;
    p.communities = 1;
    p.intraFraction = 0.0;
    p.seed = seed;
    return generateDcSbm(p);
}

Graph
generateErdosRenyi(uint32_t nodes, uint64_t undirected_edges, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::pair<NodeId, NodeId>> edges;
    edges.reserve(undirected_edges);
    for (uint64_t e = 0; e < undirected_edges; ++e) {
        NodeId u = static_cast<NodeId>(rng.bounded(nodes));
        NodeId v = static_cast<NodeId>(rng.bounded(nodes));
        if (u != v)
            edges.emplace_back(u, v);
    }
    return Graph::fromEdges(nodes, std::move(edges));
}

Graph
generateGrid(uint32_t width, uint32_t height)
{
    GROW_ASSERT(width > 0 && height > 0, "grid dims must be positive");
    std::vector<std::pair<NodeId, NodeId>> edges;
    auto id = [width](uint32_t x, uint32_t y) { return y * width + x; };
    for (uint32_t y = 0; y < height; ++y) {
        for (uint32_t x = 0; x < width; ++x) {
            if (x + 1 < width)
                edges.emplace_back(id(x, y), id(x + 1, y));
            if (y + 1 < height)
                edges.emplace_back(id(x, y), id(x, y + 1));
        }
    }
    return Graph::fromEdges(width * height, std::move(edges));
}

} // namespace grow::graph
