#include "graph/graph.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace grow::graph {

Graph
Graph::fromEdges(uint32_t nodes, std::vector<std::pair<NodeId, NodeId>> edges)
{
    // Counting-sort every edge but a self loop into the bucket of its
    // smaller endpoint, keeping the larger one.
    std::vector<uint64_t> bucket(static_cast<size_t>(nodes) + 1, 0);
    for (const auto &[u, v] : edges) {
        GROW_ASSERT(u < nodes && v < nodes, "edge endpoint out of range");
        if (u != v)
            ++bucket[std::min(u, v) + 1];
    }
    for (uint32_t u = 0; u < nodes; ++u)
        bucket[u + 1] += bucket[u];
    std::vector<NodeId> larger(bucket[nodes]);
    {
        std::vector<uint64_t> cursor(bucket.begin(), bucket.end() - 1);
        for (const auto &[u, v] : edges)
            if (u != v)
                larger[cursor[std::min(u, v)]++] = std::max(u, v);
    }
    // The edge list is the largest array here: free it before the rows
    // are allocated (assigning {} would keep its capacity).
    std::vector<std::pair<NodeId, NodeId>>().swap(edges);

    // Sort and dedupe each (small) bucket, compacting the kept entries
    // down in place, and count both endpoints' degrees.
    Graph g;
    g.offsets_.assign(static_cast<size_t>(nodes) + 1, 0);
    uint64_t kept = 0;
    for (uint32_t u = 0; u < nodes; ++u) {
        NodeId *begin = larger.data() + bucket[u];
        NodeId *end = larger.data() + bucket[u + 1];
        std::sort(begin, end);
        end = std::unique(begin, end);
        bucket[u] = kept;
        g.offsets_[u + 1] += static_cast<uint64_t>(end - begin);
        for (const NodeId *p = begin; p != end; ++p) {
            larger[kept++] = *p;
            ++g.offsets_[*p + 1];
        }
    }
    bucket[nodes] = kept;
    for (uint32_t i = 0; i < nodes; ++i)
        g.offsets_[i + 1] += g.offsets_[i];

    // Scatter both directions bucket by bucket. Row w first receives
    // every smaller neighbour, from the buckets before its own in
    // ascending order, then its own bucket's larger ones, ascending:
    // every row comes out sorted.
    g.neighbors_.resize(g.offsets_[nodes]);
    std::vector<uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
    for (uint32_t u = 0; u < nodes; ++u) {
        for (uint64_t i = bucket[u]; i < bucket[u + 1]; ++i) {
            const NodeId v = larger[i];
            g.neighbors_[cursor[u]++] = v;
            g.neighbors_[cursor[v]++] = u;
        }
    }
    return g;
}

Graph
Graph::fromAdjacency(std::vector<uint64_t> offsets,
                     std::vector<NodeId> neighbors)
{
    GROW_ASSERT(!offsets.empty() && offsets.front() == 0 &&
                    offsets.back() == neighbors.size(),
                "malformed adjacency offsets");
    Graph g;
    g.offsets_ = std::move(offsets);
    g.neighbors_ = std::move(neighbors);
    GROW_ASSERT(g.validate(), "adjacency arrays violate graph invariants");
    return g;
}

double
Graph::avgDegree() const
{
    uint32_t n = numNodes();
    return n == 0 ? 0.0
                  : static_cast<double>(numArcs()) / static_cast<double>(n);
}

double
Graph::density() const
{
    uint32_t n = numNodes();
    if (n == 0)
        return 0.0;
    return static_cast<double>(numArcs()) /
           (static_cast<double>(n) * static_cast<double>(n));
}

uint32_t
Graph::degree(NodeId v) const
{
    GROW_ASSERT(v < numNodes(), "node out of range");
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
}

std::span<const NodeId>
Graph::neighbors(NodeId v) const
{
    GROW_ASSERT(v < numNodes(), "node out of range");
    return {neighbors_.data() + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
}

bool
Graph::hasEdge(NodeId u, NodeId v) const
{
    auto nb = neighbors(u);
    return std::binary_search(nb.begin(), nb.end(), v);
}

Graph
Graph::relabeled(const std::vector<NodeId> &new_to_old) const
{
    uint32_t n = numNodes();
    GROW_ASSERT(new_to_old.size() == n, "permutation size mismatch");
    std::vector<NodeId> old_to_new(n, kInvalidNode);
    for (NodeId i = 0; i < n; ++i) {
        GROW_ASSERT(new_to_old[i] < n && old_to_new[new_to_old[i]] == kInvalidNode,
                    "new_to_old is not a permutation");
        old_to_new[new_to_old[i]] = i;
    }

    Graph g;
    g.offsets_.assign(static_cast<size_t>(n) + 1, 0);
    for (NodeId i = 0; i < n; ++i)
        g.offsets_[i + 1] = g.offsets_[i] + degree(new_to_old[i]);
    g.neighbors_.resize(numArcs());
    for (NodeId i = 0; i < n; ++i) {
        uint64_t out = g.offsets_[i];
        for (NodeId nb : neighbors(new_to_old[i]))
            g.neighbors_[out++] = old_to_new[nb];
        std::sort(g.neighbors_.begin() + g.offsets_[i],
                  g.neighbors_.begin() + g.offsets_[i + 1]);
    }
    return g;
}

bool
Graph::validate() const
{
    uint32_t n = numNodes();
    for (NodeId v = 0; v < n; ++v) {
        auto nb = neighbors(v);
        for (size_t i = 0; i < nb.size(); ++i) {
            if (nb[i] >= n || nb[i] == v)
                return false;
            if (i > 0 && nb[i] <= nb[i - 1])
                return false;
            // Symmetry.
            if (!hasEdge(nb[i], v))
                return false;
        }
    }
    return true;
}

} // namespace grow::graph
