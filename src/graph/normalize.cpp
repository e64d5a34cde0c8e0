#include "graph/normalize.hpp"

#include <cmath>

#include "util/work_pool.hpp"

namespace grow::graph {

sparse::CsrMatrix
normalizedAdjacency(const CsrView &g, bool self_loops, uint32_t threads)
{
    const uint32_t n = g.numNodes();
    std::vector<double> invSqrtDeg(n);
    for (NodeId v = 0; v < n; ++v) {
        double d = g.degree(v) + (self_loops ? 1.0 : 0.0);
        invSqrtDeg[v] = d > 0.0 ? 1.0 / std::sqrt(d) : 0.0;
    }

    std::vector<uint64_t> rowPtr(static_cast<size_t>(n) + 1, 0);
    for (NodeId v = 0; v < n; ++v)
        rowPtr[v + 1] = rowPtr[v] + g.degree(v) + (self_loops ? 1 : 0);
    std::vector<NodeId> colIdx(rowPtr[n]);
    std::vector<double> values(rowPtr[n]);

    // Disjoint-write row fill: each row's slice of colIdx/values is
    // bracketed by rowPtr, so chunks never overlap and the output is
    // independent of the thread count.
    util::parallelFor(n, threads,
                      [&](uint64_t begin, uint64_t end, uint32_t) {
        for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
            uint64_t out = rowPtr[v];
            // The self loop lands at its sorted position among the
            // (ascending) neighbors, matching the canonical COO order
            // this construction replaced bit for bit.
            bool selfPlaced = !self_loops;
            for (NodeId nb : g.neighbors(v)) {
                if (!selfPlaced && nb > v) {
                    colIdx[out] = v;
                    values[out] = invSqrtDeg[v] * invSqrtDeg[v];
                    selfPlaced = true;
                    ++out;
                }
                colIdx[out] = nb;
                values[out] = invSqrtDeg[v] * invSqrtDeg[nb];
                ++out;
            }
            if (!selfPlaced) {
                colIdx[out] = v;
                values[out] = invSqrtDeg[v] * invSqrtDeg[v];
            }
        }
    });
    return sparse::CsrMatrix::fromRaw(n, n, std::move(rowPtr),
                                      std::move(colIdx),
                                      std::move(values));
}

sparse::CsrMatrix
normalizedAdjacency(const Graph &g, bool self_loops)
{
    return normalizedAdjacency(g.view(), self_loops, 1);
}

} // namespace grow::graph
