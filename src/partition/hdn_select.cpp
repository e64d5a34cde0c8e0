#include "partition/hdn_select.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/work_pool.hpp"

namespace grow::partition {

std::vector<std::vector<NodeId>>
selectHdnPerCluster(const graph::Graph &relabeled,
                    const Clustering &clustering, uint32_t top_n)
{
    const uint32_t k = clustering.numClusters();
    GROW_ASSERT(clustering.clusterStart.back() == relabeled.numNodes(),
                "clustering does not cover the graph");
    std::vector<std::vector<NodeId>> lists(k);
    std::vector<std::pair<uint32_t, NodeId>> ranked;
    for (uint32_t c = 0; c < k; ++c) {
        const uint32_t lo = clustering.clusterStart[c];
        const uint32_t hi = clustering.clusterStart[c + 1];
        ranked.clear();
        ranked.reserve(hi - lo);
        for (NodeId v = lo; v < hi; ++v) {
            uint32_t intra = 0;
            for (NodeId nb : relabeled.neighbors(v))
                if (nb >= lo && nb < hi)
                    ++intra;
            ranked.emplace_back(intra, v);
        }
        // Sort by descending intra-degree; tie-break on ID for
        // determinism.
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto &a, const auto &b) {
                      if (a.first != b.first)
                          return a.first > b.first;
                      return a.second < b.second;
                  });
        const size_t n = std::min<size_t>(top_n, ranked.size());
        lists[c].reserve(n);
        for (size_t i = 0; i < n; ++i)
            lists[c].push_back(ranked[i].second);
    }
    return lists;
}

std::vector<std::vector<NodeId>>
selectHdnPerCluster(const graph::CsrView &original,
                    const RelabelResult &relabel, uint32_t top_n,
                    uint32_t threads)
{
    const Clustering &clustering = relabel.clustering;
    const uint32_t k = clustering.numClusters();
    const uint32_t n = original.numNodes();
    GROW_ASSERT(clustering.clusterStart.back() == n &&
                    relabel.newToOld.size() == n,
                "clustering does not cover the graph");

    // Invert the permutation once; disjoint writes, so chunkable.
    std::vector<NodeId> oldToNew(n);
    util::parallelFor(n, threads,
                      [&](uint64_t begin, uint64_t end, uint32_t) {
        for (NodeId v = static_cast<NodeId>(begin); v < end; ++v)
            oldToNew[relabel.newToOld[v]] = v;
    });

    // Each cluster ranks its own nodes and writes only its own list:
    // order-independent, bit-identical for every thread count.
    std::vector<std::vector<NodeId>> lists(k);
    util::parallelFor(k, threads,
                      [&](uint64_t begin, uint64_t end, uint32_t) {
        std::vector<std::pair<uint32_t, NodeId>> ranked;
        for (uint32_t c = static_cast<uint32_t>(begin); c < end; ++c) {
            const uint32_t lo = clustering.clusterStart[c];
            const uint32_t hi = clustering.clusterStart[c + 1];
            ranked.clear();
            ranked.reserve(hi - lo);
            for (NodeId v = lo; v < hi; ++v) {
                uint32_t intra = 0;
                for (NodeId nb : original.neighbors(relabel.newToOld[v])) {
                    NodeId rnb = oldToNew[nb];
                    if (rnb >= lo && rnb < hi)
                        ++intra;
                }
                ranked.emplace_back(intra, v);
            }
            std::sort(ranked.begin(), ranked.end(),
                      [](const auto &a, const auto &b) {
                          if (a.first != b.first)
                              return a.first > b.first;
                          return a.second < b.second;
                      });
            const size_t take = std::min<size_t>(top_n, ranked.size());
            lists[c].reserve(take);
            for (size_t i = 0; i < take; ++i)
                lists[c].push_back(ranked[i].second);
        }
    });
    return lists;
}

} // namespace grow::partition
