#include "scaleout/shard.hpp"

#include <algorithm>
#include <map>

#include "util/logging.hpp"

namespace grow::scaleout {

namespace {

/** clusterOf lookup table for every node (clusters are contiguous). */
std::vector<uint32_t>
nodeClusters(const partition::Clustering &clustering, uint32_t nodes)
{
    std::vector<uint32_t> out(nodes);
    for (uint32_t c = 0; c < clustering.numClusters(); ++c) {
        for (uint32_t v = clustering.clusterStart[c];
             v < clustering.clusterStart[c + 1]; ++v)
            out[v] = c;
    }
    return out;
}

} // namespace

void
requireChipsFitClusters(uint32_t chips, uint32_t num_clusters)
{
    if (chips > num_clusters)
        fatal("chips=" + std::to_string(chips) + " exceeds the " +
              std::to_string(num_clusters) +
              " partition clusters of this workload (a cluster is "
              "never split across chips)");
}

ChipShardPlan
buildShardPlan(const sparse::CsrMatrix &adjacency,
               const partition::Clustering &clustering, uint32_t chips)
{
    const uint32_t numClusters = clustering.numClusters();
    const uint32_t nodes = adjacency.rows();
    GROW_ASSERT(chips >= 1, "shard plan needs chips >= 1");
    GROW_ASSERT(numClusters >= 1, "shard plan needs a clustering");
    GROW_ASSERT(clustering.clusterStart.back() == nodes,
                "clustering does not cover the adjacency rows");
    requireChipsFitClusters(chips, numClusters);

    ChipShardPlan plan;
    plan.chips = chips;
    plan.clusterToChip.assign(numClusters, 0);
    plan.chipNodes.assign(chips, 0);

    const std::vector<uint32_t> nodeCluster =
        nodeClusters(clustering, nodes);

    if (chips > 1) {
        // Symmetric cluster-connectivity weights: every adjacency
        // non-zero contributes to both endpoint clusters' neighbour
        // maps, so a cluster's map prices all arcs it would drag
        // across a chip boundary.
        std::vector<std::map<uint32_t, uint64_t>> weight(numClusters);
        for (uint32_t v = 0; v < nodes; ++v) {
            const uint32_t cv = nodeCluster[v];
            for (NodeId nb : adjacency.rowCols(v)) {
                const uint32_t cn = nodeCluster[nb];
                if (cn == cv)
                    continue;
                weight[cv][cn] += 1;
                weight[cn][cv] += 1;
            }
        }

        // Contiguous balanced seeding in cluster order: relabeled
        // cluster IDs are locality-sorted (the partitioner's layout),
        // so contiguous runs are already a decent cut.
        const uint64_t target =
            (static_cast<uint64_t>(nodes) + chips - 1) / chips;
        uint32_t chip = 0;
        for (uint32_t c = 0; c < numClusters; ++c) {
            const uint64_t size = clustering.clusterSize(c);
            if (chip + 1 < chips && plan.chipNodes[chip] > 0 &&
                plan.chipNodes[chip] + size > target)
                ++chip;
            // Never strand clusters: the tail chips must each get at
            // least one cluster.
            const uint32_t remainingChips = chips - chip - 1;
            const uint32_t remainingClusters = numClusters - c - 1;
            plan.clusterToChip[c] = chip;
            plan.chipNodes[chip] += size;
            if (remainingChips > 0 && remainingClusters <= remainingChips &&
                remainingClusters > 0)
                ++chip;
        }

        // Hard balance cap: ~10% over the mean, but never below the
        // largest single cluster (a cluster is never split).
        uint64_t maxCluster = 0;
        for (uint32_t c = 0; c < numClusters; ++c)
            maxCluster = std::max<uint64_t>(maxCluster,
                                            clustering.clusterSize(c));
        const uint64_t cap =
            std::max<uint64_t>(maxCluster, target + target / 10);

        // Deterministic greedy refinement: move a cluster to the chip
        // holding most of its neighbour weight when that strictly
        // reduces the cut and respects the cap; clusters and chips are
        // scanned in ascending order, ties keep the lowest chip.
        std::vector<uint32_t> clustersOnChip(chips, 0);
        for (uint32_t c = 0; c < numClusters; ++c)
            ++clustersOnChip[plan.clusterToChip[c]];
        std::vector<uint64_t> conn(chips);
        for (int pass = 0; pass < 8; ++pass) {
            bool moved = false;
            for (uint32_t c = 0; c < numClusters; ++c) {
                const uint32_t from = plan.clusterToChip[c];
                if (clustersOnChip[from] <= 1)
                    continue; // never empty a chip
                std::fill(conn.begin(), conn.end(), 0);
                for (const auto &[d, w] : weight[c])
                    conn[plan.clusterToChip[d]] += w;
                const uint64_t size = clustering.clusterSize(c);
                uint32_t best = from;
                uint64_t bestGain = 0;
                for (uint32_t p = 0; p < chips; ++p) {
                    if (p == from ||
                        plan.chipNodes[p] + size > cap)
                        continue;
                    if (conn[p] > conn[from] &&
                        conn[p] - conn[from] > bestGain) {
                        best = p;
                        bestGain = conn[p] - conn[from];
                    }
                }
                if (best != from) {
                    plan.clusterToChip[c] = best;
                    plan.chipNodes[from] -= size;
                    plan.chipNodes[best] += size;
                    --clustersOnChip[from];
                    ++clustersOnChip[best];
                    moved = true;
                }
            }
            if (!moved)
                break;
        }
    } else {
        plan.chipNodes[0] = nodes;
    }

    plan.chipClusters.assign(chips, {});
    for (uint32_t c = 0; c < numClusters; ++c)
        plan.chipClusters[plan.clusterToChip[c]].push_back(c);

    plan.nodeToChip.resize(nodes);
    for (uint32_t v = 0; v < nodes; ++v)
        plan.nodeToChip[v] = plan.clusterToChip[nodeCluster[v]];

    for (uint32_t v = 0; v < nodes; ++v) {
        const uint32_t cv = plan.nodeToChip[v];
        for (NodeId nb : adjacency.rowCols(v))
            if (plan.nodeToChip[nb] != cv)
                ++plan.cutArcs;
    }
    return plan;
}

} // namespace grow::scaleout
