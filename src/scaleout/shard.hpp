/**
 * @file
 * Chip-shard planning: assigning partition clusters to chips.
 *
 * The multi-chip runner shards an inference at *cluster* granularity:
 * the partitioner's clusters (partition::multilevel via the workload's
 * RelabelResult) stay intact, and the shard plan only decides which
 * chip owns which clusters. Reusing the cluster structure keeps every
 * single-chip artefact valid per chip -- the cluster-contiguous
 * relabeling, the per-cluster HDN lists and the engines' cluster
 * round-robin all apply unchanged to a chip's slice -- while the plan
 * minimises the adjacency non-zeros that cross chips (the halo bytes
 * the links must carry).
 *
 * buildShardPlan is deterministic: contiguous balanced seeding in
 * cluster order, then fixed greedy refinement passes that move a
 * cluster to the chip with the highest cut-arc gain under a hard node
 * balance cap, scanning clusters and chips in ascending order with
 * lowest-index tie-breaks.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "partition/relabel.hpp"
#include "sparse/csr_matrix.hpp"

namespace grow::scaleout {

/** Assignment of partition clusters (and thus nodes) to chips. */
struct ChipShardPlan
{
    uint32_t chips = 1;
    /** clusterToChip[c] = chip owning cluster c. */
    std::vector<uint32_t> clusterToChip;
    /** Clusters owned by each chip, ascending cluster IDs. */
    std::vector<std::vector<uint32_t>> chipClusters;
    /** Nodes owned by each chip. */
    std::vector<uint64_t> chipNodes;
    /** nodeToChip[v] = chip owning (relabeled) node v. */
    std::vector<uint32_t> nodeToChip;
    /** Adjacency non-zeros whose row and column chips differ. */
    uint64_t cutArcs = 0;
};

/**
 * Assign the clusters of @p clustering to @p chips chips. The cut
 * objective counts the non-zeros of @p adjacency (the relabeled
 * operand the aggregation streams) whose endpoints land on different
 * chips; the balance cap keeps every chip within ~10% of the mean node
 * count (never below the largest single cluster -- a cluster is never
 * split). chips == 1 returns the trivial plan.
 */
ChipShardPlan buildShardPlan(const sparse::CsrMatrix &adjacency,
                             const partition::Clustering &clustering,
                             uint32_t chips);

/**
 * fatal() when @p chips exceeds @p num_clusters: a cluster is never
 * split across chips. buildShardPlan() checks it; a caller that knows
 * its chip counts before costly work checks them up front.
 */
void requireChipsFitClusters(uint32_t chips, uint32_t num_clusters);

} // namespace grow::scaleout
