/**
 * @file
 * The multilevel partitioner's coarsening hierarchy: the weighted CSR
 * level type and the contraction of matched pairs. Internal to
 * multilevel.cpp; declared here so tests can diff the contraction
 * against the per-row-sort version it replaced.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace grow::partition {

/**
 * One graph of the hierarchy as non-owning CSR spans. Node weights
 * count the input nodes a node stands for, edge weights the input
 * arcs an arc stands for. The input graph has no weight arrays (both
 * spans empty: every weight is 1); a contracted level has both.
 */
struct WeightedCsr
{
    std::span<const uint64_t> offsets;     ///< size numNodes+1
    std::span<const NodeId> adjacency;     ///< sorted within each row
    std::span<const uint32_t> edgeWeights; ///< per arc, or empty
    std::span<const uint32_t> nodeWeights; ///< per node, or empty

    uint32_t numNodes() const
    {
        return static_cast<uint32_t>(
            offsets.empty() ? 0 : offsets.size() - 1);
    }
};

/** One contracted level: the coarse graph and the fine-to-coarse map. */
struct CoarseLevel
{
    std::vector<uint64_t> offsets;
    std::vector<NodeId> adjacency;
    std::vector<uint32_t> edgeWeights;
    std::vector<uint32_t> nodeWeights;
    std::vector<NodeId> fineToCoarse;

    WeightedCsr graph() const
    {
        return {offsets, adjacency, edgeWeights, nodeWeights};
    }
};

/**
 * Contract every matched pair of @p g into one coarse node. @p match
 * is an involution: match[u] is u's partner, or u itself. Coarse ids
 * ascend with the smaller member; an arc inside a pair disappears and
 * parallel arcs merge, their weights summed.
 *
 * Each coarse row is gathered in first-touch order by its smaller
 * member, in util::parallelFor chunks of the fine nodes, and appended
 * to its chunk's flat buffer; each chunk's rows are one run of
 * consecutive coarse ids. One counting-sort transpose of the buffers
 * then yields rows sorted by construction: row c lists every row that
 * holds column c, in ascending order. The coarse graph of a symmetric
 * graph is symmetric with equal weights both ways, so for every input
 * a validated graph can be, the transpose is the coarse graph itself.
 * For an asymmetric input it is the transpose, still a well-formed
 * CSR. The result is bit-identical for every @p threads.
 */
CoarseLevel contractMatching(const WeightedCsr &g,
                             const std::vector<NodeId> &match,
                             uint32_t threads);

} // namespace grow::partition
