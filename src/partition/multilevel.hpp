/**
 * @file
 * Multilevel k-way graph partitioner.
 *
 * GROW preprocesses the adjacency matrix with a METIS-style graph
 * partitioning pass (Sec. V-C) so that intra-cluster nodes share far
 * more edges than inter-cluster nodes. METIS itself is not vendored;
 * this is an independent implementation of the same multilevel scheme
 * (Karypis & Kumar, SIAM J. Sci. Comput. 1998):
 *
 *  1. Coarsening via heavy-edge matching (HEM) until the graph is small.
 *     Each contraction (coarsen.hpp) sorts its rows with one
 *     counting-sort transpose, which is the coarse graph itself because
 *     a symmetric input (Graph, every well-formed file) keeps every
 *     level symmetric.
 *  2. Initial k-way partition of the coarsest graph by weight-ordered
 *     greedy attachment: heaviest nodes first, each joins the adjacent
 *     part it is most strongly connected to among those under the
 *     balance bound, or else seeds the lightest part.
 *  3. Uncoarsening with boundary Fiduccia-Mattheyses refinement under a
 *     balance constraint, on the levels the coarsening kept.
 *
 * The partitioner is deterministic for a fixed seed AND a fixed thread
 * count is *not* required: only the order-independent disjoint-write
 * stage (the contraction's row gather) is parallelized, in
 * thread-count-independent chunks (util::parallelFor), while the
 * transpose and the rng-sequential stages (matching, initial
 * partition, refinement) stay serial. threads=8 therefore produces
 * bit-identical assignments to threads=1.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace grow::partition {

/** Result of a k-way partition. */
struct PartitionResult
{
    uint32_t numParts = 0;
    /** Node -> part assignment. */
    std::vector<uint32_t> assignment;
};

/** Tuning parameters for the multilevel scheme. */
struct PartitionConfig
{
    uint32_t numParts = 2;
    /** Allowed max part weight as a multiple of the average. */
    double imbalance = 1.10;
    uint64_t seed = 1;
    /** Stop coarsening once nodes <= numParts * this. */
    uint32_t coarsenNodesPerPart = 16;
    /** FM passes per uncoarsening level. */
    uint32_t refinePasses = 4;
    /** Hard cap on coarsening levels. */
    uint32_t maxLevels = 48;
    /**
     * Worker threads for the contraction stage (1 = serial). Never part
     * of any cache key: the assignment is bit-identical for every
     * value.
     */
    uint32_t threads = 1;
};

/**
 * Multilevel k-way partitioner.
 */
class MultilevelPartitioner
{
  public:
    explicit MultilevelPartitioner(PartitionConfig config);

    /** Partition @p g into config.numParts parts. */
    PartitionResult partition(const graph::Graph &g) const;

    /**
     * Partition any CSR view (heap Graph or mmap-backed file graph --
     * the level-0 adjacency is streamed from the view, never copied,
     * so graphs larger than RAM coarsen straight off the page cache).
     */
    PartitionResult partition(const graph::CsrView &g) const;

  private:
    PartitionConfig config_;
};

/**
 * Baseline partitioner assigning equally sized contiguous ID ranges
 * (no structure awareness); used as an ablation reference.
 */
PartitionResult contiguousPartition(uint32_t nodes, uint32_t parts);

/** Random balanced partition (ablation reference). */
PartitionResult randomPartition(uint32_t nodes, uint32_t parts,
                                uint64_t seed);

} // namespace grow::partition
