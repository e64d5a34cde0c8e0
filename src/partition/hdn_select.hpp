/**
 * @file
 * High-degree-node (HDN) list generation.
 *
 * GROW's software stack augments the partitioning pass with "a pass that
 * generates the top-N high-degree nodes as a HDN ID list per each
 * cluster" (Sec. V-C). The per-cluster ranking uses *intra-cluster*
 * degree (Fig. 13 explicitly tabulates "Node degree (Intra-cluster)"),
 * because only references from within the active cluster can hit the
 * cache while that cluster is being processed.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "partition/relabel.hpp"

namespace grow::partition {

/**
 * Top-N nodes per cluster by intra-cluster degree, over a graph that
 * has already been relabeled cluster-contiguously.
 *
 * @return one ID list per cluster (IDs in the relabeled space), each
 *         sorted by descending intra-cluster degree.
 */
std::vector<std::vector<NodeId>>
selectHdnPerCluster(const graph::Graph &relabeled,
                    const Clustering &clustering, uint32_t top_n);

/**
 * Same ranking computed from the *original* graph view plus the
 * relabeling, without materializing the relabeled graph: intra-cluster
 * degrees are counted through the permutation, streaming the (possibly
 * mmap-backed, larger-than-RAM) original adjacency once. Clusters are
 * ranked independently and fanned out over @p threads workers in
 * thread-count-independent chunks -- the lists are bit-identical to
 * the materialized overload for every thread count.
 */
std::vector<std::vector<NodeId>>
selectHdnPerCluster(const graph::CsrView &original,
                    const RelabelResult &relabel, uint32_t top_n,
                    uint32_t threads = 1);

} // namespace grow::partition
