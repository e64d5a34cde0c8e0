/**
 * @file
 * Undirected graph in adjacency-CSR form.
 *
 * The convention throughout matches Table I of the paper: "# of Edges"
 * counts directed arcs (each undirected edge contributes two adjacency
 * entries), so average degree = arcs / nodes.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace grow::graph {

/**
 * Non-owning view of an adjacency-CSR graph: the accessor surface the
 * workload-build front-end (normalize, partition, relabel, HDN select,
 * sampling) consumes. Both storage backends produce one -- Graph (heap
 * vectors) via view() and MappedCsrGraph (mmap-backed file, possibly
 * larger than RAM) via its view() -- so the whole pipeline streams
 * either without caring where the bytes live. Invariants match Graph:
 * sorted neighbor lists, symmetric, no self loops.
 */
struct CsrView
{
    std::span<const uint64_t> offsets;  ///< size numNodes+1 (or empty)
    std::span<const NodeId> adjacency;  ///< sorted within each node

    uint32_t numNodes() const
    {
        return static_cast<uint32_t>(
            offsets.empty() ? 0 : offsets.size() - 1);
    }

    /** Directed adjacency entries (2x undirected edge count). */
    uint64_t numArcs() const { return adjacency.size(); }

    /** Undirected edge count. */
    uint64_t numEdges() const { return adjacency.size() / 2; }

    double avgDegree() const
    {
        const uint32_t n = numNodes();
        return n == 0 ? 0.0
                      : static_cast<double>(numArcs()) /
                            static_cast<double>(n);
    }

    /** Density of the (binary) adjacency matrix. */
    double density() const
    {
        const double n = numNodes();
        return n == 0.0 ? 0.0 : static_cast<double>(numArcs()) / (n * n);
    }

    uint32_t degree(NodeId v) const
    {
        return static_cast<uint32_t>(offsets[v + 1] - offsets[v]);
    }

    /** Sorted neighbor list of @p v. */
    std::span<const NodeId> neighbors(NodeId v) const
    {
        return adjacency.subspan(offsets[v],
                                 static_cast<size_t>(offsets[v + 1] -
                                                     offsets[v]));
    }
};

class Graph
{
  public:
    Graph() = default;

    /**
     * Build from undirected edge endpoints. Self-loops and duplicate
     * edges are removed; both (u,v) and (v,u) adjacency entries are
     * created. Each edge is bucketed by its smaller endpoint, and the
     * buckets are scattered in ascending order, so rows come out
     * sorted without a sort over all edges.
     */
    static Graph fromEdges(uint32_t nodes,
                           std::vector<std::pair<NodeId, NodeId>> edges);

    /**
     * Rebuild from raw adjacency-CSR arrays (e.g. a deserialized
     * graph). The arrays must already satisfy the class invariants:
     * sorted neighbor lists, symmetric, no self loops -- validated.
     */
    static Graph fromAdjacency(std::vector<uint64_t> offsets,
                               std::vector<NodeId> neighbors);

    uint32_t numNodes() const { return static_cast<uint32_t>(offsets_.empty() ? 0 : offsets_.size() - 1); }

    /** Directed adjacency entries (2x undirected edge count). */
    uint64_t numArcs() const { return neighbors_.size(); }

    /** Undirected edge count. */
    uint64_t numEdges() const { return neighbors_.size() / 2; }

    double avgDegree() const;

    /** Density of the (binary) adjacency matrix. */
    double density() const;

    uint32_t degree(NodeId v) const;

    /** Sorted neighbor list of @p v. */
    std::span<const NodeId> neighbors(NodeId v) const;

    const std::vector<uint64_t> &offsets() const { return offsets_; }
    const std::vector<NodeId> &adjacency() const { return neighbors_; }

    /** Non-owning CSR view (the front-end accessor surface). */
    CsrView view() const { return {offsets_, neighbors_}; }

    /** Whether edge (u,v) exists (binary search). */
    bool hasEdge(NodeId u, NodeId v) const;

    /**
     * Relabelled copy: node i of the result is node new_to_old[i] of
     * this graph.
     */
    Graph relabeled(const std::vector<NodeId> &new_to_old) const;

    /** Structural invariants: sortedness, symmetry, no self loops. */
    bool validate() const;

  private:
    std::vector<uint64_t> offsets_;  ///< size numNodes+1
    std::vector<NodeId> neighbors_;  ///< sorted within each node
};

} // namespace grow::graph
