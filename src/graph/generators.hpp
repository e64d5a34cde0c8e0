/**
 * @file
 * Synthetic graph generators.
 *
 * The paper evaluates on eight real-world graphs (Table I). Those
 * datasets are not redistributable inside this repository, so we
 * synthesise graphs that reproduce the three structural properties
 * GROW's mechanisms depend on:
 *
 *  1. power-law degree distribution (drives HDN caching, Fig. 11),
 *  2. community structure (drives graph partitioning, Figs. 13/14),
 *  3. target size/average degree (drives density and tiling behaviour).
 *
 * The primary generator is a degree-corrected stochastic block model
 * (DC-SBM): nodes carry Pareto-distributed degree weights and belong to
 * planted communities; each edge keeps its endpoints inside one
 * community with probability `intraFraction`. Chung-Lu (no communities)
 * and Erdos-Renyi generators are provided for ablations and tests.
 */
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "util/random.hpp"

namespace grow::graph {

/** Parameters of the degree-corrected stochastic block model. */
struct DcSbmParams
{
    uint32_t nodes = 0;
    /** Target average degree (arcs per node). */
    double avgDegree = 8.0;
    /** Degree-distribution power-law exponent (typically 2.1 - 3.0). */
    double powerLawAlpha = 2.3;
    /** Number of planted communities (>= 1; 1 degenerates to Chung-Lu). */
    uint32_t communities = 1;
    /** Probability an edge stays inside its source's community. */
    double intraFraction = 0.8;
    /** Per-node weight cap as a fraction of `nodes` (bounds hub size). */
    double maxWeightFraction = 0.25;
    uint64_t seed = 1;
};

/**
 * Generate a DC-SBM graph. Node IDs are shuffled so that community
 * membership is *not* discoverable from ID order -- the partitioner has
 * to find it (exactly the situation of Fig. 12 vs Fig. 13).
 */
Graph generateDcSbm(const DcSbmParams &params);

/**
 * Ground-truth community of each node for the most recent construction
 * is returned alongside the graph via this overload.
 */
Graph generateDcSbm(const DcSbmParams &params,
                    std::vector<uint32_t> &community_out);

/** Chung-Lu power-law graph (no community structure). */
Graph generateChungLu(uint32_t nodes, double avg_degree, double alpha,
                      uint64_t seed);

/** Uniform Erdos-Renyi G(n, m) graph (tests and non-power-law study). */
Graph generateErdosRenyi(uint32_t nodes, uint64_t undirected_edges,
                         uint64_t seed);

/** 2-D grid graph (deterministic, for partitioner sanity tests). */
Graph generateGrid(uint32_t width, uint32_t height);

} // namespace grow::graph
