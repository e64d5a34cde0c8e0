/**
 * @file
 * Seeded neighbour sampling (GraphSAGE's fanout-k operand, Sec. VIII).
 *
 * SAGEConv aggregates over a *sampled* neighbourhood instead of the
 * full adjacency: every node keeps itself plus at most `fanout`
 * uniformly drawn neighbours. On the GROW pipeline the sampled
 * neighbourhood is just another sparse LHS -- a row-subsampled,
 * mean-normalized adjacency matrix streamed by the same row-stationary
 * dataflow (the Sec. VIII argument for SAGEConv mapping onto the MAC
 * array as-is).
 *
 * Sampling is deterministic per (graph, fanout, seed). The fanout is a
 * model knob, so gcn::buildLayerData draws the sample per SAGEConv
 * workload, next to GIN's A + (1+eps)I; the seed derives from the
 * dataset spec, so every depth of a dataset streams the same sample.
 */
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "sparse/csr_matrix.hpp"

namespace grow::graph {

/**
 * Row-stochastic sampled adjacency of @p g: row v holds v itself plus
 * min(fanout, degree(v)) distinct neighbours drawn uniformly without
 * replacement, every entry weighted 1/(1 + #sampled) (the SAGEConv
 * mean over the sampled set including the central node). The result is
 * square (N x N) but -- unlike the input graph -- *not* symmetric:
 * u sampling v does not make v sample u.
 *
 * Deterministic: the same (g, fanout, seed) always yields a
 * bit-identical matrix. @p fanout must be >= 1.
 */
sparse::CsrMatrix sampleNeighborAdjacency(const CsrView &g,
                                          uint32_t fanout, uint64_t seed);

/** Convenience overload over a heap Graph. */
sparse::CsrMatrix sampleNeighborAdjacency(const Graph &g, uint32_t fanout,
                                          uint64_t seed);

} // namespace grow::graph
