/**
 * @file
 * GCN adjacency normalization.
 *
 * Equation (1) of the paper operates on a normalized adjacency matrix;
 * normalization happens offline as a one-time preprocessing step
 * (Sec. II-A). We implement the standard Kipf & Welling symmetric form
 *     A_hat = D^{-1/2} (A + I) D^{-1/2}
 * with optional self-loops.
 */
#pragma once

#include "graph/graph.hpp"
#include "sparse/csr_matrix.hpp"

namespace grow::graph {

/**
 * Build the normalized adjacency CSR of @p g. Row fills fan out over
 * @p threads workers in thread-count-independent chunks
 * (util::parallelFor): the result is bit-identical for every thread
 * count, including the serial threads=1 path.
 *
 * @param g            input CSR view (heap Graph or mmap-backed file)
 * @param self_loops   add I before normalizing (GCN convention)
 * @param threads      worker threads for the row fill
 */
sparse::CsrMatrix normalizedAdjacency(const CsrView &g,
                                      bool self_loops = true,
                                      uint32_t threads = 1);

/** Convenience overload over a heap Graph (serial). */
sparse::CsrMatrix normalizedAdjacency(const Graph &g,
                                      bool self_loops = true);

} // namespace grow::graph
