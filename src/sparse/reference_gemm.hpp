/**
 * @file
 * Golden-model matrix kernels.
 *
 * These reference implementations define functional correctness for
 * every accelerator model: each cycle-level engine also produces its
 * output matrix, which integration tests compare against referenceSpMM.
 * The MAC-counting helpers reproduce the Fig. 2 execution-order study
 * ((A*X)*W vs A*(X*W)).
 */
#pragma once

#include <cstdint>

#include "sparse/csr_matrix.hpp"
#include "sparse/dense_matrix.hpp"

namespace grow::sparse {

/** C = S * D for sparse S (CSR) and dense D. */
DenseMatrix referenceSpMM(const CsrMatrix &s, const DenseMatrix &d);

/** C = A * B for dense A, B. */
DenseMatrix referenceGemm(const DenseMatrix &a, const DenseMatrix &b);

/**
 * Multiply-accumulate counts for the two GCN execution orders of
 * A * X * W (Sec. II-B). Sparse operands contribute only effectual MACs.
 */
struct MacCounts
{
    /** (A*X) then (AX)*W. */
    uint64_t axThenW = 0;
    /** (X*W) then A*(XW). */
    uint64_t xwThenA = 0;
};

/**
 * Count MACs for both execution orders given the structural operands.
 *
 * @param a adjacency (sparse, n x n)
 * @param x features (sparse-or-dense, n x f; CSR structure used)
 * @param w_cols output feature width of the dense weight matrix
 */
MacCounts countMacsBothOrders(const CsrMatrix &a, const CsrMatrix &x,
                              uint32_t w_cols);

} // namespace grow::sparse
