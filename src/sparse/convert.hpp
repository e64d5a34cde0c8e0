/**
 * @file
 * Densifying a CSR matrix and random matrix synthesis helpers.
 *
 * Densifying reads a CSR matrix's values, so it rejects a
 * structure-only matrix (CsrMatrix::hasValues()).
 */
#pragma once

#include "sparse/csr_matrix.hpp"
#include "sparse/dense_matrix.hpp"
#include "util/random.hpp"

namespace grow::sparse {

/** Densify a CSR matrix. */
DenseMatrix toDense(const CsrMatrix &m);

/**
 * Random CSR matrix with i.i.d. Bernoulli(@p density) non-zero pattern
 * and uniform values in [-1, 1). Used to synthesise GCN feature matrices
 * X at the densities reported in Table I.
 *
 * Positions come out in row-major order, so the CSR arrays are written
 * as they are drawn. Each non-zero consumes its value draw even when
 * @p with_values is false and the matrix is left structure-only: the
 * pattern, and every later draw on @p rng, is the same either way.
 */
CsrMatrix randomCsr(uint32_t rows, uint32_t cols, double density, Rng &rng,
                    bool with_values = true);

/** Random dense matrix with uniform values in [-1, 1). */
DenseMatrix randomDense(uint32_t rows, uint32_t cols, Rng &rng);

} // namespace grow::sparse
