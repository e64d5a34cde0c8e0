/**
 * @file
 * Coordinate-format sparse matrix: the mutable builder format.
 *
 * Triples are deduplicated, sorted and converted to CSR
 * (CsrMatrix::fromCoo). The simulator builds its CSR operands
 * directly; COO serves tests that build small matrices by hand.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace grow::sparse {

/** One (row, col, value) triple. */
struct Triple
{
    NodeId row;
    NodeId col;
    double value;
};

class CooMatrix
{
  public:
    CooMatrix() = default;
    CooMatrix(uint32_t rows, uint32_t cols);

    uint32_t rows() const { return rows_; }
    uint32_t cols() const { return cols_; }
    uint64_t nnz() const { return triples_.size(); }

    /** Append one entry (duplicates allowed until canonicalize()). */
    void add(NodeId row, NodeId col, double value);

    /** Reserve capacity for @p n triples. */
    void reserve(size_t n) { triples_.reserve(n); }

    /**
     * Sort by (row, col) and combine duplicates by summing values.
     * Entries that sum to exactly zero are kept (structural non-zeros).
     */
    void canonicalize();

    /** Whether canonicalize() has been called since the last add(). */
    bool canonical() const { return canonical_; }

    const std::vector<Triple> &triples() const { return triples_; }

  private:
    uint32_t rows_ = 0;
    uint32_t cols_ = 0;
    bool canonical_ = true;
    std::vector<Triple> triples_;
};

} // namespace grow::sparse
