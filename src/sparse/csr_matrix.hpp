/**
 * @file
 * Compressed-sparse-row matrix.
 *
 * CSR is GROW's native operand format (Table II): the row-stationary
 * dataflow walks one LHS row at a time, and the CSR layout packs each
 * row's non-zeros densely so streaming them wastes no DRAM bandwidth
 * (Fig. 10(c)).
 *
 * A matrix may be *structure-only*: rowPtr and colIdx without a value
 * array. The cycle-level engines read only the structure of their LHS,
 * so synthetic feature matrices keep values only when a functional run
 * will read them (gcn::WorkloadConfig::functionalData). Structure
 * operations (rowCols, permutedSymmetric, streamBytes, validate) work
 * on either kind; value readers (rowVals, transposed, densify) reject
 * a structure-only matrix that has non-zeros.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace grow::sparse {

class CooMatrix;

class CsrMatrix
{
  public:
    CsrMatrix() = default;

    /** Construct an empty matrix of the given shape. */
    CsrMatrix(uint32_t rows, uint32_t cols);

    /** Build from a canonical COO matrix. */
    static CsrMatrix fromCoo(const CooMatrix &coo);

    /**
     * Build directly from raw arrays (validated). An empty @p values
     * makes a structure-only matrix.
     */
    static CsrMatrix fromRaw(uint32_t rows, uint32_t cols,
                             std::vector<uint64_t> row_ptr,
                             std::vector<NodeId> col_idx,
                             std::vector<double> values);

    uint32_t rows() const { return rows_; }
    uint32_t cols() const { return cols_; }
    uint64_t nnz() const { return colIdx_.size(); }

    /** Fraction of non-zero positions. */
    double density() const;

    /** Number of non-zeros in row @p r. */
    uint64_t rowNnz(NodeId r) const { return rowPtr_[r + 1] - rowPtr_[r]; }

    /** Column indices of row @p r. */
    std::span<const NodeId> rowCols(NodeId r) const;

    /**
     * Whether the value array is present: false only for a
     * structure-only matrix with non-zeros (vacuously true when
     * nnz() == 0).
     */
    bool hasValues() const { return values_.size() == colIdx_.size(); }

    /** Values of row @p r (requires hasValues()). */
    std::span<const double> rowVals(NodeId r) const;

    const std::vector<uint64_t> &rowPtr() const { return rowPtr_; }
    const std::vector<NodeId> &colIdx() const { return colIdx_; }
    /** Value array: nnz() entries, or empty when structure-only. */
    const std::vector<double> &values() const { return values_; }

    /** Transposed copy (CSR of the transpose; requires hasValues()). */
    CsrMatrix transposed() const;

    /**
     * Apply a symmetric permutation: row/col i of the result is
     * row/col perm[i] of this matrix (i.e. new_id -> old_id mapping).
     * Requires a square matrix. This is the "node relabeling" step of
     * GROW's graph-partitioning preprocessing (Fig. 13). Rows are
     * remapped independently (disjoint writes), so @p threads workers
     * produce a bit-identical matrix for every thread count. Values
     * are carried when present; a structure-only matrix stays one.
     */
    CsrMatrix permutedSymmetric(const std::vector<NodeId> &new_to_old,
                                uint32_t threads = 1) const;

    /**
     * DRAM footprint of the compressed stream: values + column indices
     * (+ one row pointer per row). The modelled stream always carries
     * values, so a structure-only matrix has the same footprint as its
     * valued twin.
     */
    Bytes streamBytes() const;

    /**
     * Whether the structure arrays are internally consistent and the
     * value array holds exactly nnz() entries or none.
     */
    bool validate() const;

  private:
    uint32_t rows_ = 0;
    uint32_t cols_ = 0;
    std::vector<uint64_t> rowPtr_;  ///< size rows_+1
    std::vector<NodeId> colIdx_;    ///< size nnz, ascending within a row
    std::vector<double> values_;    ///< size nnz, or 0 if structure-only
};

} // namespace grow::sparse
