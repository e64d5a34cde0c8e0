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
 *
 * Shared storage and row selections. The column and value arrays live
 * in immutable storage that a matrix shares with its copies and with
 * every row selection made from it; copying a matrix copies only its
 * row pointers. A row selection (the (source, rows) constructor) is a
 * matrix whose row i is row rows[i] of the source: it holds its own
 * rowPtr prefix sums and one start offset per row into the shared
 * arrays, and copies no non-zero. That is how GROW's relabelled
 * feature layout (gcn::permuteRows) and a chip's row slice are made,
 * and the storage outlives the source the selection was made from.
 *
 * Every accessor works row by row on either kind (rowNnz, rowCols,
 * rowVals, rowPtr, nnz). Only a *contiguous* matrix -- one whose rows
 * are its storage's rows in storage order -- exposes the raw colIdx()
 * and values() arrays; they panic on a row selection, so no reader can
 * mistake storage order for row order.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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

    /**
     * Row selection: row i of the result is row @p rows[i] of
     * @p source, columns unchanged. Nothing is copied: the result
     * shares @p source's column and value arrays (and keeps them alive
     * after @p source is gone). The selected rows must be distinct and
     * in range. Selecting every row in order, or no non-zero at all,
     * yields a contiguous matrix.
     */
    CsrMatrix(const CsrMatrix &source, std::span<const NodeId> rows);

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
    uint64_t nnz() const { return rowPtr_.empty() ? 0 : rowPtr_.back(); }

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
    bool hasValues() const { return valData_ != nullptr || nnz() == 0; }

    /** Values of row @p r (requires hasValues()). */
    std::span<const double> rowVals(NodeId r) const;

    /**
     * Whether the rows are the shared arrays' rows in storage order:
     * false exactly for a row selection that reorders or skips rows.
     */
    bool contiguous() const { return rowStart_.empty(); }

    /** Row pointers of this matrix's rows (its own prefix sums). */
    const std::vector<uint64_t> &rowPtr() const { return rowPtr_; }
    /** Column array in row order (contiguous() only; panics on a row
     *  selection -- walk rowCols() instead). */
    const std::vector<NodeId> &colIdx() const;
    /** Value array: nnz() entries, or empty when structure-only
     *  (contiguous() only, like colIdx()). */
    const std::vector<double> &values() const;

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
     * Whether the structure is internally consistent: the row pointers
     * are prefix sums, every row's extent lies inside the shared
     * arrays and holds ascending columns below cols(), and the value
     * array holds exactly as many entries as the column array or none.
     */
    bool validate() const;

  private:
    /** Immutable column and value arrays, shared by a matrix, its
     *  copies and its row selections. */
    struct Storage
    {
        std::vector<NodeId> colIdx;
        std::vector<double> values; ///< colIdx.size() entries, or none
    };

    /** Adopt @p col_idx and @p values as this matrix's storage. */
    void setStorage(std::vector<NodeId> col_idx, std::vector<double> values);
    const Storage &storage() const;
    /** Offset of row @p r's first non-zero in the shared arrays. */
    uint64_t rowBegin(NodeId r) const
    {
        return rowStart_.empty() ? rowPtr_[r] : rowStart_[r];
    }

    uint32_t rows_ = 0;
    uint32_t cols_ = 0;
    std::vector<uint64_t> rowPtr_;   ///< size rows_+1
    std::vector<uint64_t> rowStart_; ///< size rows_ on a row selection, else empty
    std::shared_ptr<const Storage> storage_; ///< null when it holds nothing
    // Cached data pointers of storage_ (stable: the storage is
    // immutable and shared by every copy), so rowCols/rowVals cost one
    // load and an add per row.
    const NodeId *colData_ = nullptr;
    const double *valData_ = nullptr; ///< null when structure-only
};

} // namespace grow::sparse
