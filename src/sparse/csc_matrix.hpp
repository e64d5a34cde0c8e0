/**
 * @file
 * Compressed-sparse-column matrix.
 *
 * CSC is GCNAX's operand format (Table II, Fig. 4(b)): the outer-product
 * dataflow consumes the sparse tile column by column. The GROW paper's
 * bandwidth-waste analysis (Fig. 6) hinges on how a 2-D tile maps onto
 * per-column CSC segments; see sparse/tiling.hpp.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace grow::sparse {

class CooMatrix;
class CsrMatrix;

class CscMatrix
{
  public:
    CscMatrix() = default;
    CscMatrix(uint32_t rows, uint32_t cols);

    /** Build from a canonical COO matrix. */
    static CscMatrix fromCoo(const CooMatrix &coo);

    /** Build from a CSR matrix (transpose of structure arrays);
     *  @p csr must carry values (CsrMatrix::hasValues()). */
    static CscMatrix fromCsr(const CsrMatrix &csr);

    uint32_t rows() const { return rows_; }
    uint32_t cols() const { return cols_; }
    uint64_t nnz() const { return rowIdx_.size(); }
    double density() const;

    uint64_t colNnz(NodeId c) const { return colPtr_[c + 1] - colPtr_[c]; }

    /** Row indices of column @p c (ascending). */
    std::span<const NodeId> colRows(NodeId c) const;

    /** Values of column @p c. */
    std::span<const double> colVals(NodeId c) const;

    const std::vector<uint64_t> &colPtr() const { return colPtr_; }
    const std::vector<NodeId> &rowIdx() const { return rowIdx_; }
    const std::vector<double> &values() const { return values_; }

    /** DRAM footprint of the compressed stream. */
    Bytes streamBytes() const;

    bool validate() const;

  private:
    uint32_t rows_ = 0;
    uint32_t cols_ = 0;
    std::vector<uint64_t> colPtr_;
    std::vector<NodeId> rowIdx_;
    std::vector<double> values_;
};

} // namespace grow::sparse
