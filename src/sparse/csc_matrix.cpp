#include "sparse/csc_matrix.hpp"

#include "sparse/coo_matrix.hpp"
#include "sparse/csr_matrix.hpp"
#include "util/logging.hpp"

namespace grow::sparse {

CscMatrix::CscMatrix(uint32_t rows, uint32_t cols)
    : rows_(rows), cols_(cols), colPtr_(cols + 1, 0)
{
}

CscMatrix
CscMatrix::fromCoo(const CooMatrix &coo)
{
    GROW_ASSERT(coo.canonical(), "COO must be canonicalized before CSC");
    CscMatrix m(coo.rows(), coo.cols());
    m.rowIdx_.resize(coo.nnz());
    m.values_.resize(coo.nnz());
    for (const auto &t : coo.triples())
        m.colPtr_[t.col + 1] += 1;
    for (uint32_t c = 0; c < m.cols_; ++c)
        m.colPtr_[c + 1] += m.colPtr_[c];
    std::vector<uint64_t> cursor(m.colPtr_.begin(), m.colPtr_.end() - 1);
    // COO is sorted by (row, col) so per-column rows come out ascending.
    for (const auto &t : coo.triples()) {
        uint64_t pos = cursor[t.col]++;
        m.rowIdx_[pos] = t.row;
        m.values_[pos] = t.value;
    }
    return m;
}

CscMatrix
CscMatrix::fromCsr(const CsrMatrix &csr)
{
    GROW_ASSERT(csr.hasValues(), "CSC of a structure-only CSR matrix");
    CscMatrix m(csr.rows(), csr.cols());
    m.rowIdx_.resize(csr.nnz());
    m.values_.resize(csr.nnz());
    for (NodeId c : csr.colIdx())
        m.colPtr_[c + 1] += 1;
    for (uint32_t c = 0; c < m.cols_; ++c)
        m.colPtr_[c + 1] += m.colPtr_[c];
    std::vector<uint64_t> cursor(m.colPtr_.begin(), m.colPtr_.end() - 1);
    for (uint32_t r = 0; r < csr.rows(); ++r) {
        auto cols = csr.rowCols(r);
        auto vals = csr.rowVals(r);
        for (size_t i = 0; i < cols.size(); ++i) {
            uint64_t pos = cursor[cols[i]]++;
            m.rowIdx_[pos] = r;
            m.values_[pos] = vals[i];
        }
    }
    return m;
}

double
CscMatrix::density() const
{
    if (rows_ == 0 || cols_ == 0)
        return 0.0;
    return static_cast<double>(nnz()) /
           (static_cast<double>(rows_) * static_cast<double>(cols_));
}

std::span<const NodeId>
CscMatrix::colRows(NodeId c) const
{
    GROW_ASSERT(c < cols_, "column index out of range");
    return {rowIdx_.data() + colPtr_[c],
            static_cast<size_t>(colPtr_[c + 1] - colPtr_[c])};
}

std::span<const double>
CscMatrix::colVals(NodeId c) const
{
    GROW_ASSERT(c < cols_, "column index out of range");
    return {values_.data() + colPtr_[c],
            static_cast<size_t>(colPtr_[c + 1] - colPtr_[c])};
}

Bytes
CscMatrix::streamBytes() const
{
    return nnz() * (kValueBytes + kIndexBytes) +
           static_cast<Bytes>(cols_) * kPtrBytes;
}

bool
CscMatrix::validate() const
{
    if (colPtr_.size() != static_cast<size_t>(cols_) + 1)
        return false;
    if (colPtr_.front() != 0 || colPtr_.back() != rowIdx_.size())
        return false;
    if (rowIdx_.size() != values_.size())
        return false;
    for (uint32_t c = 0; c < cols_; ++c) {
        if (colPtr_[c] > colPtr_[c + 1])
            return false;
        for (uint64_t i = colPtr_[c]; i < colPtr_[c + 1]; ++i) {
            if (rowIdx_[i] >= rows_)
                return false;
            if (i > colPtr_[c] && rowIdx_[i] <= rowIdx_[i - 1])
                return false;
        }
    }
    return true;
}

} // namespace grow::sparse
