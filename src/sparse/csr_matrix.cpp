#include "sparse/csr_matrix.hpp"

#include <algorithm>
#include <numeric>

#include "sparse/coo_matrix.hpp"
#include "util/logging.hpp"
#include "util/work_pool.hpp"

namespace grow::sparse {

CsrMatrix::CsrMatrix(uint32_t rows, uint32_t cols)
    : rows_(rows), cols_(cols), rowPtr_(rows + 1, 0)
{
}

CsrMatrix
CsrMatrix::fromCoo(const CooMatrix &coo)
{
    GROW_ASSERT(coo.canonical(), "COO must be canonicalized before CSR");
    CsrMatrix m(coo.rows(), coo.cols());
    m.colIdx_.reserve(coo.nnz());
    m.values_.reserve(coo.nnz());
    for (const auto &t : coo.triples()) {
        m.rowPtr_[t.row + 1] += 1;
        m.colIdx_.push_back(t.col);
        m.values_.push_back(t.value);
    }
    for (uint32_t r = 0; r < m.rows_; ++r)
        m.rowPtr_[r + 1] += m.rowPtr_[r];
    return m;
}

CsrMatrix
CsrMatrix::fromRaw(uint32_t rows, uint32_t cols,
                   std::vector<uint64_t> row_ptr,
                   std::vector<NodeId> col_idx, std::vector<double> values)
{
    CsrMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.rowPtr_ = std::move(row_ptr);
    m.colIdx_ = std::move(col_idx);
    m.values_ = std::move(values);
    GROW_ASSERT(m.validate(), "invalid raw CSR arrays");
    return m;
}

double
CsrMatrix::density() const
{
    if (rows_ == 0 || cols_ == 0)
        return 0.0;
    return static_cast<double>(nnz()) /
           (static_cast<double>(rows_) * static_cast<double>(cols_));
}

std::span<const NodeId>
CsrMatrix::rowCols(NodeId r) const
{
    GROW_ASSERT(r < rows_, "row index out of range");
    return {colIdx_.data() + rowPtr_[r],
            static_cast<size_t>(rowPtr_[r + 1] - rowPtr_[r])};
}

std::span<const double>
CsrMatrix::rowVals(NodeId r) const
{
    GROW_ASSERT(r < rows_, "row index out of range");
    GROW_ASSERT(hasValues(), "values of a structure-only CSR matrix");
    return {values_.data() + rowPtr_[r],
            static_cast<size_t>(rowPtr_[r + 1] - rowPtr_[r])};
}

CsrMatrix
CsrMatrix::transposed() const
{
    GROW_ASSERT(hasValues(), "transpose of a structure-only CSR matrix");
    CsrMatrix t(cols_, rows_);
    t.colIdx_.resize(nnz());
    t.values_.resize(nnz());
    // Count column occupancy.
    for (NodeId c : colIdx_)
        t.rowPtr_[c + 1] += 1;
    for (uint32_t r = 0; r < t.rows_; ++r)
        t.rowPtr_[r + 1] += t.rowPtr_[r];
    // Scatter.
    std::vector<uint64_t> cursor(t.rowPtr_.begin(), t.rowPtr_.end() - 1);
    for (uint32_t r = 0; r < rows_; ++r) {
        for (uint64_t i = rowPtr_[r]; i < rowPtr_[r + 1]; ++i) {
            uint64_t pos = cursor[colIdx_[i]]++;
            t.colIdx_[pos] = r;
            t.values_[pos] = values_[i];
        }
    }
    return t;
}

CsrMatrix
CsrMatrix::permutedSymmetric(const std::vector<NodeId> &new_to_old,
                             uint32_t threads) const
{
    GROW_ASSERT(rows_ == cols_, "symmetric permutation needs square matrix");
    GROW_ASSERT(new_to_old.size() == rows_, "permutation size mismatch");

    // Invert: old id -> new id.
    std::vector<NodeId> old_to_new(rows_, kInvalidNode);
    for (NodeId n = 0; n < rows_; ++n) {
        NodeId o = new_to_old[n];
        GROW_ASSERT(o < rows_ && old_to_new[o] == kInvalidNode,
                    "new_to_old is not a permutation");
        old_to_new[o] = n;
    }

    const bool valued = hasValues();
    CsrMatrix p(rows_, cols_);
    p.colIdx_.resize(nnz());
    if (valued)
        p.values_.resize(nnz());
    for (NodeId n = 0; n < rows_; ++n)
        p.rowPtr_[n + 1] = p.rowPtr_[n] + rowNnz(new_to_old[n]);

    // Each output row remaps and re-sorts its own slice, bracketed by
    // rowPtr: disjoint writes, bit-identical for any thread count.
    util::parallelFor(rows_, threads,
                      [&](uint64_t begin, uint64_t end, uint32_t) {
        std::vector<std::pair<NodeId, double>> entries;
        for (NodeId n = static_cast<NodeId>(begin); n < end; ++n) {
            NodeId o = new_to_old[n];
            uint64_t out = p.rowPtr_[n];
            auto cols = rowCols(o);
            // Remap columns then sort the row back into ascending order.
            if (!valued) {
                auto dst = p.colIdx_.begin() + out;
                for (size_t i = 0; i < cols.size(); ++i)
                    dst[i] = old_to_new[cols[i]];
                std::sort(dst, dst + cols.size());
                continue;
            }
            auto vals = rowVals(o);
            entries.resize(cols.size());
            for (size_t i = 0; i < cols.size(); ++i)
                entries[i] = {old_to_new[cols[i]], vals[i]};
            std::sort(entries.begin(), entries.end());
            for (const auto &[c, v] : entries) {
                p.colIdx_[out] = c;
                p.values_[out] = v;
                ++out;
            }
        }
    });
    return p;
}

Bytes
CsrMatrix::streamBytes() const
{
    return nnz() * (kValueBytes + kIndexBytes) +
           static_cast<Bytes>(rows_) * kPtrBytes;
}

bool
CsrMatrix::validate() const
{
    if (rowPtr_.size() != static_cast<size_t>(rows_) + 1)
        return false;
    if (rowPtr_.front() != 0 || rowPtr_.back() != colIdx_.size())
        return false;
    if (!values_.empty() && values_.size() != colIdx_.size())
        return false;
    for (uint32_t r = 0; r < rows_; ++r) {
        if (rowPtr_[r] > rowPtr_[r + 1])
            return false;
        for (uint64_t i = rowPtr_[r]; i < rowPtr_[r + 1]; ++i) {
            if (colIdx_[i] >= cols_)
                return false;
            if (i > rowPtr_[r] && colIdx_[i] <= colIdx_[i - 1])
                return false;
        }
    }
    return true;
}

} // namespace grow::sparse
