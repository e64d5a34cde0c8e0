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

CsrMatrix::CsrMatrix(const CsrMatrix &source, std::span<const NodeId> rows)
    : rows_(static_cast<uint32_t>(rows.size())), cols_(source.cols_),
      rowPtr_(rows.size() + 1, 0), rowStart_(rows.size())
{
    std::vector<bool> taken(source.rows_, false);
    for (size_t i = 0; i < rows.size(); ++i) {
        const NodeId r = rows[i];
        GROW_ASSERT(r < source.rows_ && !taken[r],
                    "a row selection needs distinct rows of its source");
        taken[r] = true;
        rowStart_[i] = source.rowBegin(r);
        rowPtr_[i + 1] = rowPtr_[i] + source.rowNnz(r);
    }
    if (nnz() == 0) {
        rowStart_ = std::vector<uint64_t>(); // nothing to share
        return;
    }
    storage_ = source.storage_;
    colData_ = source.colData_;
    valData_ = source.valData_;
    // Every row of the storage, in storage order: contiguous again.
    if (nnz() == storage_->colIdx.size() &&
        std::equal(rowStart_.begin(), rowStart_.end(), rowPtr_.begin()))
        rowStart_ = std::vector<uint64_t>();
}

void
CsrMatrix::setStorage(std::vector<NodeId> col_idx, std::vector<double> values)
{
    if (col_idx.empty())
        return;
    auto s = std::make_shared<Storage>();
    s->colIdx = std::move(col_idx);
    s->values = std::move(values);
    colData_ = s->colIdx.data();
    valData_ = s->values.empty() ? nullptr : s->values.data();
    storage_ = std::move(s);
}

const CsrMatrix::Storage &
CsrMatrix::storage() const
{
    static const Storage kEmpty;
    return storage_ ? *storage_ : kEmpty;
}

CsrMatrix
CsrMatrix::fromCoo(const CooMatrix &coo)
{
    GROW_ASSERT(coo.canonical(), "COO must be canonicalized before CSR");
    CsrMatrix m(coo.rows(), coo.cols());
    std::vector<NodeId> colIdx;
    std::vector<double> values;
    colIdx.reserve(coo.nnz());
    values.reserve(coo.nnz());
    for (const auto &t : coo.triples()) {
        m.rowPtr_[t.row + 1] += 1;
        colIdx.push_back(t.col);
        values.push_back(t.value);
    }
    for (uint32_t r = 0; r < m.rows_; ++r)
        m.rowPtr_[r + 1] += m.rowPtr_[r];
    m.setStorage(std::move(colIdx), std::move(values));
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
    // An empty column array stores nothing; its value array must be
    // empty too, or the arrays disagree.
    GROW_ASSERT(!col_idx.empty() || values.empty(),
                "invalid raw CSR arrays");
    m.setStorage(std::move(col_idx), std::move(values));
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
    return {colData_ + rowBegin(r), static_cast<size_t>(rowNnz(r))};
}

std::span<const double>
CsrMatrix::rowVals(NodeId r) const
{
    GROW_ASSERT(r < rows_, "row index out of range");
    GROW_ASSERT(hasValues(), "values of a structure-only CSR matrix");
    if (valData_ == nullptr)
        return {}; // no non-zero anywhere
    return {valData_ + rowBegin(r), static_cast<size_t>(rowNnz(r))};
}

const std::vector<NodeId> &
CsrMatrix::colIdx() const
{
    GROW_ASSERT(contiguous(),
                "colIdx() of a row selection: walk rowCols() instead");
    return storage().colIdx;
}

const std::vector<double> &
CsrMatrix::values() const
{
    GROW_ASSERT(contiguous(),
                "values() of a row selection: walk rowVals() instead");
    return storage().values;
}

CsrMatrix
CsrMatrix::transposed() const
{
    GROW_ASSERT(hasValues(), "transpose of a structure-only CSR matrix");
    CsrMatrix t(cols_, rows_);
    std::vector<NodeId> colIdx(nnz());
    std::vector<double> values(nnz());
    // Count column occupancy.
    for (uint32_t r = 0; r < rows_; ++r)
        for (NodeId c : rowCols(r))
            t.rowPtr_[c + 1] += 1;
    for (uint32_t r = 0; r < t.rows_; ++r)
        t.rowPtr_[r + 1] += t.rowPtr_[r];
    // Scatter.
    std::vector<uint64_t> cursor(t.rowPtr_.begin(), t.rowPtr_.end() - 1);
    for (uint32_t r = 0; r < rows_; ++r) {
        const auto cols = rowCols(r);
        const auto vals = rowVals(r);
        for (size_t i = 0; i < cols.size(); ++i) {
            uint64_t pos = cursor[cols[i]]++;
            colIdx[pos] = r;
            values[pos] = vals[i];
        }
    }
    t.setStorage(std::move(colIdx), std::move(values));
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
    std::vector<NodeId> colIdx(nnz());
    std::vector<double> values(valued ? nnz() : 0);
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
                auto dst = colIdx.begin() + out;
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
                colIdx[out] = c;
                values[out] = v;
                ++out;
            }
        }
    });
    p.setStorage(std::move(colIdx), std::move(values));
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
    const Storage &s = storage();
    const uint64_t stored = s.colIdx.size();
    if (rowPtr_.size() != static_cast<size_t>(rows_) + 1 ||
        rowPtr_.front() != 0)
        return false;
    if (!s.values.empty() && s.values.size() != stored)
        return false;
    if (contiguous() ? rowPtr_.back() != stored : rowStart_.size() != rows_)
        return false;
    for (uint32_t r = 0; r < rows_; ++r) {
        if (rowPtr_[r] > rowPtr_[r + 1])
            return false;
        const uint64_t begin = rowBegin(r);
        const uint64_t end = begin + rowNnz(r);
        if (begin > stored || end > stored || end < begin)
            return false;
        for (uint64_t i = begin; i < end; ++i) {
            if (s.colIdx[i] >= cols_)
                return false;
            if (i > begin && s.colIdx[i] <= s.colIdx[i - 1])
                return false;
        }
    }
    return true;
}

} // namespace grow::sparse
