#include "sparse/reference_gemm.hpp"

#include "util/logging.hpp"

namespace grow::sparse {

DenseMatrix
referenceSpMM(const CsrMatrix &s, const DenseMatrix &d)
{
    GROW_ASSERT(s.cols() == d.rows(), "SpMM shape mismatch");
    DenseMatrix c(s.rows(), d.cols());
    const uint32_t n = d.cols();
    for (uint32_t r = 0; r < s.rows(); ++r) {
        auto cols = s.rowCols(r);
        auto vals = s.rowVals(r);
        double *out = c.row(r);
        for (size_t i = 0; i < cols.size(); ++i) {
            const double v = vals[i];
            const double *rhs = d.row(cols[i]);
            for (uint32_t j = 0; j < n; ++j)
                out[j] += v * rhs[j];
        }
    }
    return c;
}

DenseMatrix
referenceGemm(const DenseMatrix &a, const DenseMatrix &b)
{
    GROW_ASSERT(a.cols() == b.rows(), "GEMM shape mismatch");
    DenseMatrix c(a.rows(), b.cols());
    for (uint32_t i = 0; i < a.rows(); ++i) {
        double *out = c.row(i);
        for (uint32_t k = 0; k < a.cols(); ++k) {
            const double v = a.at(i, k);
            if (v == 0.0)
                continue;
            const double *rhs = b.row(k);
            for (uint32_t j = 0; j < b.cols(); ++j)
                out[j] += v * rhs[j];
        }
    }
    return c;
}

MacCounts
countMacsBothOrders(const CsrMatrix &a, const CsrMatrix &x, uint32_t w_cols)
{
    GROW_ASSERT(a.cols() == x.rows(), "A*X shape mismatch");
    MacCounts out;

    // Order 1: (A*X) costs sum over nnz(A_ik) of nnz(X row k); the
    // result AX is dense (n x f), so (AX)*W costs n * f * w_cols.
    uint64_t ax = 0;
    for (uint32_t r = 0; r < a.rows(); ++r)
        for (NodeId k : a.rowCols(r))
            ax += x.rowNnz(k);
    out.axThenW = ax + static_cast<uint64_t>(a.rows()) * x.cols() * w_cols;

    // Order 2: (X*W) costs nnz(X) * w_cols; A*(XW) costs nnz(A) * w_cols
    // because XW is dense with w_cols columns.
    out.xwThenA = x.nnz() * w_cols + a.nnz() * w_cols;
    return out;
}

} // namespace grow::sparse
