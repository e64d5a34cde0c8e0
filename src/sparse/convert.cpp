#include "sparse/convert.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace grow::sparse {

DenseMatrix
toDense(const CsrMatrix &m)
{
    GROW_ASSERT(m.hasValues(), "densify a structure-only CSR matrix");
    DenseMatrix d(m.rows(), m.cols());
    for (uint32_t r = 0; r < m.rows(); ++r) {
        auto cols = m.rowCols(r);
        auto vals = m.rowVals(r);
        for (size_t i = 0; i < cols.size(); ++i)
            d.at(r, cols[i]) = vals[i];
    }
    return d;
}

CsrMatrix
randomCsr(uint32_t rows, uint32_t cols, double density, Rng &rng,
          bool with_values)
{
    GROW_ASSERT(density >= 0.0 && density <= 1.0,
                "density must be in [0,1]");
    std::vector<uint64_t> rowPtr(static_cast<size_t>(rows) + 1, 0);
    std::vector<NodeId> colIdx;
    std::vector<double> values;
    const size_t expected =
        static_cast<size_t>(density * rows * cols * 1.05) + 16;
    colIdx.reserve(expected);
    if (with_values)
        values.reserve(expected);
    // Draw order per non-zero: (skip,) value. The value is drawn even
    // when it is not kept, so the stream does not depend on with_values.
    auto emit = [&](uint32_t r, uint32_t c) {
        const double v = rng.uniform(-1.0, 1.0);
        rowPtr[r + 1] += 1;
        colIdx.push_back(c);
        if (with_values)
            values.push_back(v);
    };
    if (density >= 1.0) {
        for (uint32_t r = 0; r < rows; ++r)
            for (uint32_t c = 0; c < cols; ++c)
                emit(r, c);
    } else if (density > 0.0) {
        // Geometric skipping: expected cost O(nnz) not O(rows*cols).
        // Positions strictly increase, so they arrive in CSR order.
        double log1mp = std::log1p(-density);
        uint64_t total = static_cast<uint64_t>(rows) * cols;
        uint64_t pos = 0;
        while (true) {
            double u = 1.0 - rng.uniform();
            uint64_t skip =
                static_cast<uint64_t>(std::floor(std::log(u) / log1mp));
            pos += skip;
            if (pos >= total)
                break;
            emit(static_cast<uint32_t>(pos / cols),
                 static_cast<uint32_t>(pos % cols));
            pos += 1;
            if (pos >= total)
                break;
        }
    }
    for (uint32_t r = 0; r < rows; ++r)
        rowPtr[r + 1] += rowPtr[r];
    return CsrMatrix::fromRaw(rows, cols, std::move(rowPtr),
                              std::move(colIdx), std::move(values));
}

DenseMatrix
randomDense(uint32_t rows, uint32_t cols, Rng &rng)
{
    DenseMatrix d(rows, cols);
    for (uint32_t r = 0; r < rows; ++r)
        for (uint32_t c = 0; c < cols; ++c)
            d.at(r, c) = rng.uniform(-1.0, 1.0);
    return d;
}

} // namespace grow::sparse
