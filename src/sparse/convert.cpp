#include "sparse/convert.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/bitutil.hpp"
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

namespace {

/** The table covers gaps up to K, where (1 - p)^(K + 1) <= 2^-10. */
constexpr double kTableTail = 10 * std::numbers::ln2;

/** A table pays when its length is at most this share of the expected
 *  non-zeros: a threshold costs two or three formula calls, a tabled
 *  draw a fraction of one. */
constexpr double kTableCost = 8.0;

/** Beyond this many thresholds the formula alone is used. */
constexpr double kMaxThresholds = 1 << 20;

} // namespace

GeometricSkip::GeometricSkip(double density, double expected_nnz)
    : log1mp_(std::log1p(-density))
{
    GROW_ASSERT(density > 0.0 && density < 1.0,
                "geometric skips need a density in (0, 1)");
    const double length = std::ceil(kTableTail / -log1mp_);
    if (!(length <= kMaxThresholds && length * kTableCost <= expected_nnz))
        return;

    // T[k] = least m with formula(m) <= k. T is non-increasing in k,
    // so T[k - 1] bounds T[k] from above; formula(2^53) = 0 bounds
    // T[0]. The estimate lands within one unit of m of T[k] at every
    // density the tests try; a bracket grown from it and bisected with
    // the formula makes each threshold exact whatever the rounding of
    // log, the division and exp.
    uint64_t hi = kMaxDraw;
    for (uint64_t k = 0; k < length && hi > 1; ++k) {
        const double estimate =
            std::ldexp(std::exp(static_cast<double>(k + 1) * log1mp_), 53);
        uint64_t m = std::clamp<uint64_t>(std::llround(estimate), 1, hi);
        uint64_t lo = 0; // formula(0) is +inf: above every k
        if (formula(m) <= k) {
            hi = m;
            for (uint64_t step = 1; step < hi; step *= 2) {
                if (formula(hi - step) > k) {
                    lo = hi - step;
                    break;
                }
                hi -= step;
            }
        } else {
            lo = m;
            for (uint64_t step = 1; lo + step < hi; step *= 2) {
                if (formula(lo + step) <= k) {
                    hi = lo + step;
                    break;
                }
                lo += step;
            }
        }
        while (hi - lo > 1) {
            const uint64_t mid = lo + (hi - lo) / 2;
            if (formula(mid) <= k)
                hi = mid;
            else
                lo = mid;
        }
        thresholds_.push_back(hi);
    }
    count_ = static_cast<uint32_t>(thresholds_.size());
    thresholds_.push_back(0);

    // Thresholds are about -log2(1 - p) octaves apart, so buckets of
    // half that width (in the leading-bits scale, which is within 2x
    // of log2 m) hold at most one threshold each.
    const unsigned lowOctave = std::bit_width(thresholds_[count_ - 1]) - 1;
    const double perOctave = 2.0 * std::numbers::ln2 / -log1mp_;
    unsigned bits = 0;
    if (perOctave > 1.0)
        bits = std::min(
            {static_cast<unsigned>(std::ceil(std::log2(perOctave))), 20u,
             lowOctave});
    keyShift_ = 52 - bits;
    keyBase_ = ((int64_t{1023} + lowOctave) << bits) - 1;
    const uint64_t buckets = static_cast<uint64_t>(54 - lowOctave) << bits;
    start_.resize(buckets + 1);
    start_[0] = count_;
    // A bucket's start is the gap of its largest m, walked from the
    // top bucket down so that k only grows.
    uint32_t k = 0;
    for (uint64_t b = buckets; b > 0; --b) {
        const unsigned octave =
            lowOctave + static_cast<unsigned>((b - 1) >> bits);
        const uint64_t j = (b - 1) & ((uint64_t{1} << bits) - 1);
        const uint64_t top = std::min(
            (((uint64_t{1} << bits) + j + 1) << (octave - bits)) - 1,
            kMaxDraw);
        while (k < count_ && thresholds_[k] > top)
            ++k;
        start_[b] = k;
    }
}

uint64_t
GeometricSkip::formula(uint64_t m) const
{
    const double gap = std::floor(
        std::log(static_cast<double>(m) * 0x1.0p-53) / log1mp_);
    return gap < 0x1.0p64 ? static_cast<uint64_t>(gap) : UINT64_MAX;
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
    const double expected = density * rows * cols;
    colIdx.reserve(static_cast<size_t>(expected * 1.05) + 16);
    if (with_values)
        values.reserve(colIdx.capacity());
    // Draw order per non-zero: (gap,) value. The value is drawn even
    // when it is not kept, so the stream does not depend on with_values.
    // Draws go through a local copy of the generator, which the
    // compiler can keep in registers; it is written back at the end.
    Rng gen = rng;
    auto emit = [&](uint32_t c) {
        if (with_values)
            values.push_back(gen.uniform(-1.0, 1.0));
        else
            gen.next();
        colIdx.push_back(c);
    };
    uint32_t r = 0;
    if (density >= 1.0) {
        for (; r < rows; ++r) {
            for (uint32_t c = 0; c < cols; ++c)
                emit(c);
            rowPtr[r + 1] = colIdx.size();
        }
    } else if (density > 0.0) {
        // Geometric skipping: expected cost O(nnz) not O(rows*cols).
        // (r, c) walks the positions in CSR order; `left` counts those
        // from (r, c) on, so a gap that reaches past the end stops the
        // walk before any position can wrap.
        const GeometricSkip gapOf(density, expected);
        uint64_t left = static_cast<uint64_t>(rows) * cols;
        uint64_t c = 0;
        while (true) {
            const uint64_t gap =
                gapOf(GeometricSkip::kMaxDraw - (gen.next() >> 11));
            if (gap >= left)
                break;
            left -= gap + 1;
            c += gap;
            while (c >= cols) {
                c -= cols;
                rowPtr[++r] = colIdx.size();
            }
            emit(static_cast<uint32_t>(c));
            ++c;
            if (left == 0)
                break;
        }
    }
    for (size_t i = static_cast<size_t>(r) + 1; i <= rows; ++i)
        rowPtr[i] = colIdx.size();
    rng = gen;
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
