/**
 * @file
 * Differential test of sparse::randomCsr against the loop it replaced:
 * legacyRandomCsr below is that loop verbatim, which evaluated the
 * geometric gap floor(log(u) / log1p(-p)) on every draw. Over shapes
 * 1x1, 1xN, Nx1 and larger ones, densities from 1e-15 to 1 - 2^-53
 * (every Table I x0 and x1 density among them), with and without
 * values, the two must agree on rowPtr, colIdx, the bits of every
 * value and the generator's next raw draw.
 *
 * The gap table is checked against the formula directly: around every
 * threshold (T[k] - 2 ... T[k] + 2) and at random draw values. A
 * failure names the seed, shape and density.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "sparse/convert.hpp"
#include "util/random.hpp"

namespace grow::sparse {
namespace {

/** The loop randomCsr ran before its gap table, kept verbatim. */
CsrMatrix
legacyRandomCsr(uint32_t rows, uint32_t cols, double density, Rng &rng,
                bool with_values = true)
{
    std::vector<uint64_t> rowPtr(static_cast<size_t>(rows) + 1, 0);
    std::vector<NodeId> colIdx;
    std::vector<double> values;
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

// Table I x0: 0.0127, 0.0085, 0.100, 0.464, 1.000, 0.399, 0.990;
// Table I x1: 0.780, 0.891, 0.776, 0.772, 0.639.
const double kDensities[] = {
    1e-15,  1e-9,  1e-6,  1e-4,  0.0085, 0.0127, 0.1,
    0.399,  0.464, 0.5,   0.639, 0.772,  0.776,  0.780,
    0.891,  0.99,  0.999, 1.0 - 0x1.0p-53, 1.0};

std::string
where(uint64_t seed, uint32_t rows, uint32_t cols, double density,
      bool values)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "seed %llu, %ux%u @ %.17g, values %d",
                  static_cast<unsigned long long>(seed), rows, cols,
                  density, values ? 1 : 0);
    return buf;
}

std::vector<uint64_t>
valueBits(const CsrMatrix &m)
{
    std::vector<uint64_t> bits;
    for (double v : m.values())
        bits.push_back(std::bit_cast<uint64_t>(v));
    return bits;
}

TEST(RandomCsrDiff, MatchesTheLegacyLoop)
{
    using Shape = std::pair<uint32_t, uint32_t>;
    const Shape shapes[] = {{1, 1}, {1, 4096}, {4096, 1}, {17, 23},
                            {300, 300}};
    // Wide enough that the lowest Table I densities draw from a table.
    const Shape large = {1536, 1024};
    for (double density : kDensities) {
        std::vector<Shape> grid(std::begin(shapes), std::end(shapes));
        if (density < 0.05)
            grid.push_back(large);
        for (const auto &[rows, cols] : grid) {
            for (uint64_t seed : {1ULL, 0x9e3779b9ULL}) {
                for (bool values : {true, false}) {
                    SCOPED_TRACE(where(seed, rows, cols, density, values));
                    Rng a(seed), b(seed);
                    const CsrMatrix want =
                        legacyRandomCsr(rows, cols, density, a, values);
                    const CsrMatrix got =
                        randomCsr(rows, cols, density, b, values);
                    ASSERT_EQ(got.rowPtr(), want.rowPtr());
                    ASSERT_EQ(got.colIdx(), want.colIdx());
                    ASSERT_EQ(valueBits(got), valueBits(want));
                    ASSERT_EQ(b.next(), a.next());
                }
            }
        }
    }
}

TEST(RandomCsrDiff, GapTableMatchesTheFormula)
{
    Rng rng(7);
    for (double density : kDensities) {
        if (density >= 1.0)
            continue;
        char what[64];
        std::snprintf(what, sizeof(what), "seed 7, density %.17g", density);
        SCOPED_TRACE(what);
        // An expected count this large asks for a table wherever its
        // length allows one.
        const GeometricSkip gap(density, 1e18);
        const auto &t = gap.thresholds();
        if (density >= 1e-4) {
            ASSERT_FALSE(t.empty());
        }
        if (t.empty())
            continue;
        ASSERT_EQ(t.back(), 0u); // the sentinel
        for (size_t k = 0; k + 1 < t.size(); ++k) {
            ASSERT_LE(gap.formula(t[k]), k) << "T[" << k << "]";
            if (t[k] > 1) {
                ASSERT_GT(gap.formula(t[k] - 1), k) << "T[" << k << "]";
            }
            for (uint64_t m = t[k] > 2 ? t[k] - 2 : 1;
                 m <= std::min(t[k] + 2, GeometricSkip::kMaxDraw); ++m)
                ASSERT_EQ(gap(m), gap.formula(m)) << "m " << m;
        }
        // Draw values as randomCsr makes them, and log-uniform ones
        // that reach the range below the table.
        for (int i = 0; i < 1000000; ++i) {
            uint64_t m = GeometricSkip::kMaxDraw - (rng.next() >> 11);
            if (i % 2 != 0)
                m = std::max<uint64_t>(
                    1, m >> std::min<uint64_t>(53, rng.next() % 54));
            ASSERT_EQ(gap(m), gap.formula(m)) << "m " << m;
        }
    }
}

TEST(RandomCsrDiff, VanishingDensityGivesAnEmptyMatrix)
{
    // Below about 2e-18 the gap exceeds the uint64_t range; it must end
    // the walk, not wrap into a position.
    for (double density : {1e-20, 1e-300,
                           std::numeric_limits<double>::denorm_min()}) {
        for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
            SCOPED_TRACE(where(seed, 1000, 1000, density, true));
            Rng rng(seed), ref(seed);
            const CsrMatrix m = randomCsr(1000, 1000, density, rng);
            EXPECT_EQ(m.nnz(), 0u);
            EXPECT_TRUE(m.validate());
            // One draw, the gap that ended the walk.
            ref.next();
            EXPECT_EQ(rng.next(), ref.next());
        }
    }
}

} // namespace
} // namespace grow::sparse
