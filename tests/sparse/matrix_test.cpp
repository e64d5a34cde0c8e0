#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "sparse/convert.hpp"
#include "sparse/coo_matrix.hpp"
#include "sparse/csr_matrix.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace grow::sparse {
namespace {

CooMatrix
smallCoo()
{
    CooMatrix coo(3, 4);
    coo.add(0, 1, 1.0);
    coo.add(0, 3, 2.0);
    coo.add(2, 0, 3.0);
    coo.add(2, 2, 4.0);
    coo.canonicalize();
    return coo;
}

TEST(CooMatrix, CanonicalizeSortsAndMerges)
{
    CooMatrix coo(2, 2);
    coo.add(1, 1, 1.0);
    coo.add(0, 0, 2.0);
    coo.add(1, 1, 3.0);
    EXPECT_FALSE(coo.canonical());
    coo.canonicalize();
    EXPECT_TRUE(coo.canonical());
    ASSERT_EQ(coo.nnz(), 2u);
    EXPECT_EQ(coo.triples()[0].row, 0u);
    EXPECT_DOUBLE_EQ(coo.triples()[1].value, 4.0);
}

TEST(CooMatrix, OutOfBoundsRejected)
{
    CooMatrix coo(2, 2);
    EXPECT_ANY_THROW(coo.add(2, 0, 1.0));
    EXPECT_ANY_THROW(coo.add(0, 2, 1.0));
}

TEST(CsrMatrix, FromCooStructure)
{
    auto m = CsrMatrix::fromCoo(smallCoo());
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_EQ(m.nnz(), 4u);
    EXPECT_EQ(m.rowNnz(0), 2u);
    EXPECT_EQ(m.rowNnz(1), 0u);
    EXPECT_EQ(m.rowNnz(2), 2u);
    EXPECT_TRUE(m.validate());
    auto cols = m.rowCols(0);
    EXPECT_EQ(cols[0], 1u);
    EXPECT_EQ(cols[1], 3u);
}

TEST(CsrMatrix, Density)
{
    auto m = CsrMatrix::fromCoo(smallCoo());
    EXPECT_DOUBLE_EQ(m.density(), 4.0 / 12.0);
}

TEST(CsrMatrix, TransposedTwiceIsIdentity)
{
    Rng rng(5);
    auto m = randomCsr(17, 23, 0.2, rng);
    auto tt = m.transposed().transposed();
    ASSERT_EQ(tt.rows(), m.rows());
    ASSERT_EQ(tt.nnz(), m.nnz());
    EXPECT_EQ(tt.rowPtr(), m.rowPtr());
    EXPECT_EQ(tt.colIdx(), m.colIdx());
    for (size_t i = 0; i < m.values().size(); ++i)
        EXPECT_DOUBLE_EQ(tt.values()[i], m.values()[i]);
}

TEST(CsrMatrix, StreamBytes)
{
    auto m = CsrMatrix::fromCoo(smallCoo());
    EXPECT_EQ(m.streamBytes(), 4 * 12 + 3 * 8u);
}

TEST(CsrMatrix, PermutedSymmetricPreservesStructure)
{
    // 3-node path graph 0-1-2 with values.
    CooMatrix coo(3, 3);
    coo.add(0, 1, 1.0);
    coo.add(1, 0, 1.0);
    coo.add(1, 2, 2.0);
    coo.add(2, 1, 2.0);
    coo.canonicalize();
    auto m = CsrMatrix::fromCoo(coo);
    // Reverse node order.
    auto p = m.permutedSymmetric({2, 1, 0});
    EXPECT_TRUE(p.validate());
    EXPECT_EQ(p.nnz(), m.nnz());
    // New node 0 = old node 2: connected to old 1 = new 1 with value 2.
    auto cols = p.rowCols(0);
    auto vals = p.rowVals(0);
    ASSERT_EQ(cols.size(), 1u);
    EXPECT_EQ(cols[0], 1u);
    EXPECT_DOUBLE_EQ(vals[0], 2.0);
}

TEST(CsrMatrix, PermutedSymmetricRejectsBadPermutation)
{
    Rng rng(6);
    auto m = randomCsr(4, 4, 0.5, rng);
    EXPECT_ANY_THROW(m.permutedSymmetric({0, 0, 1, 2}));
    EXPECT_ANY_THROW(m.permutedSymmetric({0, 1}));
}

/** rowPtr/colIdx of CsrMatrix::fromCoo(smallCoo()), without values. */
CsrMatrix
structureOnlyCsr()
{
    return CsrMatrix::fromRaw(3, 4, {0, 2, 2, 4}, {1, 3, 0, 2}, {});
}

TEST(CsrMatrix, StructureOnlyKeepsEveryStructureOperation)
{
    auto m = structureOnlyCsr();
    const auto valued = CsrMatrix::fromCoo(smallCoo());
    EXPECT_TRUE(m.validate());
    EXPECT_FALSE(m.hasValues());
    EXPECT_TRUE(valued.hasValues());
    EXPECT_EQ(m.nnz(), valued.nnz());
    EXPECT_EQ(m.rowNnz(2), 2u);
    EXPECT_EQ(m.rowCols(2)[1], 2u);
    // The modelled stream always carries values.
    EXPECT_EQ(m.streamBytes(), valued.streamBytes());
    // A value array holds exactly nnz entries or none.
    EXPECT_ANY_THROW(
        CsrMatrix::fromRaw(3, 4, {0, 2, 2, 4}, {1, 3, 0, 2}, {1.0, 2.0}));
}

TEST(CsrMatrix, ValueReadersRejectStructureOnly)
{
    const auto m = structureOnlyCsr();
    EXPECT_ANY_THROW(m.rowVals(0));
    EXPECT_ANY_THROW(m.rowVals(1)); // an empty row too
    EXPECT_ANY_THROW(m.transposed());
    EXPECT_ANY_THROW(toDense(m));
    // Without non-zeros there is nothing to read: vacuously valued.
    const auto empty = CsrMatrix::fromRaw(4, 4, {0, 0, 0, 0, 0}, {}, {});
    EXPECT_TRUE(empty.hasValues());
    EXPECT_TRUE(empty.rowVals(2).empty());
    EXPECT_EQ(toDense(empty).rows(), 4u);
}

TEST(CsrMatrix, PermutedSymmetricCarriesValuesOnlyWhenPresent)
{
    Rng a(8), b(8);
    const auto valued = randomCsr(40, 40, 0.2, a);
    const auto bare = randomCsr(40, 40, 0.2, b, false);
    std::vector<NodeId> perm(40);
    for (NodeId i = 0; i < 40; ++i)
        perm[i] = (i * 7 + 3) % 40;
    for (uint32_t threads : {1u, 4u}) {
        const auto pv = valued.permutedSymmetric(perm, threads);
        const auto pb = bare.permutedSymmetric(perm, threads);
        EXPECT_TRUE(pb.validate());
        EXPECT_FALSE(pb.hasValues());
        EXPECT_EQ(pv.values().size(), pv.nnz());
        EXPECT_EQ(pb.rowPtr(), pv.rowPtr());
        EXPECT_EQ(pb.colIdx(), pv.colIdx());
    }
}

/**
 * Oracle: the copy loop gcn::permuteRows ran before it returned a row
 * selection, verbatim. Row i of the result is row new_to_old[i] of
 * @p m, materialised into fresh arrays.
 */
CsrMatrix
copiedPermutation(const CsrMatrix &m, const std::vector<NodeId> &new_to_old)
{
    GROW_ASSERT(new_to_old.size() == m.rows(), "permutation size mismatch");
    std::vector<uint64_t> rowPtr(m.rows() + 1, 0);
    for (NodeId i = 0; i < m.rows(); ++i)
        rowPtr[i + 1] = rowPtr[i] + m.rowNnz(new_to_old[i]);
    std::vector<NodeId> colIdx(m.nnz());
    std::vector<double> values(m.hasValues() ? m.nnz() : 0);
    for (NodeId i = 0; i < m.rows(); ++i) {
        auto cols = m.rowCols(new_to_old[i]);
        std::copy(cols.begin(), cols.end(), colIdx.begin() + rowPtr[i]);
        if (!values.empty()) {
            auto vals = m.rowVals(new_to_old[i]);
            std::copy(vals.begin(), vals.end(), values.begin() + rowPtr[i]);
        }
    }
    return CsrMatrix::fromRaw(m.rows(), m.cols(), std::move(rowPtr),
                              std::move(colIdx), std::move(values));
}

/**
 * Oracle: the copy loop scaleout's chip slices ran before they became
 * row selections, verbatim. The rows of @p ranges, concatenated.
 */
CsrMatrix
copiedSlice(const CsrMatrix &m,
            const std::vector<std::pair<uint32_t, uint32_t>> &ranges)
{
    uint32_t rows = 0;
    uint64_t nnz = 0;
    for (const auto &[lo, hi] : ranges) {
        rows += hi - lo;
        nnz += m.rowPtr()[hi] - m.rowPtr()[lo];
    }
    std::vector<uint64_t> rowPtr;
    rowPtr.reserve(rows + 1);
    rowPtr.push_back(0);
    std::vector<NodeId> colIdx;
    colIdx.reserve(nnz);
    // Values ride along only when present: structure-only operands
    // (non-functional feature matrices) slice to structure-only.
    const bool valued = m.hasValues();
    std::vector<double> values;
    if (valued)
        values.reserve(nnz);
    for (const auto &[lo, hi] : ranges) {
        for (uint32_t r = lo; r < hi; ++r) {
            const auto cols = m.rowCols(r);
            colIdx.insert(colIdx.end(), cols.begin(), cols.end());
            if (valued) {
                const auto vals = m.rowVals(r);
                values.insert(values.end(), vals.begin(), vals.end());
            }
            rowPtr.push_back(colIdx.size());
        }
    }
    return CsrMatrix::fromRaw(rows, m.cols(), std::move(rowPtr),
                              std::move(colIdx), std::move(values));
}

/** Every row-wise observable of @p got equals @p want's. */
void
expectSameRows(const CsrMatrix &got, const CsrMatrix &want,
               const std::string &what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    EXPECT_EQ(got.cols(), want.cols()) << what;
    EXPECT_EQ(got.nnz(), want.nnz()) << what;
    EXPECT_EQ(got.rowPtr(), want.rowPtr()) << what;
    ASSERT_EQ(got.hasValues(), want.hasValues()) << what;
    for (NodeId r = 0; r < got.rows(); ++r) {
        ASSERT_EQ(got.rowNnz(r), want.rowNnz(r)) << what << " row " << r;
        const auto gc = got.rowCols(r);
        const auto wc = want.rowCols(r);
        ASSERT_TRUE(std::equal(gc.begin(), gc.end(), wc.begin(), wc.end()))
            << what << " row " << r;
        if (got.hasValues()) {
            const auto gv = got.rowVals(r);
            const auto wv = want.rowVals(r);
            ASSERT_TRUE(
                std::equal(gv.begin(), gv.end(), wv.begin(), wv.end()))
                << what << " row " << r;
        }
    }
    EXPECT_EQ(got.streamBytes(), want.streamBytes()) << what;
    EXPECT_TRUE(got.validate()) << what;
    EXPECT_TRUE(want.validate()) << what;
}

std::vector<NodeId>
shuffledRows(uint32_t n, Rng &rng)
{
    std::vector<NodeId> perm(n);
    std::iota(perm.begin(), perm.end(), NodeId{0});
    rng.shuffle(perm);
    return perm;
}

/** Random ascending, disjoint row ranges of an @p n-row matrix. */
std::vector<std::pair<uint32_t, uint32_t>>
randomRanges(uint32_t n, Rng &rng)
{
    std::vector<std::pair<uint32_t, uint32_t>> ranges;
    uint32_t lo = 0;
    while (lo < n) {
        const auto hi = static_cast<uint32_t>(rng.range(lo + 1, n));
        if (rng.bernoulli(0.5))
            ranges.emplace_back(lo, hi);
        lo = hi;
    }
    return ranges;
}

std::vector<NodeId>
rowsOf(const std::vector<std::pair<uint32_t, uint32_t>> &ranges)
{
    std::vector<NodeId> rows;
    for (const auto &[lo, hi] : ranges)
        for (uint32_t r = lo; r < hi; ++r)
            rows.push_back(r);
    return rows;
}

TEST(RowSelection, MatchesMaterialisedRows)
{
    std::vector<std::pair<std::string, CsrMatrix>> sources;
    for (bool valued : {true, false}) {
        const std::string kind = valued ? "valued" : "structure-only";
        Rng rng(41);
        // Density 0.05 over 6 columns leaves most rows empty.
        sources.emplace_back(kind + " sparse",
                             randomCsr(60, 6, 0.05, rng, valued));
        sources.emplace_back(kind + " dense",
                             randomCsr(50, 30, 0.4, rng, valued));
        sources.emplace_back(
            kind + " 1x1",
            CsrMatrix::fromRaw(1, 1, {0, 1}, {0},
                               valued ? std::vector<double>{2.5}
                                      : std::vector<double>{}));
    }
    sources.emplace_back("empty 1x1", CsrMatrix(1, 1));
    sources.emplace_back("0-row", CsrMatrix(0, 5));

    Rng rng(7);
    for (const auto &[name, m] : sources) {
        for (int trial = 0; trial < 8; ++trial) {
            const auto perm = shuffledRows(m.rows(), rng);
            const CsrMatrix view(m, perm);
            const std::string what = name + " permutation " +
                                     std::to_string(trial);
            expectSameRows(view, copiedPermutation(m, perm), what);

            const auto ranges = randomRanges(m.rows(), rng);
            const CsrMatrix slice(m, rowsOf(ranges));
            expectSameRows(slice, copiedSlice(m, ranges),
                           name + " ranges " + std::to_string(trial));

            // A selection of a selection: a chip slice of a relabelled
            // feature matrix.
            const auto inner = randomRanges(view.rows(), rng);
            expectSameRows(
                CsrMatrix(view, rowsOf(inner)),
                copiedSlice(copiedPermutation(m, perm), inner),
                what + " then ranges");
        }
        // Every row in order is the source itself, contiguous again;
        // no row at all is a plain empty matrix.
        const CsrMatrix whole(m, rowsOf({{0u, m.rows()}}));
        expectSameRows(whole, m, name + " identity");
        EXPECT_TRUE(whole.contiguous()) << name;
        const CsrMatrix none(m, std::span<const NodeId>{});
        expectSameRows(none, copiedSlice(m, {}), name + " no rows");
        EXPECT_TRUE(none.contiguous()) << name;
    }
}

TEST(RowSelection, RawArraysOnlyOnContiguousMatrices)
{
    Rng rng(5);
    const auto m = randomCsr(30, 20, 0.3, rng);
    std::vector<NodeId> reversed(30);
    for (NodeId i = 0; i < 30; ++i)
        reversed[i] = 29 - i;
    const CsrMatrix view(m, reversed);
    EXPECT_FALSE(view.contiguous());
    EXPECT_ANY_THROW(view.colIdx());
    EXPECT_ANY_THROW(view.values());
    // A subset holds fewer non-zeros than the storage it shares.
    const std::vector<NodeId> firstRows{0, 1, 2};
    const CsrMatrix subset(m, firstRows);
    EXPECT_EQ(subset.nnz(), m.rowPtr()[3]);
    EXPECT_LT(subset.nnz(), m.nnz());
    EXPECT_ANY_THROW(subset.colIdx());
}

TEST(RowSelection, RejectsBadSelections)
{
    // Row 0 holds 2 non-zeros: a duplicated row would claim 4 of the
    // 2 stored.
    const auto m = CsrMatrix::fromRaw(2, 2, {0, 2, 2}, {0, 1}, {1.0, 2.0});
    const std::vector<NodeId> duplicate{0, 0};
    EXPECT_ANY_THROW(CsrMatrix(m, duplicate));
    const std::vector<NodeId> outOfRange{0, 2};
    EXPECT_ANY_THROW(CsrMatrix(m, outOfRange));
    const std::vector<NodeId> past{kInvalidNode};
    EXPECT_ANY_THROW(CsrMatrix(m, past));
    const std::vector<NodeId> swapped{1, 0};
    EXPECT_TRUE(CsrMatrix(m, swapped).validate());
}

TEST(DenseMatrix, FillAndDensity)
{
    DenseMatrix d(4, 5);
    EXPECT_DOUBLE_EQ(d.density(), 0.0);
    d.fill(2.0);
    EXPECT_DOUBLE_EQ(d.density(), 1.0);
    d.at(0, 0) = 0.0;
    EXPECT_EQ(d.nonZeroCount(), 19u);
}

TEST(DenseMatrix, MaxAbsDiff)
{
    DenseMatrix a(2, 2), b(2, 2);
    a.at(1, 1) = 3.0;
    b.at(1, 1) = 3.5;
    EXPECT_DOUBLE_EQ(DenseMatrix::maxAbsDiff(a, b), 0.5);
}

TEST(DenseMatrix, SizeBytes)
{
    DenseMatrix d(10, 3);
    EXPECT_EQ(d.sizeBytes(), 10u * 3 * 8);
}

/** Densify sweep: every dense entry matches its CSR row. */
class DensifySweep
    : public ::testing::TestWithParam<std::tuple<int, int, double>>
{
};

TEST_P(DensifySweep, DenseEntriesMatchCsrRows)
{
    auto [rows, cols, density] = GetParam();
    Rng rng(rows * 1000 + cols);
    auto csr = randomCsr(rows, cols, density, rng);
    EXPECT_TRUE(csr.validate());

    const auto dense = toDense(csr);
    ASSERT_EQ(dense.rows(), csr.rows());
    ASSERT_EQ(dense.cols(), csr.cols());
    for (uint32_t r = 0; r < csr.rows(); ++r) {
        std::vector<double> expect(csr.cols(), 0.0);
        auto rc = csr.rowCols(r);
        auto rv = csr.rowVals(r);
        for (size_t i = 0; i < rc.size(); ++i)
            expect[rc[i]] = rv[i];
        for (uint32_t c = 0; c < csr.cols(); ++c)
            EXPECT_EQ(dense.at(r, c), expect[c]) << r << "," << c;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DensifySweep,
    ::testing::Values(std::tuple{1, 1, 1.0}, std::tuple{5, 5, 0.0},
                      std::tuple{16, 16, 0.1}, std::tuple{64, 8, 0.5},
                      std::tuple{8, 64, 0.9}, std::tuple{100, 100, 0.01},
                      std::tuple{37, 53, 0.25}));

/** randomCsr should hit its target density (law of large numbers). */
class DensitySweep : public ::testing::TestWithParam<double>
{
};

TEST_P(DensitySweep, EmpiricalDensityNearTarget)
{
    double target = GetParam();
    Rng rng(99);
    auto m = randomCsr(300, 300, target, rng);
    EXPECT_NEAR(m.density(), target, 0.02 + target * 0.05);
    EXPECT_TRUE(m.validate());
}

INSTANTIATE_TEST_SUITE_P(Densities, DensitySweep,
                         ::testing::Values(0.0, 0.01, 0.1, 0.39, 0.78,
                                           0.99, 1.0));

} // namespace
} // namespace grow::sparse
