#include <gtest/gtest.h>

#include "sparse/convert.hpp"
#include "sparse/coo_matrix.hpp"
#include "sparse/reference_gemm.hpp"
#include "util/random.hpp"

namespace grow::sparse {
namespace {

TEST(ReferenceSpMM, HandComputedExample)
{
    // S = [[2, 0], [0, 3]], D = [[1, 2], [3, 4]].
    CooMatrix coo(2, 2);
    coo.add(0, 0, 2.0);
    coo.add(1, 1, 3.0);
    coo.canonicalize();
    auto s = CsrMatrix::fromCoo(coo);
    DenseMatrix d(2, 2);
    d.at(0, 0) = 1;
    d.at(0, 1) = 2;
    d.at(1, 0) = 3;
    d.at(1, 1) = 4;
    auto c = referenceSpMM(s, d);
    EXPECT_DOUBLE_EQ(c.at(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(c.at(0, 1), 4.0);
    EXPECT_DOUBLE_EQ(c.at(1, 0), 9.0);
    EXPECT_DOUBLE_EQ(c.at(1, 1), 12.0);
}

TEST(ReferenceSpMM, MatchesDenseGemm)
{
    Rng rng(11);
    auto s = randomCsr(23, 17, 0.3, rng);
    auto d = randomDense(17, 9, rng);
    auto viaSparse = referenceSpMM(s, d);
    auto viaDense = referenceGemm(toDense(s), d);
    EXPECT_LT(DenseMatrix::maxAbsDiff(viaSparse, viaDense), 1e-12);
}

TEST(ReferenceSpMM, ShapeMismatchRejected)
{
    Rng rng(12);
    auto s = randomCsr(4, 5, 0.5, rng);
    DenseMatrix d(4, 3); // wrong inner dim
    EXPECT_ANY_THROW(referenceSpMM(s, d));
}

TEST(MacCounts, DenseCase)
{
    // Fully dense A (n x n) and X (n x f): closed forms apply.
    Rng rng(14);
    const uint32_t n = 8, f = 6, w = 4;
    auto a = randomCsr(n, n, 1.0, rng);
    auto x = randomCsr(n, f, 1.0, rng);
    auto counts = countMacsBothOrders(a, x, w);
    // (A*X): n*n rows sum nnz(X row k)=f each -> n*n*f; then n*f*w.
    EXPECT_EQ(counts.axThenW, static_cast<uint64_t>(n) * n * f +
                                  static_cast<uint64_t>(n) * f * w);
    // (X*W): n*f*w ; A*(XW): n*n*w.
    EXPECT_EQ(counts.xwThenA, static_cast<uint64_t>(n) * f * w +
                                  static_cast<uint64_t>(n) * n * w);
}

TEST(MacCounts, SparseAFavoursXwOrder)
{
    // The paper's Fig. 2: with sparse A and small W, A*(XW) needs far
    // fewer MACs than (A*X)*W on GCN-shaped problems.
    Rng rng(15);
    const uint32_t n = 400, f = 64, w = 16;
    auto a = randomCsr(n, n, 0.01, rng);
    auto x = randomCsr(n, f, 0.9, rng);
    auto counts = countMacsBothOrders(a, x, w);
    EXPECT_LT(counts.xwThenA, counts.axThenW);
}

/** MAC-count identity sweep: both orders equal brute-force counts. */
class MacSweep
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(MacSweep, CountsMatchBruteForce)
{
    auto [densA, densX] = GetParam();
    Rng rng(16);
    const uint32_t n = 60, f = 12, w = 5;
    auto a = randomCsr(n, n, densA, rng);
    auto x = randomCsr(n, f, densX, rng);
    auto counts = countMacsBothOrders(a, x, w);

    uint64_t ax = 0;
    for (uint32_t r = 0; r < n; ++r)
        for (NodeId k : a.rowCols(r))
            ax += x.rowNnz(k);
    EXPECT_EQ(counts.axThenW, ax + static_cast<uint64_t>(n) * f * w);
    EXPECT_EQ(counts.xwThenA, x.nnz() * w + a.nnz() * w);
}

INSTANTIATE_TEST_SUITE_P(
    Densities, MacSweep,
    ::testing::Values(std::tuple{0.01, 0.1}, std::tuple{0.1, 1.0},
                      std::tuple{0.5, 0.5}, std::tuple{1.0, 0.05}));

} // namespace
} // namespace grow::sparse
