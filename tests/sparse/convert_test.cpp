#include <gtest/gtest.h>

#include "sparse/convert.hpp"
#include "sparse/coo_matrix.hpp"
#include "util/random.hpp"

namespace grow::sparse {
namespace {

TEST(Convert, ToDenseValuesMatch)
{
    CooMatrix coo(2, 3);
    coo.add(0, 2, 5.5);
    coo.add(1, 0, -1.25);
    coo.canonicalize();
    auto csr = CsrMatrix::fromCoo(coo);
    auto d = toDense(csr);
    EXPECT_DOUBLE_EQ(d.at(0, 2), 5.5);
    EXPECT_DOUBLE_EQ(d.at(1, 0), -1.25);
    EXPECT_DOUBLE_EQ(d.at(0, 0), 0.0);
}

TEST(Convert, RandomDenseInRange)
{
    Rng rng(3);
    auto d = randomDense(20, 20, rng);
    for (uint32_t r = 0; r < 20; ++r) {
        for (uint32_t c = 0; c < 20; ++c) {
            EXPECT_GE(d.at(r, c), -1.0);
            EXPECT_LT(d.at(r, c), 1.0);
        }
    }
}

TEST(Convert, RandomCsrFullDensityIsDense)
{
    Rng rng(4);
    auto m = randomCsr(10, 10, 1.0, rng);
    EXPECT_EQ(m.nnz(), 100u);
}

TEST(Convert, RandomCsrZeroDensityIsEmpty)
{
    Rng rng(5);
    auto m = randomCsr(10, 10, 0.0, rng);
    EXPECT_EQ(m.nnz(), 0u);
    EXPECT_TRUE(m.validate());
}

TEST(Convert, StructureOnlyRandomCsrKeepsStructureAndStream)
{
    // Dropping values must not change the pattern or any later draw:
    // every value is drawn either way.
    for (const auto &[rows, cols] :
         {std::pair<uint32_t, uint32_t>{17, 23}, {300, 300}, {2000, 602}}) {
        for (double density : {0.0, 1e-4, 0.0085, 0.1, 0.639, 0.99, 1.0}) {
            for (uint64_t seed : {1ULL, 0x9e3779b9ULL}) {
                Rng a(seed), b(seed);
                const auto valued = randomCsr(rows, cols, density, a);
                const auto bare =
                    randomCsr(rows, cols, density, b, false);
                EXPECT_TRUE(bare.validate());
                EXPECT_EQ(bare.rowPtr(), valued.rowPtr());
                EXPECT_EQ(bare.colIdx(), valued.colIdx());
                EXPECT_TRUE(bare.values().empty());
                EXPECT_EQ(valued.values().size(), valued.nnz());
                EXPECT_EQ(a.next(), b.next())
                    << rows << "x" << cols << " @ " << density;
            }
        }
    }
}

TEST(Convert, RandomCsrDeterministicPerSeed)
{
    Rng a(6), b(6);
    auto m1 = randomCsr(50, 50, 0.2, a);
    auto m2 = randomCsr(50, 50, 0.2, b);
    EXPECT_EQ(m1.colIdx(), m2.colIdx());
}

} // namespace
} // namespace grow::sparse
