#include <gtest/gtest.h>

#include "sparse/convert.hpp"
#include "sparse/coo_matrix.hpp"
#include "sparse/tiling.hpp"
#include "util/random.hpp"

namespace grow::sparse {
namespace {

TEST(TileGridStats, CountsMatchBruteForce)
{
    Rng rng(21);
    auto m = randomCsr(37, 53, 0.1, rng);
    TileShape shape{8, 16};
    auto stats = TileGridStats::compute(m, shape);
    ASSERT_EQ(stats.rowTiles(), 5u);
    ASSERT_EQ(stats.colTiles(), 4u);

    // Brute force per-tile census.
    std::vector<uint32_t> expect(5 * 4, 0);
    for (uint32_t r = 0; r < m.rows(); ++r)
        for (NodeId c : m.rowCols(r))
            expect[(r / 8) * 4 + c / 16] += 1;
    for (uint32_t mt = 0; mt < 5; ++mt)
        for (uint32_t kt = 0; kt < 4; ++kt)
            EXPECT_EQ(stats.nnzAt(mt, kt), expect[mt * 4 + kt]);
    EXPECT_EQ(stats.totalNnz(), m.nnz());
}

TEST(TileGridStats, NonEmptyTiles)
{
    CooMatrix coo(8, 8);
    coo.add(0, 0, 1.0);
    coo.add(7, 7, 1.0);
    coo.canonicalize();
    auto m = CsrMatrix::fromCoo(coo);
    auto stats = TileGridStats::compute(m, TileShape{4, 4});
    EXPECT_EQ(stats.nonEmptyTiles(), 2u);
}

TEST(TileGridStats, HistogramSkipsEmptyTiles)
{
    CooMatrix coo(8, 8);
    coo.add(0, 0, 1.0);
    coo.add(0, 1, 1.0);
    coo.canonicalize();
    auto m = CsrMatrix::fromCoo(coo);
    auto stats = TileGridStats::compute(m, TileShape{4, 4});
    auto h = stats.nnzHistogram({1, 2, 8, 16});
    EXPECT_EQ(h.total(), 1u); // only one non-empty tile
    EXPECT_EQ(h.count(1), 1u); // with exactly 2 nnz
}

TEST(TileFetchModel, EmptyTileIsFree)
{
    EXPECT_EQ(TileFetchModel::fetchedBytes(0), 0u);
    EXPECT_EQ(TileFetchModel::effectualBytes(0), 0u);
}

TEST(TileFetchModel, SingleNonZeroWorstCase)
{
    // 1 nnz: 64 B values line + 64 B index line + 64 B descriptor.
    EXPECT_EQ(TileFetchModel::fetchedBytes(1), 192u);
    EXPECT_EQ(TileFetchModel::effectualBytes(1), 12u);
    // This is the paper's "<6%" worst-case utilization (Sec. IV-B).
    EXPECT_NEAR(12.0 / 192.0, 0.0625, 1e-9);
}

TEST(TileFetchModel, DenseTileNearsFullUtilization)
{
    uint64_t nnz = 4096;
    double util =
        static_cast<double>(TileFetchModel::effectualBytes(nnz)) /
        static_cast<double>(TileFetchModel::fetchedBytes(nnz));
    EXPECT_GT(util, 0.97);
}

TEST(TileFetchModel, MonotonicInNnz)
{
    for (uint64_t nnz = 1; nnz < 200; ++nnz) {
        EXPECT_LE(TileFetchModel::fetchedBytes(nnz),
                  TileFetchModel::fetchedBytes(nnz + 1));
        EXPECT_GE(TileFetchModel::fetchedBytes(nnz),
                  TileFetchModel::effectualBytes(nnz));
    }
}

TEST(TileFetchTotals, UtilizationBounds)
{
    Rng rng(23);
    auto m = randomCsr(128, 128, 0.02, rng);
    auto stats = TileGridStats::compute(m, TileShape{32, 32});
    auto totals = tileFetchTotals(stats);
    EXPECT_GT(totals.utilization(), 0.0);
    EXPECT_LE(totals.utilization(), 1.0);
    EXPECT_EQ(totals.effectual, m.nnz() * 12);
}

TEST(RowStreamFetch, NearPerfectForCsrStreaming)
{
    // GROW's 1-D row streaming (Fig. 10(c)): utilization approaches 1
    // for any reasonably large matrix because the stream is contiguous.
    Rng rng(24);
    auto m = randomCsr(256, 256, 0.05, rng);
    auto totals = rowStreamFetchTotals(m);
    EXPECT_GT(totals.utilization(), 0.85);
    EXPECT_LE(totals.utilization(), 1.0);
}

TEST(RowStreamVsTiles, PaperFig10Contrast)
{
    // Hypersparse matrix: 2-D tiles waste most of each line while the
    // 1-D row stream stays dense -- the core motivation contrast.
    Rng rng(25);
    auto m = randomCsr(512, 512, 0.002, rng);
    auto tiled = tileFetchTotals(TileGridStats::compute(
        m, TileShape{64, 16}));
    auto streamed = rowStreamFetchTotals(m);
    EXPECT_LT(tiled.utilization(), 0.25);
    EXPECT_GT(streamed.utilization(), 0.7);
}

/** Tile-shape sweep: totals conserve nnz regardless of shape. */
class TileShapeSweep
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>>
{
};

TEST_P(TileShapeSweep, NnzConserved)
{
    auto [tr, tc] = GetParam();
    Rng rng(26);
    auto m = randomCsr(100, 80, 0.08, rng);
    auto stats = TileGridStats::compute(m, TileShape{tr, tc});
    EXPECT_EQ(stats.totalNnz(), m.nnz());
    auto h = stats.nnzHistogram({1, 2, 8, 16});
    uint64_t histTotal = 0;
    for (size_t i = 0; i < h.numBuckets(); ++i)
        histTotal += h.count(i);
    EXPECT_EQ(histTotal, stats.nonEmptyTiles());
}

INSTANTIATE_TEST_SUITE_P(Shapes, TileShapeSweep,
                         ::testing::Values(std::pair{1u, 1u},
                                           std::pair{7u, 13u},
                                           std::pair{16u, 16u},
                                           std::pair{100u, 80u},
                                           std::pair{128u, 128u}));

} // namespace
} // namespace grow::sparse
