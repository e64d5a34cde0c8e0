/**
 * @file
 * 2-D tiling analysis for outer-product SpDeGEMM dataflows.
 *
 * GCNAX (the paper's baseline) fetches the sparse operand as 2-D tiles of
 * a CSC-compressed matrix (Fig. 4). The census is taken on the CSR
 * operand: the number of non-zeros per tile does not depend on storage
 * order. The GROW paper's motivation rests on two measurements over
 * those tiles:
 *  - Fig. 5: the number of non-zeros per fetched tile, and
 *  - Fig. 6: the effective DRAM bandwidth when fetching them with a
 *    64-byte minimum access granularity.
 * This module computes per-tile non-zero counts and models the tile fetch
 * cost: a non-empty tile transfers its packed values (8 B each), its
 * packed indices (4 B each) and one descriptor line, each rounded up to
 * the DRAM line size. A tile holding a single non-zero therefore reaches
 * only 12 B / 192 B = 6.25% utilization -- matching the paper's reported
 * worst case of "<6%" -- while the dense combination tiles approach 100%.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "sim/histogram.hpp"
#include "sim/types.hpp"
#include "sparse/csr_matrix.hpp"

namespace grow::sparse {

/** Dimensions of one tile. */
struct TileShape
{
    uint32_t rows = 0;
    uint32_t cols = 0;
};

/**
 * Per-tile non-zero counts over a fixed tile grid.
 */
class TileGridStats
{
  public:
    TileGridStats() = default;

    /** Count tile occupancy of @p m under @p shape. */
    static TileGridStats compute(const CsrMatrix &m, TileShape shape);

    uint32_t rowTiles() const { return rowTiles_; }
    uint32_t colTiles() const { return colTiles_; }
    TileShape shape() const { return shape_; }

    /** Non-zeros in tile (row tile @p m, column tile @p k). */
    uint32_t nnzAt(uint32_t m, uint32_t k) const;

    /** Number of tiles holding at least one non-zero. */
    uint64_t nonEmptyTiles() const;

    /** Total non-zeros across all tiles. */
    uint64_t totalNnz() const;

    /**
     * Histogram of nnz over *non-empty* tiles (the tiles that are
     * actually fetched), with the paper's Fig. 5 bucket bounds.
     */
    BucketHistogram nnzHistogram(const std::vector<uint64_t> &bounds) const;

  private:
    uint32_t rowTiles_ = 0;
    uint32_t colTiles_ = 0;
    TileShape shape_;
    std::vector<uint32_t> nnz_;
};

/**
 * DRAM cost model for fetching one compressed-sparse tile.
 */
struct TileFetchModel
{
    /** Bytes of useful payload in a tile with @p nnz non-zeros. */
    static Bytes effectualBytes(uint64_t nnz);

    /**
     * Bytes actually transferred from DRAM for a tile with @p nnz
     * non-zeros (0 for empty tiles, which the tile directory skips).
     */
    static Bytes fetchedBytes(uint64_t nnz);
};

/** Aggregate fetch totals for a whole matrix under a tile shape. */
struct TileFetchTotals
{
    Bytes effectual = 0;
    Bytes fetched = 0;
    uint64_t tilesFetched = 0;

    /** effectual / fetched, or 1.0 when nothing was fetched. */
    double utilization() const;
};

/** Sum the fetch model over all tiles of @p stats. */
TileFetchTotals tileFetchTotals(const TileGridStats &stats);

/**
 * Fetch totals for GROW's 1-D row-granular CSR streaming (Fig. 10(c)):
 * consecutive rows are packed densely, so the whole stream is read at
 * line granularity exactly once.
 */
TileFetchTotals rowStreamFetchTotals(const CsrMatrix &m);

} // namespace grow::sparse
