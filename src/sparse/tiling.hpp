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

/** Buffer capacities and hardware minima that bound a tiling search. */
struct TilingLimits
{
    /** Sparse-tile buffer: holds a worst-case fully dense tile. */
    Bytes sparseBufBytes = 0;
    /** Dense-tile buffer: holds Tk rows of Tn values. */
    Bytes denseBufBytes = 0;
    /** Output-tile buffer: holds Tm rows of Tn values. */
    Bytes outBufBytes = 0;
    /** Minimum dense-tile height (>= 1); Tk is this times 2^i. */
    uint32_t minTileK = 1;
    /** Minimum sparse-tile height. */
    uint32_t minTileM = 1;
};

/** A chosen outer-product loop tiling and the totals it was chosen on. */
struct Tiling
{
    uint32_t tm = 0;
    uint32_t tk = 0;
    uint32_t tn = 0;
    /** Sparse-tile fetch bytes of one pass over the N tiles. */
    Bytes sparseFetch = 0;
    /** Dense-tile fetch bytes of one pass: one D[k, n] per non-empty
     *  sparse tile S[m, k]. */
    Bytes denseFetch = 0;
    /** Non-empty sparse tiles (the tiles fetched) of one pass. */
    uint64_t nonEmptyTiles = 0;
    /** Estimated total DRAM traffic: both fetches once per N tile,
     *  plus the output written once. */
    Bytes estimatedTraffic = 0;
};

/**
 * The traffic-minimising tiling search of the outer-product dataflow
 * (GCNAX, Fig. 4) for @p lhs times a dense operand of @p rhs_cols
 * columns. Tn is as wide as the dense buffer allows at the minimum Tk;
 * each candidate Tk = minTileK * 2^i that fits takes the largest
 * power-of-two Tm its sparse and output buffers allow, and the first
 * candidate with the least traffic wins. Each candidate's tile census
 * is taken once, one band of Tm rows at a time, with shifts instead of
 * divisions; the winner's totals come back with it.
 */
Tiling chooseTiling(const CsrMatrix &lhs, uint32_t rhs_cols,
                    const TilingLimits &limits);

/**
 * Fetch totals for GROW's 1-D row-granular CSR streaming (Fig. 10(c)):
 * consecutive rows are packed densely, so the whole stream is read at
 * line granularity exactly once.
 */
TileFetchTotals rowStreamFetchTotals(const CsrMatrix &m);

} // namespace grow::sparse
