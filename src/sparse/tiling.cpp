#include "sparse/tiling.hpp"

#include <algorithm>

#include "util/bitutil.hpp"
#include "util/logging.hpp"

namespace grow::sparse {

namespace {

constexpr uint64_t kMaxTiles = 1ULL << 28;

} // namespace

TileGridStats
TileGridStats::compute(const CsrMatrix &m, TileShape shape)
{
    GROW_ASSERT(shape.rows > 0 && shape.cols > 0, "tile shape must be >0");
    TileGridStats s;
    s.shape_ = shape;
    s.rowTiles_ = static_cast<uint32_t>(ceilDiv(m.rows(), shape.rows));
    s.colTiles_ = static_cast<uint32_t>(ceilDiv(m.cols(), shape.cols));
    uint64_t tiles = static_cast<uint64_t>(s.rowTiles_) * s.colTiles_;
    GROW_ASSERT(tiles <= kMaxTiles, "tile grid too large");
    s.nnz_.assign(tiles, 0);
    for (uint32_t r = 0; r < m.rows(); ++r) {
        uint64_t base = static_cast<uint64_t>(r / shape.rows) * s.colTiles_;
        for (NodeId c : m.rowCols(r))
            s.nnz_[base + c / shape.cols] += 1;
    }
    return s;
}

uint32_t
TileGridStats::nnzAt(uint32_t m, uint32_t k) const
{
    GROW_ASSERT(m < rowTiles_ && k < colTiles_, "tile index out of range");
    return nnz_[static_cast<uint64_t>(m) * colTiles_ + k];
}

uint64_t
TileGridStats::nonEmptyTiles() const
{
    uint64_t count = 0;
    for (uint32_t v : nnz_)
        count += v > 0;
    return count;
}

uint64_t
TileGridStats::totalNnz() const
{
    uint64_t total = 0;
    for (uint32_t v : nnz_)
        total += v;
    return total;
}

BucketHistogram
TileGridStats::nnzHistogram(const std::vector<uint64_t> &bounds) const
{
    BucketHistogram h(bounds);
    for (uint32_t v : nnz_)
        if (v > 0)
            h.record(v);
    return h;
}

Bytes
TileFetchModel::effectualBytes(uint64_t nnz)
{
    return nnz * (kValueBytes + kIndexBytes);
}

Bytes
TileFetchModel::fetchedBytes(uint64_t nnz)
{
    if (nnz == 0)
        return 0;
    Bytes values = roundUp(nnz * kValueBytes, kDramLineBytes);
    Bytes indices = roundUp(nnz * kIndexBytes, kDramLineBytes);
    Bytes descriptor = kDramLineBytes;
    return values + indices + descriptor;
}

double
TileFetchTotals::utilization() const
{
    if (fetched == 0)
        return 1.0;
    return static_cast<double>(effectual) / static_cast<double>(fetched);
}

TileFetchTotals
tileFetchTotals(const TileGridStats &stats)
{
    TileFetchTotals t;
    for (uint32_t m = 0; m < stats.rowTiles(); ++m) {
        for (uint32_t k = 0; k < stats.colTiles(); ++k) {
            uint64_t nnz = stats.nnzAt(m, k);
            if (nnz == 0)
                continue;
            t.effectual += TileFetchModel::effectualBytes(nnz);
            t.fetched += TileFetchModel::fetchedBytes(nnz);
            t.tilesFetched += 1;
        }
    }
    return t;
}

namespace {

/**
 * Sparse fetch, dense fetch and non-empty tiles of one pass under the
 * grid of @p t's Tm by Tk; @p col_tile maps a column to its column
 * tile.
 */
template <typename ColTile>
void
censusFetch(const CsrMatrix &lhs, uint32_t rhs_cols, ColTile col_tile,
            Tiling &t)
{
    const uint32_t K = lhs.cols();
    const uint32_t colTiles = static_cast<uint32_t>(ceilDiv(K, t.tk));
    auto denseTile = [&](uint64_t k_extent) -> Bytes {
        return t.tn * kValueBytes >= kDramLineBytes || t.tn == rhs_cols
                   ? roundUp(k_extent * t.tn * kValueBytes, kDramLineBytes)
                   : k_extent * roundUp(t.tn * kValueBytes, kDramLineBytes);
    };
    const Bytes fullDense = denseTile(t.tk);
    const Bytes lastDense =
        colTiles == 0 ? 0 : denseTile(K - (colTiles - 1ull) * t.tk);

    // One band of Tm rows at a time, walked row by row (a row
    // selection's rows need not be adjacent in storage): only one row
    // of tile counters is live.
    std::vector<uint32_t> counts(colTiles, 0);
    for (uint64_t r0 = 0; r0 < lhs.rows(); r0 += t.tm) {
        const uint64_t r1 = std::min<uint64_t>(lhs.rows(), r0 + t.tm);
        for (uint64_t r = r0; r < r1; ++r)
            for (NodeId c : lhs.rowCols(static_cast<NodeId>(r)))
                counts[col_tile(c)] += 1;
        for (uint32_t k = 0; k < colTiles; ++k) {
            const uint32_t nnz = counts[k];
            if (nnz == 0)
                continue;
            counts[k] = 0;
            t.sparseFetch += TileFetchModel::fetchedBytes(nnz);
            t.denseFetch += k + 1 < colTiles ? fullDense : lastDense;
            t.nonEmptyTiles += 1;
        }
    }
}

} // namespace

Tiling
chooseTiling(const CsrMatrix &lhs, uint32_t rhs_cols,
             const TilingLimits &limits)
{
    GROW_ASSERT(rhs_cols > 0, "a tiling needs at least one output column");
    GROW_ASSERT(limits.minTileK > 0, "the minimum tile height must be >0");
    const uint32_t M = lhs.rows();
    const uint32_t K = lhs.cols();
    const uint32_t N = rhs_cols;

    // Dense-tile width: as wide as the buffer permits at minimum Tk --
    // GCN output widths are small (Table I), so Tn == N is the norm.
    const uint32_t tn = std::min<uint32_t>(
        N, std::max<uint32_t>(
               1, static_cast<uint32_t>(limits.denseBufBytes /
                                        (limits.minTileK * kValueBytes))));
    const uint64_t trips = ceilDiv(N, tn);
    const Bytes output =
        roundUp(static_cast<Bytes>(M) * N * kValueBytes, kDramLineBytes);

    // Column tiles of Tk = minTileK * 2^i are (c / minTileK) >> i: one
    // shift when minTileK is a power of two, else a per-column table
    // of c / minTileK, built without a division.
    std::vector<uint32_t> colBlock;
    if (!isPow2(limits.minTileK)) {
        colBlock.resize(K);
        uint32_t block = 0;
        uint64_t next = limits.minTileK;
        for (uint32_t c = 0; c < K; ++c) {
            if (c == next) {
                ++block;
                next += limits.minTileK;
            }
            colBlock[c] = block;
        }
    }

    Tiling best;
    for (uint32_t tk = limits.minTileK, doublings = 0;; tk *= 2, ++doublings) {
        if (static_cast<Bytes>(tk) * tn * kValueBytes > limits.denseBufBytes)
            break;
        // Worst-case (fully dense) sparse-tile provisioning, Sec. IV-B.
        const uint64_t tmCap =
            limits.sparseBufBytes /
            (static_cast<uint64_t>(tk) * (kValueBytes + kIndexBytes));
        const uint64_t tmOut =
            limits.outBufBytes / (static_cast<uint64_t>(tn) * kValueBytes);
        uint32_t tm = static_cast<uint32_t>(
            std::min<uint64_t>({tmCap, tmOut, M == 0 ? 1 : M}));
        if (tm < limits.minTileM) {
            if (tk == limits.minTileK && best.tm == 0)
                tm = limits.minTileM; // smallest legal fallback
            else
                break;
        }
        tm = uint32_t{1} << log2Floor(tm); // largest power of two <= tm

        Tiling t{tm, tk, tn};
        if (colBlock.empty()) {
            const unsigned shift = log2Floor(tk);
            censusFetch(lhs, N, [shift](NodeId c) { return c >> shift; }, t);
        } else {
            censusFetch(lhs, N,
                        [&colBlock, doublings](NodeId c) {
                            return colBlock[c] >> doublings;
                        },
                        t);
        }
        t.estimatedTraffic = (t.sparseFetch + t.denseFetch) * trips + output;
        if (best.tm == 0 || t.estimatedTraffic < best.estimatedTraffic)
            best = t;
        if (tk >= K)
            break;
    }
    GROW_ASSERT(best.tm > 0, "no feasible tiling");
    return best;
}

TileFetchTotals
rowStreamFetchTotals(const CsrMatrix &m)
{
    TileFetchTotals t;
    // Values, indices and row pointers are all consumed by the
    // row-stationary engine, so the pointer stream counts as effectual.
    t.effectual = m.nnz() * (kValueBytes + kIndexBytes) +
                  static_cast<Bytes>(m.rows()) * kPtrBytes;
    // Values, indices and row pointers are each one densely packed
    // sequential stream.
    t.fetched = roundUp(m.nnz() * kValueBytes, kDramLineBytes) +
                roundUp(m.nnz() * kIndexBytes, kDramLineBytes) +
                roundUp(static_cast<Bytes>(m.rows()) * kPtrBytes,
                        kDramLineBytes);
    t.tilesFetched = m.rows();
    return t;
}

} // namespace grow::sparse
