#include "sparse/tiling.hpp"

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
