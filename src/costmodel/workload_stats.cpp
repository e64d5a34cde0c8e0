#include "costmodel/workload_stats.hpp"

#include <algorithm>
#include <numeric>

#include "util/logging.hpp"

namespace grow::costmodel {

namespace {

/** Fenwick tree of reference positions (Mattson stack-distance
 *  helper): prefixSum(i) = distinct columns whose most recent access
 *  lies at position <= i. */
class Fenwick
{
  public:
    explicit Fenwick(size_t n) : tree_(n + 1, 0) {}

    void add(size_t i, int32_t delta)
    {
        for (i += 1; i < tree_.size(); i += i & (~i + 1))
            tree_[i] = static_cast<uint32_t>(
                static_cast<int64_t>(tree_[i]) + delta);
    }

    uint64_t prefixSum(size_t i) const
    {
        uint64_t s = 0;
        for (i += 1; i > 0; i -= i & (~i + 1))
            s += tree_[i];
        return s;
    }

  private:
    std::vector<uint32_t> tree_;
};

std::vector<uint64_t>
prefixFromHistogram(std::vector<uint64_t> hist)
{
    std::vector<uint64_t> prefix(hist.size() + 1, 0);
    for (size_t i = 0; i < hist.size(); ++i)
        prefix[i + 1] = prefix[i] + hist[i];
    return prefix;
}

uint64_t
clampedPrefix(const std::vector<uint64_t> &prefix, uint64_t i)
{
    if (prefix.empty())
        return 0;
    const uint64_t last = static_cast<uint64_t>(prefix.size() - 1);
    return prefix[static_cast<size_t>(std::min(i, last))];
}

/**
 * Exact LRU hit curve of the row-major column-reference stream: for
 * each reference, its stack distance d (distinct columns touched since
 * the previous access to the same column) decides hit-or-miss at every
 * capacity at once -- a C-row LRU hits iff d < C. Classic Mattson
 * (1970) single-pass profiling, O(nnz log nnz) with a Fenwick tree.
 *
 * This models a demand-filled cache that inserts on reference, which
 * is exact for GAMMA's FiberCache and for GROW's LRU policy up to
 * fill latency (a row still in flight counts as a cache miss in the
 * simulator but shares its fill through the LDN).
 */
std::vector<uint64_t>
lruHistogram(const sparse::CsrMatrix &lhs)
{
    const uint64_t n = lhs.nnz();
    std::vector<int64_t> lastPos(lhs.cols(), -1);
    Fenwick active(static_cast<size_t>(n));
    std::vector<uint64_t> hist;
    uint64_t pos = 0;
    for (NodeId row = 0; row < lhs.rows(); ++row) {
        for (NodeId c : lhs.rowCols(row)) {
            const int64_t prev = lastPos[c];
            if (prev >= 0) {
                // Distinct columns referenced strictly after prev: the
                // column's depth in the LRU stack.
                const uint64_t depth =
                    active.prefixSum(static_cast<size_t>(pos) - 1) -
                    active.prefixSum(static_cast<size_t>(prev));
                if (hist.size() <= depth)
                    hist.resize(static_cast<size_t>(depth) + 1, 0);
                hist[static_cast<size_t>(depth)] += 1;
                active.add(static_cast<size_t>(prev), -1);
            }
            active.add(static_cast<size_t>(pos), +1);
            lastPos[c] = static_cast<int64_t>(pos);
            pos += 1;
        }
    }
    return hist;
}

/**
 * Exact pinned-cache hit curve: rank every reference by its column's
 * position in the pinned list that is live while its row streams
 * (cluster-local HDN list, or the global frequency ranking when the
 * operand carries no artefacts). A scratchpad that pins the first P
 * list entries hits exactly the references of rank < P -- ranks only
 * exist inside a list, so merging histograms across clusters stays
 * exact for every P.
 */
std::vector<uint64_t>
pinnedHistogram(const sparse::CsrMatrix &lhs,
                const partition::Clustering *clustering,
                const std::vector<std::vector<NodeId>> *hdn_lists)
{
    std::vector<uint64_t> hist;
    auto bump = [&hist](uint32_t rank) {
        if (hist.size() <= rank)
            hist.resize(static_cast<size_t>(rank) + 1, 0);
        hist[rank] += 1;
    };

    constexpr uint32_t kNoRank = UINT32_MAX;
    std::vector<uint32_t> rankOf(lhs.cols(), kNoRank);

    if (clustering != nullptr && hdn_lists != nullptr) {
        const uint32_t numClusters =
            std::min(clustering->numClusters(),
                     static_cast<uint32_t>(hdn_lists->size()));
        for (uint32_t cl = 0; cl < numClusters; ++cl) {
            const auto &ids = (*hdn_lists)[cl];
            for (uint32_t r = 0; r < ids.size(); ++r)
                rankOf[ids[r]] = r;
            const uint32_t rowBegin = clustering->clusterStart[cl];
            const uint32_t rowEnd = clustering->clusterStart[cl + 1];
            for (uint32_t row = rowBegin; row < rowEnd; ++row)
                for (NodeId c : lhs.rowCols(row))
                    if (rankOf[c] != kNoRank)
                        bump(rankOf[c]);
            for (NodeId id : ids)
                rankOf[id] = kNoRank;
        }
        return hist;
    }

    // No artefacts: every cluster pins the same global list, ranked by
    // (reference frequency desc, id asc) -- core::topReferencedColumns'
    // order, extended over all columns so any CAM depth can be queried.
    std::vector<uint32_t> freq(lhs.cols(), 0);
    for (NodeId row = 0; row < lhs.rows(); ++row)
        for (NodeId c : lhs.rowCols(row))
            freq[c] += 1;
    std::vector<NodeId> order(lhs.cols());
    std::iota(order.begin(), order.end(), NodeId{0});
    std::sort(order.begin(), order.end(), [&freq](NodeId a, NodeId b) {
        if (freq[a] != freq[b])
            return freq[a] > freq[b];
        return a < b;
    });
    for (uint32_t r = 0; r < order.size(); ++r)
        rankOf[order[r]] = r;
    for (NodeId row = 0; row < lhs.rows(); ++row)
        for (NodeId c : lhs.rowCols(row))
            bump(rankOf[c]);
    return hist;
}

} // namespace

uint64_t
OperandStats::lruHits(uint64_t capacity_rows) const
{
    return clampedPrefix(lruHitPrefix, capacity_rows);
}

uint64_t
OperandStats::pinnedHits(uint64_t resident_rows) const
{
    return clampedPrefix(pinnedHitPrefix, resident_rows);
}

OperandStats
OperandStats::compute(const sparse::CsrMatrix &lhs,
                      const partition::Clustering *clustering,
                      const std::vector<std::vector<NodeId>> *hdn_lists)
{
    OperandStats s;
    s.lhs = &lhs;
    s.clustering = clustering;
    s.hdnLists = hdn_lists;
    s.rows = lhs.rows();
    s.cols = lhs.cols();
    s.nnz = lhs.nnz();
    s.csrStreamBytes = lhs.streamBytes();
    s.lruHitPrefix = prefixFromHistogram(lruHistogram(lhs));
    s.pinnedHitPrefix =
        prefixFromHistogram(pinnedHistogram(lhs, clustering, hdn_lists));
    if (hdn_lists != nullptr) {
        s.clusterListLens.reserve(hdn_lists->size());
        for (const auto &ids : *hdn_lists)
            s.clusterListLens.push_back(
                static_cast<uint32_t>(ids.size()));
    }
    if (clustering != nullptr) {
        const auto &ptr = lhs.rowPtr();
        s.clusterNnz.reserve(clustering->numClusters());
        for (uint32_t c = 0; c < clustering->numClusters(); ++c)
            s.clusterNnz.push_back(ptr[clustering->clusterStart[c + 1]] -
                                   ptr[clustering->clusterStart[c]]);
    }
    return s;
}

} // namespace grow::costmodel
