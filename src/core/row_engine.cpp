#include "core/row_engine.hpp"

#include <algorithm>

#include "util/bitutil.hpp"
#include "util/logging.hpp"

namespace grow::core {

namespace {

/** Widely separated address-space regions, offset per PE. */
constexpr uint64_t kRegionStride = 1ULL << 40;

mem::HdnCacheConfig
cacheConfigFor(const GrowConfig &config, const RowEngineProblem &problem)
{
    mem::HdnCacheConfig c = config.hdn;
    c.rowBytes = static_cast<Bytes>(problem.rhsCols) * kValueBytes;
    return c;
}

} // namespace

RowEngine::StreamExtent
RowEngine::streamExtent(const RowEngineProblem &problem,
                        const std::vector<uint32_t> &cluster_ids)
{
    GROW_ASSERT(problem.lhs != nullptr, "missing LHS matrix");
    GROW_ASSERT(problem.clustering != nullptr, "missing clustering");
    StreamExtent e;
    for (uint32_t c : cluster_ids) {
        for (NodeId r = problem.clustering->clusterStart[c];
             r < problem.clustering->clusterStart[c + 1]; ++r) {
            Bytes b = problem.lhs->rowNnz(r) * (kValueBytes + kIndexBytes) +
                      kPtrBytes;
            e.totalBytes += b;
            e.maxRowBytes = std::max(e.maxRowBytes, b);
        }
    }
    return e;
}

size_t
RowEngine::streamChunkBound(const GrowConfig &config, Bytes max_row_bytes)
{
    // ensureStreamed keeps chunks covering at most the prefetch window
    // (I-BUF capacity) plus the row being demanded plus one chunk of
    // slack. Full chunks are dmaChunkBytes; at most one partial chunk
    // survives per processed row, and every row advances the demand
    // pointer by >= kPtrBytes, so partials are bounded by span/kPtrBytes.
    const Bytes chunk = std::max<Bytes>(1, config.dmaChunkBytes);
    const Bytes span = config.iBufSparseBytes + max_row_bytes + chunk;
    return static_cast<size_t>(ceilDiv(span, chunk) +
                               ceilDiv(span, kPtrBytes) + 4);
}

RowEngine::RowEngine(const GrowConfig &config,
                     const RowEngineProblem &problem, mem::DramModel &dram,
                     uint32_t pe_id, std::vector<uint32_t> cluster_ids,
                     sparse::DenseMatrix *out)
    : config_(config), problem_(problem), dram_(dram), out_(out),
      rhsBase_(0),
      streamBase_(kRegionStride * (4 * static_cast<uint64_t>(pe_id) + 1)),
      outBase_(kRegionStride * (4 * static_cast<uint64_t>(pe_id) + 2)),
      preloadBase_(kRegionStride * (4 * static_cast<uint64_t>(pe_id) + 3)),
      clusterIds_(std::move(cluster_ids)),
      durPerProduct_(std::max<Cycle>(
          1, ceilDiv(problem.rhsCols, config.numMacs))),
      extent_(streamExtent(problem, clusterIds_)),
      chunkBound_(streamChunkBound(config, extent_.maxRowBytes)),
      ldnMap_(config.ldnEntries ? config.ldnEntries : 1, kInvalidNode),
      hdnCache_(cacheConfigFor(config, problem), problem.lhs->cols()),
      lruCache_(config.hdn.capacityBytes,
                std::max<Bytes>(1, static_cast<Bytes>(problem.rhsCols) *
                                       kValueBytes)),
      iBufSparse_("iBufSparse", config.iBufSparseBytes),
      oBufDense_("oBufDense", config.oBufDenseBytes),
      wBuf_("wBuf", config.hdn.capacityBytes)
{
    GROW_ASSERT(config_.runaheadDegree >= 1,
                "runahead degree must be >= 1");
    if (clusterIds_.empty()) {
        finishedIssue_ = true;
    } else {
        startNextCluster();
    }
    // Combination keeps the whole weight matrix on-chip: preload once.
    if (problem_.rhsOnChip) {
        Bytes wBytes = static_cast<Bytes>(problem_.lhs->cols()) *
                       problem_.rhsCols * kValueBytes;
        Cycle done = dram_.read(clock_, preloadBase_, wBytes,
                                mem::TrafficClass::HdnPreload);
        clock_ = std::max(clock_, done);
        wBuf_.write(wBytes);
    }
}

Bytes
RowEngine::rowCsrBytes(NodeId row) const
{
    return problem_.lhs->rowNnz(row) * (kValueBytes + kIndexBytes) +
           kPtrBytes;
}

uint64_t
RowEngine::rhsRowAddr(NodeId k) const
{
    return rhsBase_ +
           static_cast<uint64_t>(k) * problem_.rhsCols * kValueBytes;
}

void
RowEngine::startNextCluster()
{
    if (clusterCursor_ >= clusterIds_.size()) {
        finishedIssue_ = true;
        return;
    }
    uint32_t c = clusterIds_[clusterCursor_++];
    rowCursor_ = problem_.clustering->clusterStart[c];
    clusterEndRow_ = problem_.clustering->clusterStart[c + 1];
    stats_.clustersProcessed += 1;

    // A demand-filled LRU cache does not preload anything.
    if (config_.hdnPolicy == HdnPolicy::Lru)
        return;

    const std::vector<NodeId> *clusterIdsList = nullptr;
    if (problem_.hdnLists != nullptr && c < problem_.hdnLists->size())
        clusterIdsList = &(*problem_.hdnLists)[c];
    else if (problem_.globalHdnList != nullptr)
        clusterIdsList = problem_.globalHdnList;

    if (!problem_.rhsOnChip && config_.hdnCacheEnabled &&
        clusterIdsList != nullptr) {
        const auto &ids = *clusterIdsList;
        uint32_t pinned = hdnCache_.loadCluster(ids);
        stats_.hdnRowsPinned += pinned;
        Bytes preload = static_cast<Bytes>(ids.size()) * kHdnIdBytes +
                        static_cast<Bytes>(pinned) *
                            hdnCache_.config().rowBytes;
        if (preload > 0) {
            Cycle done = dram_.read(clock_, preloadBase_, preload,
                                    mem::TrafficClass::HdnPreload);
            clock_ = std::max(clock_, done);
        }
    }
}

Cycle
RowEngine::ensureStreamed(Bytes up_to)
{
    // Prefetch one I-BUF_sparse worth of stream beyond the request, but
    // never past the engine's total demand.
    Bytes target =
        std::min(up_to + config_.iBufSparseBytes, extent_.totalBytes);
    target = std::max(target, up_to);
    while (streamIssued_ < target) {
        Bytes chunk = std::min<Bytes>(config_.dmaChunkBytes,
                                      target - streamIssued_);
        Cycle done =
            dram_.read(clock_, streamBase_ + streamIssued_, chunk,
                       mem::TrafficClass::SparseStream);
        streamIssued_ += chunk;
        stats_.fetchedSparseBytes += roundUp(chunk, kDramLineBytes);
        streamChunks_.push_back(StreamChunk{streamIssued_, done});
        GROW_ASSERT(streamChunks_.size() <= chunkBound_,
                    "stream chunks exceed their hardware bound");
        iBufSparse_.write(chunk);
    }
    // Completion of the chunk containing byte up_to-1.
    while (streamChunks_.size() > 1 && streamChunks_.front().upTo < up_to)
        streamChunks_.pop_front();
    return streamChunks_.empty() ? clock_ : streamChunks_.front().done;
}

void
RowEngine::freeExpiredLdn()
{
    while (!ldnExpiry_.empty() && ldnExpiry_.top().first <= clock_)
        popLdnExpiry();
}

Cycle
RowEngine::popLdnExpiry()
{
    const auto [when, node] = ldnExpiry_.top();
    ldnExpiry_.pop();
    const Cycle *entry = ldnMap_.find(node);
    GROW_ASSERT(entry != nullptr && *entry == when,
                "LDN expiry without its table entry");
    ldnMap_.erase(node);
    return when;
}

void
RowEngine::freeExpiredLhs()
{
    while (!lhsExpiry_.empty() && lhsExpiry_.top() <= clock_)
        lhsExpiry_.pop();
}

Cycle
RowEngine::missFetch(NodeId k)
{
    freeExpiredLdn();
    freeExpiredLhs();

    // LHS ID table: one entry per parked product.
    if (lhsExpiry_.size() >= config_.lhsIdEntries) {
        clock_ = std::max(clock_, lhsExpiry_.top());
        stats_.lhsIdStalls += 1;
        freeExpiredLhs();
        freeExpiredLdn();
    }

    Cycle completion;
    if (const Cycle *entry = ldnMap_.find(k); entry != nullptr) {
        // Another product already fetches this row; share the fill.
        // Every entry that returned by clock_ was reaped above.
        GROW_ASSERT(*entry > clock_, "expired LDN entry not reaped");
        completion = *entry;
    } else {
        if (ldnMap_.size() >= config_.ldnEntries) {
            stats_.ldnStalls += 1;
            // Wait for the earliest live entries to return.
            while (ldnMap_.size() >= config_.ldnEntries)
                clock_ = std::max(clock_, popLdnExpiry());
            freeExpiredLhs();
        }
        Bytes rowBytes =
            static_cast<Bytes>(problem_.rhsCols) * kValueBytes;
        completion = dram_.read(clock_, rhsRowAddr(k), rowBytes,
                                mem::TrafficClass::DenseRow);
        ldnMap_.insert(k, completion);
        ldnExpiry_.push({completion, k});
    }
    lhsExpiry_.push(completion);
    return completion;
}

RowEngine::Slot &
RowEngine::findSlot(uint64_t token)
{
    // Tokens are assigned sequentially at push and the window only
    // retires from the front, so the slot index is just the offset from
    // the oldest token -- O(1), no scan.
    GROW_ASSERT(!window_.empty(), "slot lookup in empty window");
    const uint64_t base = window_.front().token;
    GROW_ASSERT(token >= base && token - base < window_.size(),
                "MAC completion for unknown row token");
    Slot &slot = window_[static_cast<size_t>(token - base)];
    GROW_ASSERT(slot.token == token, "window token sequence broken");
    return slot;
}

void
RowEngine::retireFront()
{
    GROW_ASSERT(!window_.empty(), "retire with empty window");
    while (window_.front().pending > 0) {
        MacCompletion comp = mac_.drainOne();
        Slot &slot = findSlot(comp.rowToken);
        GROW_ASSERT(slot.pending >= comp.count, "pending underflow");
        slot.pending -= comp.count;
        slot.lastFinish = std::max(slot.lastFinish, comp.finish);
    }
    Slot front = window_.front();
    window_.pop_front();
    GROW_ASSERT(front.controlDone, "retiring a row still under control");

    const Bytes outBytes =
        static_cast<Bytes>(problem_.rhsCols) * kValueBytes;
    oBufDense_.read(outBytes);
    Cycle written = dram_.write(
        front.lastFinish,
        outBase_ + static_cast<uint64_t>(front.row) * outBytes, outBytes,
        mem::TrafficClass::OutputWrite);
    maxCompletion_ = std::max({maxCompletion_, front.lastFinish, written});
}

void
RowEngine::processNextRow()
{
    if (finishedIssue_)
        return;
    while (rowCursor_ >= clusterEndRow_) {
        startNextCluster();
        if (finishedIssue_)
            return;
    }
    const NodeId row = rowCursor_++;

    // Window admission (in-order retire, Fig. 15).
    while (window_.size() >= config_.runaheadDegree) {
        stats_.windowStalls += 1;
        retireFront();
    }

    streamNeeded_ += rowCsrBytes(row);
    Cycle rowReady = ensureStreamed(streamNeeded_);
    clock_ = std::max(clock_, rowReady);

    window_.push_back(Slot{row, nextToken_++, 0, clock_, false});
    GROW_ASSERT(window_.size() <= config_.runaheadDegree,
                "row window exceeds the runahead degree");
    const uint64_t token = window_.back().token;

    auto cols = problem_.lhs->rowCols(row);
    const Bytes rhsRowBytes =
        static_cast<Bytes>(problem_.rhsCols) * kValueBytes;
    iBufSparse_.read(cols.size() * (kValueBytes + kIndexBytes));

    if (problem_.rhsOnChip) {
        // Combination: W is resident, so the row's n products are
        // ready at its n CAM cycles clock_+1 ... clock_+n and issue as
        // one MAC run with every per-product counter batched.
        const auto n = static_cast<uint32_t>(cols.size());
        if (n > 0) {
            mac_.addRun(clock_ + 1, token, durPerProduct_, n);
            clock_ += n; // HDN ID list CAM: one lookup per cycle
            stats_.camLookups += n;
            wBuf_.read(rhsRowBytes, n);
            window_.back().pending += n;
            oBufDense_.write(rhsRowBytes, n);
            stats_.products += n;
            stats_.macOps += static_cast<uint64_t>(n) * problem_.rhsCols;
        }
    } else {
        for (const NodeId k : cols) {
            clock_ += 1; // HDN ID list CAM: one lookup per cycle
            stats_.camLookups += 1;

            // A hit is CAM-ready, a miss waits for its fill.
            if (config_.hdnCacheEnabled &&
                config_.hdnPolicy == HdnPolicy::Lru) {
                // Sec. VIII alternative: demand-filled LRU over the
                // same capacity. Hubs compete with one-touch cold rows.
                if (lruCache_.lookup(k)) {
                    ++lruHits_;
                    hdnCache_.dataArray().read(rhsRowBytes);
                    mac_.addRun(clock_, token, durPerProduct_, 1);
                } else {
                    ++lruMisses_;
                    mac_.addFill(missFetch(k), token, durPerProduct_);
                    lruCache_.insert(k);
                    hdnCache_.dataArray().write(rhsRowBytes);
                }
            } else if (config_.hdnCacheEnabled && hdnCache_.lookup(k)) {
                mac_.addRun(clock_, token, durPerProduct_, 1);
            } else {
                mac_.addFill(missFetch(k), token, durPerProduct_);
            }
            window_.back().pending += 1;
            oBufDense_.write(rhsRowBytes);
            stats_.products += 1;
            stats_.macOps += problem_.rhsCols;
        }
    }

    if (out_ != nullptr) {
        GROW_ASSERT(problem_.rhsValues != nullptr,
                    "functional mode requires RHS values");
        auto vals = problem_.lhs->rowVals(row);
        double *acc = out_->row(row);
        for (size_t i = 0; i < cols.size(); ++i) {
            const double *rhs = problem_.rhsValues->row(cols[i]);
            const double v = vals[i];
            for (uint32_t j = 0; j < problem_.rhsCols; ++j)
                acc[j] += v * rhs[j];
        }
    }
    window_.back().controlDone = true;
    stats_.rowsProcessed += 1;
    stats_.effectualSparseBytes += rowCsrBytes(row);
}

Cycle
RowEngine::finalize()
{
    while (!window_.empty())
        retireFront();
    finishedIssue_ = true;
    return std::max({clock_, maxCompletion_, mac_.macFree()});
}

uint64_t
RowEngine::cacheHits() const
{
    return config_.hdnPolicy == HdnPolicy::Lru ? lruHits_
                                               : hdnCache_.hits();
}

uint64_t
RowEngine::cacheMisses() const
{
    return config_.hdnPolicy == HdnPolicy::Lru ? lruMisses_
                                               : hdnCache_.misses();
}

} // namespace grow::core
