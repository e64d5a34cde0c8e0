/**
 * @file
 * The per-PE row-stationary execution engine (Sec. V-B/V-D).
 *
 * One RowEngine models one GROW processing engine walking its share of
 * the LHS matrix rows. For every row it:
 *
 *  1. waits for the CSR stream (DMA-prefetched through I-BUF_sparse) to
 *     deliver the row's non-zeros;
 *  2. performs one HDN ID list CAM lookup per non-zero (1/cycle);
 *  3. on a hit, reads the RHS row from the HDN cache and queues the
 *     scalar-x-vector product on the MAC array;
 *  4. on a miss, allocates an LDN table entry (or joins an in-flight
 *     one), allocates an LHS ID table entry, and issues the DRAM fetch;
 *     the product becomes MAC-ready when the fill returns;
 *  5. runs ahead to subsequent rows subject to the multi-row window
 *     (runahead degree), retiring output rows in order through
 *     O-BUF_dense (Fig. 15's head/tail discipline).
 *
 * Control stalls when the LDN table (outstanding distinct misses) or
 * the LHS ID table (outstanding parked products) is exhausted: the
 * control clock waits for the earliest entry to free (Fig. 16's
 * structural hazards). A full row window does not stall the clock:
 * admission retires the head row (draining its MAC runs and posting
 * its output write at its last MAC finish) and counts a windowStalls
 * event, but the next row's CAM lookups and fetches may still issue
 * before that finish. ROADMAP item 1 tracks making the clock wait.
 *
 * Combination (rhsOnChip) keeps W in the repurposed HDN data array, so
 * steps 3-4 collapse: every product is ready at its CAM cycle. A row's
 * n products are then ready at n consecutive cycles and issue as one
 * MAC run (mac_scheduler.hpp) with its clock, CAM, SRAM and product
 * counters advanced once per row; outside functional mode combination
 * does no per-non-zero work.
 *
 * Aggregation issues one product per non-zero: a hit as a CAM-ready
 * product, a miss as a fill-ready one (the MAC scheduler's two
 * sources). The LDN and LHS ID tables free their entries in fill order
 * through util::SortedFifo expiry queues, which cost O(1) per entry
 * while fills complete in issue order (SimpleDram); every LDN expiry
 * matches a live table entry, and the table's size is its occupancy.
 *
 * Hot-loop layout: the multi-row window and the stream-chunk FIFO are
 * util::Fifo rings (util/sorted_fifo.hpp) and the LDN table is an
 * open-addressing util::FlatMap (util/flat_map.hpp). The rings reuse
 * one allocation once warm; what they hold is bounded by the hardware
 * configuration (the runahead degree, and streamChunkBound() for the
 * chunks), and the engine asserts both bounds after every push.
 * bench_kernels times the containers on this engine's access patterns
 * (BM_LdnTableFlatMap, BM_RunaheadWindowRing), and times whole
 * GrowSim runs of one combination and one aggregation phase per
 * product (BM_RowEngineCombination, BM_RowEngineAggregation).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/grow_config.hpp"
#include "core/mac_scheduler.hpp"
#include "mem/dram.hpp"
#include "mem/hdn_cache.hpp"
#include "mem/lru_cache.hpp"
#include "mem/sram.hpp"
#include "partition/relabel.hpp"
#include "sim/types.hpp"
#include "sparse/csr_matrix.hpp"
#include "sparse/dense_matrix.hpp"
#include "util/flat_map.hpp"
#include "util/sorted_fifo.hpp"

namespace grow::core {

/** Counters exported by one engine after a phase. */
struct RowEngineStats
{
    uint64_t rowsProcessed = 0;
    uint64_t products = 0;
    uint64_t macOps = 0;
    uint64_t camLookups = 0;
    uint64_t ldnStalls = 0;
    uint64_t lhsIdStalls = 0;
    uint64_t windowStalls = 0;
    uint64_t clustersProcessed = 0;
    uint64_t hdnRowsPinned = 0;
    Bytes effectualSparseBytes = 0;
    Bytes fetchedSparseBytes = 0;
};

/** Immutable description of the phase an engine executes. */
struct RowEngineProblem
{
    const sparse::CsrMatrix *lhs = nullptr;
    uint32_t rhsCols = 0;
    const sparse::DenseMatrix *rhsValues = nullptr; ///< functional only
    /** RHS resident on-chip for the whole phase (combination). */
    bool rhsOnChip = false;
    const partition::Clustering *clustering = nullptr;
    const std::vector<std::vector<NodeId>> *hdnLists = nullptr;
    /**
     * Shared fallback HDN list preloaded by every cluster that has no
     * per-cluster entry in hdnLists ("GROW w/o G.P": one global top-N
     * list, computed once per problem instead of copied per cluster).
     */
    const std::vector<NodeId> *globalHdnList = nullptr;
};

class RowEngine
{
  public:
    /**
     * @param pe_id       engine index (address-space separation)
     * @param cluster_ids clusters owned by this engine, in order
     * @param out         functional output (nullable; rows are disjoint
     *                    across engines)
     */
    RowEngine(const GrowConfig &config, const RowEngineProblem &problem,
              mem::DramModel &dram, uint32_t pe_id,
              std::vector<uint32_t> cluster_ids,
              sparse::DenseMatrix *out);

    /** Whether all owned rows have been issued. */
    bool rowsRemaining() const { return !finishedIssue_; }

    /** Local control-unit clock. */
    Cycle clock() const { return clock_; }

    /** Process one row (handles cluster transitions and preloads). */
    void processNextRow();

    /** Retire everything; returns the engine's completion cycle. */
    Cycle finalize();

    const RowEngineStats &stats() const { return stats_; }
    const mem::HdnCache &hdnCache() const { return hdnCache_; }
    mem::HdnCache &hdnCache() { return hdnCache_; }
    uint64_t cacheHits() const;
    uint64_t cacheMisses() const;
    const mem::SramBuffer &iBufSparse() const { return iBufSparse_; }
    const mem::SramBuffer &oBufDense() const { return oBufDense_; }
    const mem::SramBuffer &wBuf() const { return wBuf_; }

  private:
    /** One in-flight output row of the multi-row window. */
    struct Slot
    {
        NodeId row;
        uint64_t token;
        uint32_t pending = 0;
        Cycle lastFinish = 0;
        bool controlDone = false;
    };

    /** One in-flight DMA stream chunk: bytes covered + fill time. */
    struct StreamChunk
    {
        Bytes upTo;
        Cycle done;
    };

    /** Stream totals scanned once over the owned clusters. */
    struct StreamExtent
    {
        Bytes totalBytes = 0;
        Bytes maxRowBytes = 0;
    };
    static StreamExtent
    streamExtent(const RowEngineProblem &problem,
                 const std::vector<uint32_t> &cluster_ids);

    /** Hardware-derived bound on in-flight stream chunks (see .cpp). */
    static size_t streamChunkBound(const GrowConfig &config,
                                   Bytes max_row_bytes);

    void startNextCluster();
    void retireFront();
    Cycle ensureStreamed(Bytes up_to);
    Cycle missFetch(NodeId k);
    void freeExpiredLdn();
    /** Pop the earliest LDN expiry, erase its (asserted) table entry
     *  and return its fill cycle. */
    Cycle popLdnExpiry();
    void freeExpiredLhs();
    Slot &findSlot(uint64_t token);

    Bytes rowCsrBytes(NodeId row) const;
    uint64_t rhsRowAddr(NodeId k) const;

    const GrowConfig &config_;
    RowEngineProblem problem_;
    mem::DramModel &dram_;
    sparse::DenseMatrix *out_;

    // Address-space bases (distinct per PE for the banked DRAM model).
    uint64_t rhsBase_;
    uint64_t streamBase_;
    uint64_t outBase_;
    uint64_t preloadBase_;

    std::vector<uint32_t> clusterIds_;
    size_t clusterCursor_ = 0;
    NodeId rowCursor_ = 0;
    NodeId clusterEndRow_ = 0;
    bool finishedIssue_ = false;

    Cycle clock_ = 0;
    Cycle maxCompletion_ = 0;
    Cycle durPerProduct_;

    // Sparse stream prefetch totals (extent_ scanned at construction).
    StreamExtent extent_;
    Bytes streamNeeded_ = 0;
    Bytes streamIssued_ = 0;

    // Multi-row stationary window (at most runahead-degree rows).
    util::Fifo<Slot> window_;
    uint64_t nextToken_ = 0;
    MacScheduler mac_;

    // Stream chunk FIFO (at most chunkBound_ chunks, derived from
    // I-BUF / DMA chunk).
    util::Fifo<StreamChunk> streamChunks_;
    size_t chunkBound_;

    // LDN table (outstanding distinct RHS-row misses; occupancy is
    // bounded by ldnEntries -- see missFetch): fill cycle per row, and
    // the same (fill, row) entries in expiry order.
    util::FlatMap<NodeId, Cycle> ldnMap_;
    util::SortedFifo<std::pair<Cycle, NodeId>> ldnExpiry_;

    // LHS ID table (outstanding parked products), in expiry order.
    util::SortedFifo<Cycle> lhsExpiry_;

    mem::HdnCache hdnCache_;
    mem::LruRowCache lruCache_; ///< used when hdnPolicy == Lru
    uint64_t lruHits_ = 0;
    uint64_t lruMisses_ = 0;
    mem::SramBuffer iBufSparse_;
    mem::SramBuffer oBufDense_;
    mem::SramBuffer wBuf_; ///< on-chip W during combination

    RowEngineStats stats_;
};

} // namespace grow::core
