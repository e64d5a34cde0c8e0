#include "core/grow.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace grow::core {

GrowSim::GrowSim(GrowConfig config) : config_(std::move(config))
{
    GROW_ASSERT(config_.numPes >= 1, "need at least one PE");
}

mapping::EngineMapping
GrowSim::mapping() const
{
    using namespace grow::mapping;
    EngineMapping em;
    em.dramBytesPerCycle = config_.dram.bytesPerCycle();
    em.dramAccessLatency = config_.dram.accessLatency;
    em.numPes = config_.numPes;

    // Row-stationary Gustavson dataflow (Fig. 8/15): each LHS
    // non-zero issues one RHS-row product, the MAC array spans the
    // output row, and the LDN bounds the outstanding RHS-row misses.
    MappingSpec agg;
    agg.phaseClass = PhaseClass::SparseStreaming;
    agg.rhsFormat = OperandFormat::DenseRows;
    agg.outFormat = OperandFormat::DenseRows;
    agg.spatialLanes = config_.numMacs;
    agg.missConcurrency = std::max(1u, config_.ldnEntries);
    agg.streamChunkBytes = config_.dmaChunkBytes;
    agg.denseReuse = !config_.hdnCacheEnabled ? DenseReuse::None
                     : config_.hdnPolicy == HdnPolicy::Lru
                         ? DenseReuse::LruCache
                         : DenseReuse::PinnedCache;
    agg.pinnedIdEntries =
        config_.hdnCacheEnabled ? config_.hdn.camEntries : 0;
    agg.buffers = {{BufferRole::SparseInput, config_.iBufSparseBytes},
                   {BufferRole::Output, config_.oBufDenseBytes}};
    if (config_.hdnCacheEnabled)
        agg.buffers.push_back(
            {BufferRole::RowCache, config_.hdn.capacityBytes});

    // Combination keeps the whole weight matrix in the repurposed HDN
    // data array (Sec. V-B): same dataflow, dense operand fully
    // resident.
    MappingSpec comb = agg;
    comb.phaseClass = PhaseClass::DenseResident;
    comb.denseReuse = DenseReuse::Resident;
    comb.pinnedIdEntries = 0;
    comb.buffers = {{BufferRole::SparseInput, config_.iBufSparseBytes},
                    {BufferRole::Output, config_.oBufDenseBytes},
                    {BufferRole::DenseInput, config_.hdn.capacityBytes}};

    em.combination = std::move(comb);
    em.aggregation = std::move(agg);
    mapping::validate(em);
    return em;
}

std::vector<NodeId>
topReferencedColumns(const sparse::CsrMatrix &lhs, uint32_t top_n)
{
    std::vector<uint32_t> freq(lhs.cols(), 0);
    for (NodeId r = 0; r < lhs.rows(); ++r)
        for (NodeId c : lhs.rowCols(r))
            freq[c] += 1;
    std::vector<NodeId> ids(lhs.cols());
    for (NodeId i = 0; i < lhs.cols(); ++i)
        ids[i] = i;
    // Only the top-N ranks matter; a full sort of every column is
    // wasted work when top_n << cols (the common case: 4096 CAM
    // entries vs millions of columns).
    auto cmp = [&freq](NodeId a, NodeId b) {
        if (freq[a] != freq[b])
            return freq[a] > freq[b];
        return a < b;
    };
    if (ids.size() > top_n) {
        std::partial_sort(ids.begin(), ids.begin() + top_n, ids.end(),
                          cmp);
        ids.resize(top_n);
    } else {
        std::sort(ids.begin(), ids.end(), cmp);
    }
    return ids;
}

accel::PhaseResult
GrowSim::run(const accel::SpDeGemmProblem &problem,
             const accel::SimOptions &options)
{
    GROW_ASSERT(problem.lhs != nullptr, "missing LHS");
    const auto &S = *problem.lhs;
    const uint32_t M = S.rows();
    const uint32_t N = problem.rhsCols;

    // Preprocessing artefacts: when none are supplied, fall back to one
    // equal row range per PE (so combination and unpartitioned
    // aggregation still parallelise) with a global HDN list per PE.
    partition::Clustering defaultClustering;
    {
        uint32_t chunks = std::max(1u, config_.numPes);
        defaultClustering.clusterStart.resize(chunks + 1);
        for (uint32_t c = 0; c <= chunks; ++c)
            defaultClustering.clusterStart[c] = static_cast<uint32_t>(
                static_cast<uint64_t>(M) * c / chunks);
    }
    const partition::Clustering *clustering =
        problem.clustering != nullptr ? problem.clustering
                                      : &defaultClustering;

    // Fallback global HDN list ("GROW w/o G.P"): ranked once per
    // problem and shared by every cluster, not copied per cluster.
    std::vector<NodeId> globalHdnList;
    if (problem.hdnLists == nullptr && config_.hdnCacheEnabled &&
        !problem.rhsOnChip)
        globalHdnList = topReferencedColumns(S, config_.hdn.camEntries);

    // Shared DRAM channel; bandwidth scales with PE count (Sec. VII-F).
    mem::DramConfig dramCfg = config_.dram;
    dramCfg.bandwidthGBps *= config_.numPes;
    auto dram = mem::makeDram(options.dramKind, dramCfg);

    // Interleave clusters across PEs.
    std::vector<std::vector<uint32_t>> ownership(config_.numPes);
    for (uint32_t c = 0; c < clustering->numClusters(); ++c)
        ownership[c % config_.numPes].push_back(c);

    sparse::DenseMatrix out;
    if (options.functional) {
        GROW_ASSERT(problem.rhs != nullptr,
                    "functional mode requires RHS values");
        out = sparse::DenseMatrix(M, N);
    }

    RowEngineProblem ep;
    ep.lhs = problem.lhs;
    ep.rhsCols = N;
    ep.rhsValues = problem.rhs;
    ep.rhsOnChip = problem.rhsOnChip;
    ep.clustering = clustering;
    ep.hdnLists = problem.hdnLists;
    ep.globalHdnList = globalHdnList.empty() ? nullptr : &globalHdnList;

    // Engine construction issues the cluster/weight preloads; it runs
    // serially in PE order (deterministic).
    std::vector<std::unique_ptr<RowEngine>> engines;
    engines.reserve(config_.numPes);
    for (uint32_t pe = 0; pe < config_.numPes; ++pe) {
        engines.push_back(std::make_unique<RowEngine>(
            config_, ep, *dram, pe, std::move(ownership[pe]),
            options.functional ? &out : nullptr));
    }

    // Co-simulate: always step the engine with the smallest local
    // clock so shared-DRAM requests issue in (approximately) global
    // order.
    while (true) {
        RowEngine *next = nullptr;
        for (auto &e : engines) {
            if (!e->rowsRemaining())
                continue;
            if (next == nullptr || e->clock() < next->clock())
                next = e.get();
        }
        if (next == nullptr)
            break;
        next->processNextRow();
    }

    // Drain the windows (output writes).
    Cycle end = 0;
    for (auto &e : engines)
        end = std::max(end, e->finalize());

    // --- Assemble the result -----------------------------------------
    accel::PhaseResult res;
    res.engine = name();
    res.phase = problem.phase;
    res.label = problem.label;
    res.cycles = end;
    res.traffic = dram->traffic();

    lastEngineStats_.clear();
    uint64_t iBufAccess = 0, oBufAccess = 0, wBufAccess = 0;
    uint64_t hdnDataAccess = 0, camLookups = 0;
    for (auto &e : engines) {
        const auto &s = e->stats();
        lastEngineStats_.push_back(s);
        res.macOps += s.macOps;
        res.effectualSparseBytes += s.effectualSparseBytes;
        res.fetchedSparseBytes += s.fetchedSparseBytes;
        res.cacheHits += e->cacheHits();
        res.cacheMisses += e->cacheMisses();
        auto words = [](const mem::SramBuffer &b) {
            return (b.bytesRead() + b.bytesWritten()) / kValueBytes;
        };
        iBufAccess += words(e->iBufSparse());
        oBufAccess += words(e->oBufDense());
        wBufAccess += words(e->wBuf());
        hdnDataAccess += words(e->hdnCache().dataArray());
        camLookups += e->hdnCache().camArray().accesses();
    }

    res.activity.macOps = res.macOps;
    res.activity.dramBytes = res.traffic.total();
    res.activity.cycles = res.cycles;
    res.activity.onChipSramBytes =
        config_.onChipSramBytes() * config_.numPes;
    res.activity.sram.push_back(
        {config_.iBufSparseBytes, iBufAccess, false});
    res.activity.sram.push_back(
        {config_.oBufDenseBytes, oBufAccess, false});
    if (problem.rhsOnChip) {
        res.activity.sram.push_back(
            {config_.hdn.capacityBytes, wBufAccess, false});
    } else if (config_.hdnCacheEnabled) {
        res.activity.sram.push_back(
            {config_.hdn.capacityBytes, hdnDataAccess, false});
        res.activity.sram.push_back(
            {static_cast<Bytes>(config_.hdn.camEntries) * kHdnIdBytes,
             camLookups, true});
    }

    if (options.functional) {
        res.output = std::move(out);
        res.hasOutput = true;
    }
    return res;
}

} // namespace grow::core
