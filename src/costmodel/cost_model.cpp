#include "costmodel/cost_model.hpp"

#include <algorithm>

#include "sparse/tiling.hpp"
#include "util/bitutil.hpp"
#include "util/logging.hpp"

namespace grow::costmodel {

namespace {

using mapping::BufferRole;
using mapping::DenseReuse;
using mapping::EngineMapping;
using mapping::MappingSpec;
using mapping::OperandFormat;

Bytes
lineUp(Bytes b)
{
    return roundUp(b, kDramLineBytes);
}

/** CSR fiber of one dense RHS row in compressed form. */
Bytes
fiberBytes(uint32_t n)
{
    return static_cast<Bytes>(n) * (kValueBytes + kIndexBytes) + kPtrBytes;
}

/**
 * DRAM bytes of a stream of @p extent payload bytes issued in DMA
 * chunks of @p chunk bytes, each request line-rounded (the row
 * engine's ensureStreamed); chunk == 0 is plain line-granular.
 */
Bytes
chunkedStreamBytes(Bytes extent, Bytes chunk)
{
    if (chunk == 0)
        return lineUp(extent);
    const Bytes full = extent / chunk;
    const Bytes rest = extent % chunk;
    return full * lineUp(chunk) + (rest != 0 ? lineUp(rest) : 0);
}

/**
 * Non-zeros of the most loaded PE under the engine's cluster
 * interleaving: clusters round-robin over PEs when the phase carries a
 * clustering, else the engine's fallback of numPes equal row chunks.
 */
uint64_t
maxPeNnz(const OperandStats &s, uint32_t num_pes)
{
    if (num_pes <= 1)
        return s.nnz;
    if (!s.clusterNnz.empty()) {
        std::vector<uint64_t> pe(num_pes, 0);
        for (size_t c = 0; c < s.clusterNnz.size(); ++c)
            pe[c % num_pes] += s.clusterNnz[c];
        return *std::max_element(pe.begin(), pe.end());
    }
    const auto &ptr = s.lhs->rowPtr();
    uint64_t best = 0;
    for (uint32_t c = 0; c < num_pes; ++c) {
        const uint64_t lo = s.rows * c / num_pes;
        const uint64_t hi = s.rows * (c + 1) / num_pes;
        best = std::max(best, ptr[hi] - ptr[lo]);
    }
    return best;
}

/**
 * The tiled dataflow's runtime tiling search (the same
 * sparse::chooseTiling GCNAX runs), bounded by the mapping's buffers
 * and tile minima, then the simulator's own compute formula -- the
 * estimate matches the simulator exactly by construction.
 */
PhaseEstimate
estimateTiled(const MappingSpec &spec, const EngineMapping &em,
              const OperandStats &s, uint32_t n)
{
    const sparse::Tiling t = sparse::chooseTiling(
        *s.lhs, n,
        sparse::TilingLimits{spec.bufferCapacity(BufferRole::SparseInput),
                             spec.bufferCapacity(BufferRole::DenseInput),
                             spec.bufferCapacity(BufferRole::Output),
                             std::max<uint32_t>(1, spec.minTileK),
                             std::max<uint32_t>(1, spec.minTileM)});
    const uint64_t trip = ceilDiv(n, t.tn);
    PhaseEstimate e;
    e.trafficBytes = t.estimatedTraffic;
    e.macOps = s.nnz * n;
    e.computeBound =
        s.nnz * ceilDiv(t.tn, spec.spatialLanes) * trip +
        t.nonEmptyTiles * spec.tileOverheadCycles * trip;
    e.memoryBound = static_cast<Cycle>(
        static_cast<double>(e.trafficBytes) /
        (em.dramBytesPerCycle * em.numPes));
    e.cycles = std::max(e.computeBound, e.memoryBound) +
               em.dramAccessLatency;
    return e;
}

PhaseEstimate
estimatePhase(const MappingSpec &spec, const EngineMapping &em,
              const OperandStats &s, uint32_t n)
{
    if (spec.denseReuse == DenseReuse::Tiled)
        return estimateTiled(spec, em, s, n);

    PhaseEstimate e;
    const double bpcTotal = em.dramBytesPerCycle * em.numPes;
    const Bytes rowBytes = static_cast<Bytes>(n) * kValueBytes;
    const Bytes rhsRowSize = spec.rhsFormat == OperandFormat::DenseRows
                                 ? rowBytes
                                 : fiberBytes(n);
    // Chunked DMA streaming marks the event-driven row engine; the
    // closed-form engines read each stream component at line
    // granularity in one go.
    const bool rowEngine = spec.streamChunkBytes != 0;

    // --- DRAM traffic -------------------------------------------------
    const Bytes sparseStream =
        rowEngine
            ? chunkedStreamBytes(s.csrStreamBytes, spec.streamChunkBytes)
            : lineUp(s.nnz * kValueBytes) + lineUp(s.nnz * kIndexBytes) +
                  lineUp(s.rows * kPtrBytes);

    Bytes denseFetch = 0;
    Bytes preload = 0;
    Bytes metadata = 0;
    uint64_t hits = 0;
    uint64_t missCount = 0; ///< dense-row DRAM fetches (not all are
                            ///< reported cache misses)
    switch (spec.denseReuse) {
      case DenseReuse::Resident:
        // Whole dense operand preloaded per PE before compute.
        preload = static_cast<Bytes>(em.numPes) *
                  lineUp(s.cols * rowBytes);
        break;
      case DenseReuse::PinnedCache: {
        const Bytes cap = spec.bufferCapacity(BufferRole::RowCache);
        const uint64_t resident = std::min<uint64_t>(
            rowBytes ? cap / rowBytes : 0, spec.pinnedIdEntries);
        hits = s.pinnedHits(resident);
        missCount = s.nnz - hits;
        denseFetch = missCount * lineUp(rowBytes);
        e.cacheHits = hits;
        e.cacheMisses = missCount;
        if (!s.clusterListLens.empty()) {
            for (uint32_t len : s.clusterListLens) {
                const uint64_t pinned = std::min<uint64_t>(len, resident);
                preload += lineUp(static_cast<Bytes>(len) * kHdnIdBytes +
                                  pinned * rowBytes);
            }
        } else {
            // Fallback global list, preloaded once per PE per cluster
            // chunk (one chunk per PE in the default layout).
            const uint64_t len =
                std::min<uint64_t>(spec.pinnedIdEntries, s.cols);
            const uint64_t pinned = std::min<uint64_t>(len, resident);
            preload = static_cast<Bytes>(em.numPes) *
                      lineUp(len * kHdnIdBytes + pinned * rowBytes);
        }
        break;
      }
      case DenseReuse::LruCache: {
        const Bytes cap = spec.bufferCapacity(BufferRole::RowCache);
        const uint64_t entries =
            std::max<uint64_t>(1, rhsRowSize ? cap / rhsRowSize : 1);
        hits = s.lruHits(entries);
        missCount = s.nnz - hits;
        denseFetch = missCount * lineUp(rhsRowSize);
        e.cacheHits = hits;
        e.cacheMisses = missCount;
        break;
      }
      case DenseReuse::None:
        missCount = s.nnz;
        denseFetch = missCount * lineUp(rhsRowSize);
        if (spec.rhsFormat == OperandFormat::CompressedFiber)
            metadata = s.nnz * kPtrBytes; // fiber pointer lookups
        break;
      case DenseReuse::Tiled:
        break; // handled above
    }

    const Bytes output =
        spec.outFormat == OperandFormat::CompressedFiber
            ? lineUp(s.rows * static_cast<Bytes>(n) *
                         (kValueBytes + kIndexBytes) +
                     s.rows * kPtrBytes)
            : (rowEngine ? s.rows * lineUp(rowBytes)
                         : lineUp(s.rows * rowBytes));

    e.trafficBytes = sparseStream + denseFetch + preload + metadata + output;
    e.macOps = s.nnz * n;

    // --- Roofline -----------------------------------------------------
    if (rowEngine) {
        // Control (one CAM lookup per non-zero) and the MAC pipeline
        // (ceil(N/lanes) per product) overlap; the most loaded PE
        // bounds the phase.
        const Cycle dur =
            std::max<Cycle>(1, ceilDiv(n, spec.spatialLanes));
        e.computeBound = maxPeNnz(s, em.numPes) * dur;
    } else {
        const Cycle multiply = s.nnz * ceilDiv(n, spec.spatialLanes);
        const Cycle merge =
            spec.reductionLanes != 0
                ? ceilDiv(e.macOps, spec.reductionLanes)
                : 0;
        e.computeBound = multiply + merge;
    }
    e.memoryBound = static_cast<Cycle>(
        static_cast<double>(e.trafficBytes) / bpcTotal);
    if (rowEngine && missCount != 0) {
        // Miss fills bounded by LDN concurrency across the PEs.
        const uint64_t conc = std::max<uint64_t>(
            1, static_cast<uint64_t>(spec.missConcurrency) * em.numPes);
        e.missBound = static_cast<Cycle>(
            missCount * static_cast<uint64_t>(em.dramAccessLatency) /
            conc);
    }

    if (rowEngine && spec.denseReuse == DenseReuse::Resident) {
        // The per-PE weight preloads serialise on the shared channel
        // before any row processing starts.
        const Cycle preloadCycles = static_cast<Cycle>(
            static_cast<double>(preload) / bpcTotal);
        const Cycle rest = static_cast<Cycle>(
            static_cast<double>(e.trafficBytes - preload) / bpcTotal);
        e.cycles = preloadCycles + std::max(e.computeBound, rest) +
                   em.dramAccessLatency;
    } else {
        e.cycles =
            std::max({e.computeBound, e.memoryBound, e.missBound}) +
            em.dramAccessLatency;
    }
    return e;
}

} // namespace

AnalyticalCostModel::AnalyticalCostModel(const gcn::PhasePlan &plan)
    : plan_(&plan)
{
    for (const auto &ph : plan) {
        // Halo-exchange markers move bytes over links, not SpDeGEMM
        // work; costmodel::estimateLinkTraffic prices them.
        if (ph.op == gcn::PhaseOp::HaloExchange)
            continue;
        GROW_ASSERT(ph.problem.lhs != nullptr,
                    "phase plan entry without LHS");
        bool known = false;
        for (const auto &st : stats_) {
            if (st->lhs == ph.problem.lhs &&
                st->clustering == ph.problem.clustering &&
                st->hdnLists == ph.problem.hdnLists) {
                known = true;
                break;
            }
        }
        if (!known)
            stats_.push_back(std::make_unique<OperandStats>(
                OperandStats::compute(*ph.problem.lhs,
                                      ph.problem.clustering,
                                      ph.problem.hdnLists)));
    }
}

const OperandStats &
AnalyticalCostModel::statsFor(const gcn::PlannedPhase &phase) const
{
    for (const auto &st : stats_) {
        if (st->lhs == phase.problem.lhs &&
            st->clustering == phase.problem.clustering &&
            st->hdnLists == phase.problem.hdnLists)
            return *st;
    }
    panic("phase operand not profiled by this cost model");
}

PlanEstimate
AnalyticalCostModel::estimate(const mapping::EngineMapping &em) const
{
    PlanEstimate pe;
    pe.phases.reserve(plan_->size());
    for (const auto &ph : *plan_) {
        if (ph.op == gcn::PhaseOp::HaloExchange)
            continue;
        // The lowering set rhsOnChip from this phase's class.
        const MappingSpec &spec =
            ph.problem.rhsOnChip ? em.combination : em.aggregation;
        PhaseEstimate e =
            estimatePhase(spec, em, statsFor(ph), ph.problem.rhsCols);
        e.layer = ph.layer;
        e.op = ph.op;
        e.label = ph.problem.label;

        pe.add(e.op, e.cycles, e.macOps, e.cacheHits, e.cacheMisses);
        pe.trafficBytes += e.trafficBytes;
        pe.phases.push_back(std::move(e));
    }
    return pe;
}

} // namespace grow::costmodel
