#include "accel/gamma.hpp"

#include <algorithm>
#include <utility>

#include "util/bitutil.hpp"
#include "util/logging.hpp"

namespace grow::accel {

GammaSim::GammaSim(GammaConfig config) : config_(std::move(config))
{
    GROW_ASSERT(config_.numMacs > 0, "invalid GAMMA configuration");
}

mapping::EngineMapping
GammaSim::mapping() const
{
    using namespace grow::mapping;
    EngineMapping em;
    em.dramBytesPerCycle = config_.dram.bytesPerCycle();
    em.dramAccessLatency = config_.dram.accessLatency;

    // Gustavson row-wise product like GROW, but generic sparse-sparse:
    // fibers are demand-cached under LRU and partials pass a merge
    // network instead of accumulating in a dense output row.
    MappingSpec s;
    s.rhsFormat = OperandFormat::CompressedFiber;
    s.outFormat = OperandFormat::CompressedFiber;
    s.denseReuse = DenseReuse::LruCache;
    s.spatialLanes = config_.numMacs;
    s.reductionLanes = config_.mergeRadix;
    s.buffers = {{BufferRole::RowCache, config_.fiberCacheBytes}};

    // The FiberCache sim runs for combination too (no W residency).
    em.combination = s;
    em.combination.phaseClass = PhaseClass::DenseResident;
    em.aggregation = std::move(s);
    em.aggregation.phaseClass = PhaseClass::SparseStreaming;
    mapping::validate(em);
    return em;
}

PhaseResult
GammaSim::run(const SpDeGemmProblem &problem, const SimOptions &options)
{
    GROW_ASSERT(problem.lhs != nullptr, "missing LHS");
    const auto &S = *problem.lhs;
    const uint32_t M = S.rows();
    const uint32_t N = problem.rhsCols;

    PhaseResult res;
    res.engine = name();
    res.phase = problem.phase;
    res.label = problem.label;

    const Bytes fiberBytes =
        static_cast<Bytes>(N) * (kValueBytes + kIndexBytes) + kPtrBytes;
    const Bytes fiberFetch = roundUp(fiberBytes, kDramLineBytes);

    // FiberCache simulation over the actual access stream (row-major
    // schedule, demand fill, LRU replacement).
    mem::LruRowCache cache(config_.fiberCacheBytes, fiberBytes);
    for (uint32_t r = 0; r < M; ++r) {
        for (NodeId k : S.rowCols(r)) {
            if (!cache.lookup(k))
                cache.insert(k);
        }
    }
    res.cacheHits = cache.hits();
    res.cacheMisses = cache.misses();

    // --- DRAM traffic ------------------------------------------------
    Bytes sparseStream =
        roundUp(S.nnz() * kValueBytes, kDramLineBytes) +
        roundUp(S.nnz() * kIndexBytes, kDramLineBytes) +
        roundUp(static_cast<Bytes>(M) * kPtrBytes, kDramLineBytes);
    Bytes rhsFetch = res.cacheMisses * fiberFetch;
    Bytes outputWrite = roundUp(
        static_cast<Bytes>(M) * N * (kValueBytes + kIndexBytes) +
            static_cast<Bytes>(M) * kPtrBytes,
        kDramLineBytes);

    using mem::TrafficClass;
    res.traffic.readBytes[static_cast<size_t>(
        TrafficClass::SparseStream)] = sparseStream;
    res.traffic.readBytes[static_cast<size_t>(TrafficClass::DenseRow)] =
        rhsFetch;
    res.traffic.writeBytes[static_cast<size_t>(
        TrafficClass::OutputWrite)] = outputWrite;

    res.effectualSparseBytes = S.nnz() * (kValueBytes + kIndexBytes);
    res.fetchedSparseBytes = sparseStream;

    // --- Timing ------------------------------------------------------
    res.macOps = S.nnz() * N;
    Cycle multiply = S.nnz() * ceilDiv(N, config_.numMacs);
    // High-radix merge absorbs most partials; residual cost per element.
    Cycle merge = ceilDiv(res.macOps, config_.mergeRadix);
    Cycle compute = multiply + merge;
    Cycle memory = static_cast<Cycle>(
        static_cast<double>(res.traffic.total()) /
        config_.dram.bytesPerCycle());
    res.cycles = std::max(compute, memory) + config_.dram.accessLatency;

    // --- Energy activity ---------------------------------------------
    res.activity.macOps = res.macOps;
    res.activity.dramBytes = res.traffic.total();
    res.activity.cycles = res.cycles;
    res.activity.onChipSramBytes = config_.fiberCacheBytes;
    res.activity.sram.push_back(
        {config_.fiberCacheBytes,
         res.cacheHits * (fiberBytes / kValueBytes) +
             res.cacheMisses * (fiberBytes / kValueBytes),
         false});

    // --- Functional output -------------------------------------------
    if (options.functional) {
        GROW_ASSERT(problem.rhs != nullptr,
                    "functional mode requires RHS values");
        res.output = sparse::DenseMatrix(M, N);
        for (uint32_t r = 0; r < M; ++r) {
            auto cols = S.rowCols(r);
            auto vals = S.rowVals(r);
            double *out = res.output.row(r);
            for (size_t i = 0; i < cols.size(); ++i) {
                const double *rhs = problem.rhs->row(cols[i]);
                for (uint32_t j = 0; j < N; ++j)
                    out[j] += vals[i] * rhs[j];
            }
        }
        res.hasOutput = true;
    }
    return res;
}

} // namespace grow::accel
