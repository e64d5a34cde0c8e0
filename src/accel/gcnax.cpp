#include "accel/gcnax.hpp"

#include <algorithm>
#include <utility>

#include "util/bitutil.hpp"
#include "util/logging.hpp"

namespace grow::accel {

GcnaxSim::GcnaxSim(GcnaxConfig config) : config_(std::move(config))
{
    GROW_ASSERT(config_.numMacs > 0, "GCNAX needs at least one MAC");
}

mapping::EngineMapping
GcnaxSim::mapping() const
{
    using namespace grow::mapping;
    EngineMapping em;
    em.dramBytesPerCycle = config_.dram.bytesPerCycle();
    em.dramAccessLatency = config_.dram.accessLatency;

    // Outer-product loop fusion (Fig. 4): the output tile stays
    // resident across the K sweep; tile extents come from the runtime
    // traffic search, bounded below by the hardware minima.
    MappingSpec s;
    s.rhsFormat = OperandFormat::DenseRows;
    s.outFormat = OperandFormat::DenseRows;
    s.denseReuse = DenseReuse::Tiled;
    s.spatialLanes = config_.numMacs;
    s.tileOverheadCycles = config_.tileOverheadCycles;
    s.minTileK = config_.minTileK;
    s.minTileM = config_.minTileM;
    s.buffers = {{BufferRole::SparseInput, config_.sparseBufBytes},
                 {BufferRole::DenseInput, config_.denseBufBytes},
                 {BufferRole::Output, config_.outBufBytes}};

    // GCNAX runs combination with the same tiled dataflow -- it does
    // not pin W on-chip, so both phase classes share one spec.
    em.combination = s;
    em.combination.phaseClass = PhaseClass::DenseResident;
    em.aggregation = std::move(s);
    em.aggregation.phaseClass = PhaseClass::SparseStreaming;
    mapping::validate(em);
    return em;
}

GcnaxTiling
GcnaxSim::chooseTiling(const sparse::CsrMatrix &lhs,
                       uint32_t rhs_cols) const
{
    return sparse::chooseTiling(
        lhs, rhs_cols,
        sparse::TilingLimits{config_.sparseBufBytes, config_.denseBufBytes,
                             config_.outBufBytes, config_.minTileK,
                             config_.minTileM});
}

PhaseResult
GcnaxSim::run(const SpDeGemmProblem &problem, const SimOptions &options)
{
    GROW_ASSERT(problem.lhs != nullptr, "missing LHS");
    const auto &S = *problem.lhs;
    const uint32_t M = S.rows();
    const uint32_t K = S.cols();
    const uint32_t N = problem.rhsCols;

    PhaseResult res;
    res.engine = name();
    res.phase = problem.phase;
    res.label = problem.label;

    // The search's census of the chosen grid is the traffic model.
    const GcnaxTiling t = chooseTiling(S, N);
    const uint32_t trip_n = static_cast<uint32_t>(ceilDiv(N, t.tn));

    // --- DRAM traffic ------------------------------------------------
    const Bytes sparseFetch = t.sparseFetch * trip_n;
    const Bytes denseFetch = t.denseFetch * trip_n;
    Bytes outputWrite =
        roundUp(static_cast<Bytes>(M) * N * kValueBytes, kDramLineBytes);

    using mem::TrafficClass;
    res.traffic.readBytes[static_cast<size_t>(
        TrafficClass::SparseStream)] = sparseFetch;
    res.traffic.readBytes[static_cast<size_t>(TrafficClass::DenseRow)] =
        denseFetch;
    res.traffic.writeBytes[static_cast<size_t>(
        TrafficClass::OutputWrite)] = outputWrite;

    res.effectualSparseBytes =
        S.nnz() * (kValueBytes + kIndexBytes) * trip_n;
    res.fetchedSparseBytes = sparseFetch;

    // --- Timing ------------------------------------------------------
    res.macOps = S.nnz() * N;
    Cycle compute = S.nnz() * ceilDiv(t.tn, config_.numMacs) * trip_n +
                    t.nonEmptyTiles * config_.tileOverheadCycles * trip_n;
    double bpc = config_.dram.bytesPerCycle();
    Cycle memory = static_cast<Cycle>(
        static_cast<double>(res.traffic.total()) / bpc);
    // Double-buffered tiles overlap fetch and compute; the slower side
    // dominates, plus the initial fill latency.
    res.cycles = std::max(compute, memory) + config_.dram.accessLatency;

    // --- Energy activity ---------------------------------------------
    res.activity.macOps = res.macOps;
    res.activity.dramBytes = res.traffic.total();
    res.activity.cycles = res.cycles;
    res.activity.onChipSramBytes = config_.sparseBufBytes +
                                   config_.denseBufBytes +
                                   config_.outBufBytes;
    res.activity.sram.push_back(
        {config_.sparseBufBytes, S.nnz() * 2 * trip_n, false});
    res.activity.sram.push_back(
        {config_.denseBufBytes, denseFetch / kValueBytes + res.macOps,
         false});
    res.activity.sram.push_back(
        {config_.outBufBytes,
         res.macOps + static_cast<uint64_t>(M) * N, false});

    // --- Functional output -------------------------------------------
    if (options.functional) {
        GROW_ASSERT(problem.rhs != nullptr,
                    "functional mode requires RHS values");
        GROW_ASSERT(problem.rhs->rows() == K && problem.rhs->cols() == N,
                    "RHS shape mismatch");
        res.output = sparse::DenseMatrix(M, N);
        uint64_t visited = 0;
        for (uint32_t r = 0; r < M; ++r) {
            auto cols = S.rowCols(r);
            auto vals = S.rowVals(r);
            double *out = res.output.row(r);
            for (size_t i = 0; i < cols.size(); ++i) {
                const double *rhs = problem.rhs->row(cols[i]);
                for (uint32_t j = 0; j < N; ++j)
                    out[j] += vals[i] * rhs[j];
                ++visited;
            }
        }
        GROW_ASSERT(visited == S.nnz(), "tile sweep missed non-zeros");
        res.hasOutput = true;
    }
    return res;
}

} // namespace grow::accel
