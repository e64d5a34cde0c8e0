#include "accel/gcnax.hpp"

#include <algorithm>
#include <utility>

#include "util/bitutil.hpp"
#include "util/logging.hpp"

namespace grow::accel {

namespace {

/** Largest power of two <= x (x >= 1). */
uint32_t
pow2Floor(uint32_t x)
{
    uint32_t p = 1;
    while (p * 2 <= x)
        p *= 2;
    return p;
}

} // namespace

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

Bytes
GcnaxSim::tilingTraffic(const sparse::TileGridStats &stats, uint32_t tk,
                        uint32_t tn, uint32_t rows, uint32_t cols,
                        uint32_t rhs_cols) const
{
    (void)rows;
    const uint32_t trip_n = static_cast<uint32_t>(ceilDiv(rhs_cols, tn));
    Bytes sparseFetch = 0;
    Bytes denseFetch = 0;
    for (uint32_t m = 0; m < stats.rowTiles(); ++m) {
        for (uint32_t k = 0; k < stats.colTiles(); ++k) {
            uint64_t nnz = stats.nnzAt(m, k);
            if (nnz == 0)
                continue;
            sparseFetch += sparse::TileFetchModel::fetchedBytes(nnz);
            // Dense tile D[k, n]: kExtent rows of the RHS.
            uint64_t kExtent =
                std::min<uint64_t>(tk, cols - static_cast<uint64_t>(k) * tk);
            Bytes tile =
                tn * kValueBytes >= kDramLineBytes || tn == rhs_cols
                    ? roundUp(kExtent * tn * kValueBytes, kDramLineBytes)
                    : kExtent * roundUp(tn * kValueBytes, kDramLineBytes);
            denseFetch += tile;
        }
    }
    Bytes output = roundUp(static_cast<Bytes>(stats.rowTiles()) == 0
                               ? 0
                               : static_cast<Bytes>(rows) * rhs_cols *
                                     kValueBytes,
                           kDramLineBytes);
    return sparseFetch * trip_n + denseFetch * trip_n + output;
}

GcnaxTiling
GcnaxSim::chooseTiling(const sparse::CsrMatrix &lhs,
                       uint32_t rhs_cols) const
{
    const uint32_t M = lhs.rows();
    const uint32_t K = lhs.cols();
    const uint32_t N = rhs_cols;

    // Dense-tile width: as wide as the buffer permits at minimum Tk --
    // GCN output widths are small (Table I), so Tn == N is the norm.
    uint32_t tn = std::min<uint32_t>(
        N, std::max<uint32_t>(
               1, static_cast<uint32_t>(config_.denseBufBytes /
                                        (config_.minTileK * kValueBytes))));

    GcnaxTiling best;
    for (uint32_t tk = config_.minTileK;; tk *= 2) {
        if (static_cast<Bytes>(tk) * tn * kValueBytes >
            config_.denseBufBytes)
            break;
        // Worst-case (fully dense) sparse-tile provisioning, Sec. IV-B.
        uint64_t tmCap = config_.sparseBufBytes /
                         (static_cast<uint64_t>(tk) *
                          (kValueBytes + kIndexBytes));
        uint64_t tmOut = config_.outBufBytes /
                         (static_cast<uint64_t>(tn) * kValueBytes);
        uint32_t tm = static_cast<uint32_t>(
            std::min<uint64_t>({tmCap, tmOut, M == 0 ? 1 : M}));
        if (tm < config_.minTileM) {
            if (tk == config_.minTileK && best.tm == 0)
                tm = config_.minTileM; // smallest legal fallback
            else
                break;
        }
        tm = pow2Floor(tm);

        auto stats = sparse::TileGridStats::compute(
            lhs, sparse::TileShape{tm, tk});
        Bytes traffic = tilingTraffic(stats, tk, tn, M, K, N);
        if (best.tm == 0 || traffic < best.estimatedTraffic) {
            best = GcnaxTiling{tm, tk, tn, traffic};
        }
        if (tk >= K)
            break;
    }
    GROW_ASSERT(best.tm > 0, "no feasible GCNAX tiling");
    return best;
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

    GcnaxTiling t = chooseTiling(S, N);
    auto stats =
        sparse::TileGridStats::compute(S, sparse::TileShape{t.tm, t.tk});
    const uint32_t trip_n = static_cast<uint32_t>(ceilDiv(N, t.tn));

    // --- DRAM traffic ------------------------------------------------
    Bytes sparseFetch = 0;
    Bytes denseFetch = 0;
    for (uint32_t m = 0; m < stats.rowTiles(); ++m) {
        for (uint32_t k = 0; k < stats.colTiles(); ++k) {
            uint64_t nnz = stats.nnzAt(m, k);
            if (nnz == 0)
                continue;
            sparseFetch += sparse::TileFetchModel::fetchedBytes(nnz);
            uint64_t kExtent = std::min<uint64_t>(
                t.tk, K - static_cast<uint64_t>(k) * t.tk);
            denseFetch +=
                t.tn * kValueBytes >= kDramLineBytes || t.tn == N
                    ? roundUp(kExtent * t.tn * kValueBytes, kDramLineBytes)
                    : kExtent * roundUp(t.tn * kValueBytes, kDramLineBytes);
        }
    }
    sparseFetch *= trip_n;
    denseFetch *= trip_n;
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
                    stats.nonEmptyTiles() * config_.tileOverheadCycles *
                        trip_n;
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
