#include "accel/matraptor.hpp"

#include <algorithm>
#include <utility>

#include "util/bitutil.hpp"
#include "util/logging.hpp"

namespace grow::accel {

MatRaptorSim::MatRaptorSim(MatRaptorConfig config) : config_(std::move(config))
{
    GROW_ASSERT(config_.numMacs > 0 && config_.mergeLanes > 0,
                "invalid MatRaptor configuration");
}

mapping::EngineMapping
MatRaptorSim::mapping() const
{
    using namespace grow::mapping;
    EngineMapping em;
    em.dramBytesPerCycle = config_.dram.bytesPerCycle();
    em.dramAccessLatency = config_.dram.accessLatency;

    // Row-wise product without any dense-operand reuse: each LHS
    // non-zero streams its full RHS fiber (compressed, the format tax
    // of a sparse-sparse engine) and partials drain through sorting
    // queues.
    MappingSpec s;
    s.rhsFormat = OperandFormat::CompressedFiber;
    s.outFormat = OperandFormat::CompressedFiber;
    s.denseReuse = DenseReuse::None;
    s.spatialLanes = config_.numMacs;
    s.reductionLanes = config_.mergeLanes;
    s.buffers = {{BufferRole::MergeQueue, config_.queueBufBytes}};

    em.combination = s;
    em.combination.phaseClass = PhaseClass::DenseResident;
    em.aggregation = std::move(s);
    em.aggregation.phaseClass = PhaseClass::SparseStreaming;
    mapping::validate(em);
    return em;
}

PhaseResult
MatRaptorSim::run(const SpDeGemmProblem &problem, const SimOptions &options)
{
    GROW_ASSERT(problem.lhs != nullptr, "missing LHS");
    const auto &S = *problem.lhs;
    const uint32_t M = S.rows();
    const uint32_t N = problem.rhsCols;

    PhaseResult res;
    res.engine = name();
    res.phase = problem.phase;
    res.label = problem.label;

    // CSR fiber of one dense RHS row: N values + N column indices + one
    // segment pointer. This is the format tax of a sparse-sparse engine
    // consuming a dense operand.
    const Bytes fiberBytes =
        static_cast<Bytes>(N) * (kValueBytes + kIndexBytes) + kPtrBytes;

    // --- DRAM traffic ------------------------------------------------
    Bytes sparseStream =
        roundUp(S.nnz() * kValueBytes, kDramLineBytes) +
        roundUp(S.nnz() * kIndexBytes, kDramLineBytes) +
        roundUp(static_cast<Bytes>(M) * kPtrBytes, kDramLineBytes);
    // Every non-zero re-fetches its RHS fiber: no reuse cache.
    Bytes rhsFetch = S.nnz() * roundUp(fiberBytes, kDramLineBytes);
    // Output rows leave in compressed form as well.
    Bytes outputWrite = roundUp(
        static_cast<Bytes>(M) * N * (kValueBytes + kIndexBytes) +
            static_cast<Bytes>(M) * kPtrBytes,
        kDramLineBytes);

    using mem::TrafficClass;
    res.traffic.readBytes[static_cast<size_t>(
        TrafficClass::SparseStream)] = sparseStream;
    res.traffic.readBytes[static_cast<size_t>(TrafficClass::DenseRow)] =
        rhsFetch;
    res.traffic.readBytes[static_cast<size_t>(TrafficClass::Metadata)] =
        S.nnz() * kPtrBytes; // fiber pointer lookups
    res.traffic.writeBytes[static_cast<size_t>(
        TrafficClass::OutputWrite)] = outputWrite;

    res.effectualSparseBytes = S.nnz() * (kValueBytes + kIndexBytes);
    res.fetchedSparseBytes = sparseStream;

    // --- Timing ------------------------------------------------------
    res.macOps = S.nnz() * N;
    Cycle multiply = S.nnz() * ceilDiv(N, config_.numMacs);
    // Each produced partial element passes through a sorting queue.
    Cycle merge = ceilDiv(res.macOps, config_.mergeLanes);
    Cycle compute = multiply + merge;
    Cycle memory = static_cast<Cycle>(
        static_cast<double>(res.traffic.total()) /
        config_.dram.bytesPerCycle());
    res.cycles = std::max(compute, memory) + config_.dram.accessLatency;

    // --- Energy activity ---------------------------------------------
    res.activity.macOps = res.macOps;
    res.activity.dramBytes = res.traffic.total();
    res.activity.cycles = res.cycles;
    res.activity.onChipSramBytes = config_.queueBufBytes;
    // Queue SRAM touched once per produced element (insert) plus once
    // per drained element.
    res.activity.sram.push_back(
        {config_.queueBufBytes, res.macOps * 2, false});

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
