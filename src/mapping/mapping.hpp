/**
 * @file
 * Declarative dataflow mappings for the SpDeGEMM engines.
 *
 * Every accelerator model publishes one EngineMapping: per phase
 * class, its dense-operand reuse category, operand formats, buffer
 * levels and the lane, miss-concurrency and tiling scalars of its
 * dataflow. A spec holds only what its two consumers read:
 *
 *  - gcn::buildPhasePlan derives every engine-visible problem field
 *    (rhsOnChip, accel::Phase, artefact attachment) from the spec of
 *    the phase class it is lowering, so the lowering contains no
 *    per-engine special cases, and
 *  - costmodel::AnalyticalCostModel turns (MappingSpec, workload
 *    reuse statistics) into closed-form cycle/traffic estimates, the
 *    fast tier of the design-space-exploration driver.
 *
 * The module is a leaf: it depends only on sim/types.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace grow::mapping {

/** Reuse category of the dense RHS operand. */
enum class DenseReuse : uint8_t {
    Resident,    ///< whole operand pinned on-chip for the phase (W)
    PinnedCache, ///< top-degree rows pinned per cluster (GROW HDN)
    LruCache,    ///< demand-filled fully-associative LRU (GAMMA)
    Tiled,       ///< buffer-sized tiles refetched per output trip
    None         ///< every reference refetches (MatRaptor)
};

/** Storage format of an operand as it crosses the DRAM boundary. */
enum class OperandFormat : uint8_t {
    DenseRows,      ///< N values per row, value bytes only
    CompressedFiber ///< value+index per element plus a segment pointer
};

/**
 * Which phase class of the GCN lowering a spec describes. The lowering
 * (not the engine) decides the class per PlannedPhase: combination
 * X*W keeps the weight operand on-chip for the whole phase
 * (Sec. V-B), every adjacency-streaming step does not.
 */
enum class PhaseClass : uint8_t { DenseResident, SparseStreaming };

/** Named on-chip buffer level of a mapping. */
enum class BufferRole : uint8_t {
    SparseInput, ///< streamed sparse LHS staging
    DenseInput,  ///< dense RHS rows / tiles
    Output,      ///< output accumulation
    RowCache,    ///< dense-row reuse cache (HDN / fiber cache)
    MergeQueue   ///< partial-result sorting or merge storage
};

struct BufferLevel
{
    BufferRole role = BufferRole::SparseInput;
    Bytes capacityBytes = 0;
};

/**
 * Dataflow of one engine for one phase class. Purely declarative:
 * engines publish it, the lowering and the analytical cost model
 * consume it; nothing here executes.
 */
struct MappingSpec
{
    PhaseClass phaseClass = PhaseClass::SparseStreaming;
    DenseReuse denseReuse = DenseReuse::None;
    OperandFormat rhsFormat = OperandFormat::DenseRows;
    OperandFormat outFormat = OperandFormat::DenseRows;

    /** On-chip buffer levels backing the mapping. */
    std::vector<BufferLevel> buffers;

    /** MAC lanes one product's output row is spread over. */
    uint32_t spatialLanes = 1;
    /** Outstanding distinct dense-row misses (LDN entries). */
    uint32_t missConcurrency = 1;
    /** Post-MAC merge throughput in elements/cycle (0 = accumulate
     *  in place, no merge network). */
    uint32_t reductionLanes = 0;
    /** Entries of the pinned-row ID CAM bounding the pinned set. */
    uint32_t pinnedIdEntries = 0;
    /** Pipeline bubble per non-empty sparse tile (tiled dataflows). */
    Cycle tileOverheadCycles = 0;
    /** Sparse-stream DMA chunk granularity (0 = line granular). */
    Bytes streamChunkBytes = 0;
    /** Tiling-search bounds (DenseReuse::Tiled only). */
    uint32_t minTileK = 0;
    uint32_t minTileM = 0;

    /** Whether the dense operand is on-chip for the whole phase. */
    bool rhsResident() const
    {
        return phaseClass == PhaseClass::DenseResident;
    }

    /** Capacity of the first buffer with @p role (0 when absent). */
    Bytes bufferCapacity(BufferRole role) const;
};

/**
 * The complete dataflow description one engine publishes: one spec per
 * phase class plus the platform scalars the roofline needs.
 */
struct EngineMapping
{
    MappingSpec combination;
    MappingSpec aggregation;

    /** Per-PE DRAM bandwidth in bytes per accelerator cycle. */
    double dramBytesPerCycle = 128.0;
    /** Idle DRAM access latency in cycles. */
    Cycle dramAccessLatency = 100;
    /** Processing elements sharing the (PE-scaled) channel. */
    uint32_t numPes = 1;

    /** Spec for a phase class. */
    const MappingSpec &spec(PhaseClass c) const
    {
        return c == PhaseClass::DenseResident ? combination : aggregation;
    }
};

/**
 * Asserts the structural invariants of @p spec: non-zero lane and
 * concurrency counts, and a phase class consistent with the reuse
 * category (a DenseResident phase never carries a pinned reuse cache).
 */
void validate(const MappingSpec &spec);

/** validate() both specs plus the per-phase-class invariants. */
void validate(const EngineMapping &mapping);

/**
 * The engine-neutral lowering contract: combination is DenseResident,
 * adjacency steps are SparseStreaming. buildPhasePlan falls back to
 * this when RunOptions carries no engine mapping (plans built
 * without an engine in hand, e.g. plan-shape tests); the problems it
 * produces are field-identical to every published engine mapping's.
 */
const EngineMapping &genericMapping();

} // namespace grow::mapping
