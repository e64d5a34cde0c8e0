/**
 * @file
 * Common interface of all cycle-level SpDeGEMM accelerator models.
 *
 * A GCN layer is executed as two consecutive sparse-dense GEMMs
 * (Sec. II-B): combination X*W followed by aggregation A*(XW). Each
 * engine consumes one SpDeGemmProblem per phase and returns a
 * PhaseResult carrying cycles, classified DRAM traffic, cache and
 * bandwidth-utility statistics, activity counts for the energy model,
 * and (optionally) the functional output matrix for verification.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "energy/energy_model.hpp"
#include "mapping/mapping.hpp"
#include "mem/dram.hpp"
#include "partition/hdn_select.hpp"
#include "partition/relabel.hpp"
#include "sim/types.hpp"
#include "sparse/csr_matrix.hpp"
#include "sparse/dense_matrix.hpp"

namespace grow::accel {

/** Which GCN phase a SpDeGEMM belongs to. */
enum class Phase { Combination, Aggregation };

/** Global simulation options shared by all engines. */
struct SimOptions
{
    /** Compute the functional output (verified against the reference). */
    bool functional = false;
    /** DRAM model flavour: "simple" or "banked". */
    std::string dramKind = "simple";
    /**
     * Worker-pool parallelism available to one inference: phase-level
     * fan-out in gcn::executePlan and the per-chip lanes of the
     * scale-out halo step draw at most this many workers from the
     * shared util::WorkPool. Engines' run() never reads it. Results
     * are bit-identical for every value (see DESIGN.md "Parallel
     * co-simulation").
     */
    uint32_t threads = 1;
};

/**
 * One sparse-dense GEMM: C[M x N] = S[M x K] * D[K x N].
 */
struct SpDeGemmProblem
{
    /** Sparse LHS (A for aggregation, X for combination). */
    const sparse::CsrMatrix *lhs = nullptr;
    /** Dense RHS column count N. */
    uint32_t rhsCols = 0;
    /** Dense RHS values (required only when options.functional). */
    const sparse::DenseMatrix *rhs = nullptr;
    Phase phase = Phase::Aggregation;
    /**
     * Model-level provenance of this problem (e.g. "gat/attention-
     * score/layer1", set by the phase-plan lowering). Engines copy it
     * into PhaseResult verbatim and never interpret it.
     */
    std::string label;
    /**
     * Whether the RHS fits on-chip for the whole phase (true for the
     * weight matrix W during combination, Sec. V-B).
     */
    bool rhsOnChip = false;

    /**
     * GROW-specific preprocessing artefacts (ignored by the baselines):
     * cluster layout of the (relabeled) LHS rows and the per-cluster
     * HDN ID lists. Null means "single cluster / global HDN list".
     */
    const partition::Clustering *clustering = nullptr;
    const std::vector<std::vector<NodeId>> *hdnLists = nullptr;
};

/** Outcome of simulating one SpDeGEMM phase. */
struct PhaseResult
{
    std::string engine;
    Phase phase = Phase::Aggregation;
    /** Problem provenance, echoed from SpDeGemmProblem::label. */
    std::string label;

    Cycle cycles = 0;
    uint64_t macOps = 0;

    /** Classified line-granular DRAM transfers. */
    mem::DramTraffic traffic;

    /** Fig. 6 accounting for the sparse LHS fetch. */
    Bytes effectualSparseBytes = 0;
    Bytes fetchedSparseBytes = 0;

    /** RHS-row cache behaviour (GROW / GAMMA only). */
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;

    /** Inputs for the energy model. */
    energy::ActivityCounts activity;

    /** Functional output (valid iff hasOutput). */
    sparse::DenseMatrix output;
    bool hasOutput = false;

    /** Fig. 6 metric: effectual / fetched for the sparse operand. */
    double sparseBandwidthUtil() const;

    /** Sum of all classified DRAM traffic in bytes. */
    Bytes totalTrafficBytes() const { return traffic.total(); }
};

/**
 * Abstract cycle-level SpDeGEMM engine.
 */
class AcceleratorSim
{
  public:
    virtual ~AcceleratorSim() = default;

    /** Engine name for reports ("grow", "gcnax", ...). */
    virtual std::string name() const = 0;

    /** Simulate one SpDeGEMM phase. */
    virtual PhaseResult run(const SpDeGemmProblem &problem,
                            const SimOptions &options) = 0;

    /**
     * The engine's declarative dataflow description (reuse categories,
     * operand formats, buffer levels, lane and concurrency scalars)
     * for both phase classes, derived from the current configuration.
     * Pure data: the phase-plan lowering derives problem fields from
     * it and the analytical cost model derives closed-form
     * cycle/traffic estimates; run() never reads it.
     */
    virtual mapping::EngineMapping mapping() const = 0;

    /**
     * A fresh engine of the identical configuration, carrying no
     * state from past run() calls. The phase-parallel executor clones
     * one engine per concurrent phase so run() never races on engine
     * members; run() is a pure function of (config, problem, options),
     * so a clone's results are bit-identical to the original's.
     */
    virtual std::unique_ptr<AcceleratorSim> clone() const = 0;
};

} // namespace grow::accel
