/**
 * @file
 * End-to-end GNN inference runner.
 *
 * An N-layer model (Table I generalised) is lowered into a declarative
 * *phase plan*: an ordered list of SpDeGEMM problems whose per-layer
 * op sequence depends on the workload's ModelKind (vanilla GCN is
 * combination then aggregation, the A*(X*W) order of Sec. II-B; the
 * Sec. VIII model zoo adds attention-score and MLP steps -- see
 * src/gcn/model.hpp). A generic executor runs any plan on any
 * AcceleratorSim, threading functional combination outputs into the
 * downstream steps that consume them, and aggregates cycles,
 * classified DRAM traffic, cache statistics and Fig. 22-style energy.
 * See DESIGN.md for the layer-plan abstraction and model lowering.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "energy/energy_model.hpp"
#include "gcn/model.hpp"
#include "gcn/workload.hpp"
#include "mapping/mapping.hpp"

namespace grow::gcn {

/** Options of one inference run. */
struct RunOptions
{
    accel::SimOptions sim;
    energy::EnergyParams energy;
    /**
     * Feed GROW's preprocessing artefacts (relabeled adjacency,
     * clustering, HDN lists) to the engine. Baselines ignore the
     * artefacts but still see the original-layout operands.
     */
    bool usePartitioning = false;
    /**
     * Number of chips the inference is sharded across. 1 lowers the
     * classic single-chip plan; > 1 makes buildPhasePlan insert one
     * HaloExchange step per layer ahead of the adjacency-streaming
     * steps, which only the scale-out runner (scaleout::runInference)
     * can execute -- the single-chip executePlan rejects such plans.
     */
    uint32_t chips = 1;
    /**
     * Dataflow mapping of the engine the plan will execute on.
     * runInference fills it from AcceleratorSim::mapping(); a plan
     * built without an engine in hand falls back to
     * mapping::genericMapping(), whose lowering-visible fields are
     * identical to every published engine mapping's.
     */
    std::shared_ptr<const mapping::EngineMapping> mapping;
};

/**
 * One step of a lowered inference: a fully described SpDeGEMM plus its
 * provenance in the model (layer index, model kind, model-level op).
 * For a functional step whose dense RHS is produced at execution time
 * by the layer's combination step (aggregation, attention score),
 * problem.rhs stays null in the plan.
 */
struct PlannedPhase
{
    uint32_t layer = 0;
    ModelKind model = ModelKind::Gcn;
    PhaseOp op = PhaseOp::Combination;
    accel::SpDeGemmProblem problem;
};

/**
 * Ordered lowering of one workload: modelPhasesPerLayer(model) * depth
 * SpDeGEMM steps. The plan borrows matrices from the workload it was
 * built from -- the workload must outlive the plan.
 */
using PhasePlan = std::vector<PlannedPhase>;

/** One executed phase with its energy. */
struct PhaseMetrics
{
    uint32_t layer = 0;
    PhaseOp op = PhaseOp::Combination;
    accel::PhaseResult result;
    energy::EnergyBreakdown energy;
    /** Host wall-clock spent simulating this phase (sim-speed). */
    double hostMillis = 0.0;
};

/**
 * Per-op totals of one inference, as GROW reports them: cycles by
 * phase op (Fig. 7, Fig. 20) and the HDN cache counters behind the
 * Fig. 17 hit rate. add() is the one rule that folds a phase into
 * them; executePlan, the scale-out merge (scaleout::runInference) and
 * the analytical cost model (costmodel::PlanEstimate) all fold
 * through it.
 */
struct OpTotals
{
    Cycle totalCycles = 0;
    Cycle combinationCycles = 0;
    Cycle aggregationCycles = 0;
    Cycle attentionCycles = 0; ///< GAT attention-score phases
    Cycle haloCycles = 0; ///< multi-chip halo-exchange phases (scale-out)
    uint64_t macOps = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;

    /**
     * Fold one phase of op @p op: its cycles go to totalCycles and to
     * the op's counter. Only aggregation and attention-score phases,
     * which stream RHS rows through the HDN cache, add to cacheHits and
     * cacheMisses; a combination phase's counters (GAMMA's FiberCache)
     * stay in its own PhaseResult.
     */
    void add(PhaseOp op, Cycle cycles, uint64_t macs, uint64_t hits,
             uint64_t misses);

    /** Aggregate HDN cache hit rate across the phases that stream RHS
     *  rows through the cache (aggregation and attention score). */
    double cacheHitRate() const;
};

/** Whole-inference aggregate. */
struct InferenceResult : OpTotals
{
    std::string engine;
    ModelKind model = ModelKind::Gcn;
    mem::DramTraffic traffic;
    energy::EnergyBreakdown energy;
    /**
     * Chip-wide area overhead fraction of the extra unit the model
     * needs on GROW (Sec. VIII aggregatorSupportMatrix; 0 for models
     * that run on the stock MAC array).
     */
    double modelAreaOverhead = 0.0;
    std::vector<PhaseMetrics> phases;

    /**
     * Simulator throughput (sim-speed family): host wall-clock of the
     * whole executePlan call and the LHS rows simulated across its
     * phases. Host time is nondeterministic by nature -- it feeds the
     * opt-in `profile=` reporting only and never a golden-locked
     * table.
     */
    double hostMillis = 0.0;
    uint64_t simRows = 0;

    /** Total DRAM bytes moved. */
    Bytes totalTrafficBytes() const { return traffic.total(); }

    /** Fold @p pm into the totals, traffic and energy, then append it
     *  to phases. */
    void addPhase(PhaseMetrics pm);
};

/**
 * Lower @p workload into its ordered phase plan under @p options: for
 * each layer, the op sequence of workload.model (src/gcn/model.hpp),
 * with GROW's preprocessing artefacts attached to the steps that
 * stream the adjacency when options.usePartitioning. model=Gcn
 * reproduces the original 2-SpDeGEMM-per-layer lowering exactly.
 */
PhasePlan buildPhasePlan(const GcnWorkload &workload,
                         const RunOptions &options);

/**
 * Execute @p plan on @p engine and aggregate the per-phase metrics.
 *
 * With options.sim.threads > 1 (and outside functional mode) the
 * phases fan out over the shared worker pool, one cloned engine and
 * one private DRAM model per phase, and fold back in plan order --
 * bit-identical to the serial loop for every thread count (phases are
 * hermetic; see DESIGN.md "Parallel co-simulation").
 *
 * In functional mode (options.sim.functional) each combination output
 * feeds the downstream steps of its layer that consume it (attention
 * score peeks at it, aggregation consumes it, a trailing MLP
 * combination's output is terminal) and every phase output is checked
 * against sparse::referenceSpMM; a mismatch panics, as does a plan
 * that leaves a combination output unconsumed at the end. Functional
 * plans execute serially regardless of the thread budget.
 */
InferenceResult executePlan(accel::AcceleratorSim &engine,
                            const PhasePlan &plan,
                            const RunOptions &options);

/**
 * Run N-layer inference for @p workload on @p engine: convenience
 * wrapper for buildPhasePlan + executePlan.
 */
InferenceResult runInference(accel::AcceleratorSim &engine,
                             const GcnWorkload &workload,
                             const RunOptions &options);

} // namespace grow::gcn
