#include "gcn/runner.hpp"

#include <functional>

#include "sparse/reference_gemm.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "util/wallclock.hpp"
#include "util/work_pool.hpp"

namespace grow::gcn {

namespace {

/** "gat attention-score layer 2": phase identity for diagnostics. */
std::string
describePhase(const PlannedPhase &step)
{
    return std::string(modelKindName(step.model)) + " " +
           phaseOpName(step.op) + " layer " + std::to_string(step.layer);
}

/** Verify a functional output against the golden SpMM. */
void
checkFunctional(const accel::PhaseResult &result,
                const sparse::CsrMatrix &lhs,
                const sparse::DenseMatrix &rhs, const std::string &what)
{
    GROW_ASSERT(result.hasOutput, "functional run produced no output");
    auto golden = sparse::referenceSpMM(lhs, rhs);
    double diff = sparse::DenseMatrix::maxAbsDiff(golden, result.output);
    GROW_ASSERT(diff < 1e-9,
                "functional mismatch in " + what + " (max diff " +
                    fmtSci(diff) + ")");
}

/** One executed phase with its energy and host time. */
PhaseMetrics
phaseMetrics(const PlannedPhase &step, accel::PhaseResult &&r,
             const energy::EnergyParams &params, double host_ms)
{
    PhaseMetrics pm;
    pm.layer = step.layer;
    pm.op = step.op;
    pm.hostMillis = host_ms;
    pm.energy = energy::computeEnergy(params, r.activity);
    // Sec. VIII extra-unit energy: phases that exercise the softmax
    // unit (GAT scores) or the comparator array (SagePool reduction)
    // carry the unit's dynamic energy beside the MAC energy.
    const double auxFraction = modelAuxUnitMacFraction(step.model,
                                                       step.op);
    if (auxFraction > 0.0)
        pm.energy.auxPj = energy::auxiliaryUnitPj(pm.energy, auxFraction);
    pm.result = std::move(r);
    return pm;
}

/**
 * Run @p plan phase by phase on @p engine into @p results and
 * @p millis. In functional mode each combination output feeds the
 * downstream steps of its layer that consume it, and every phase output
 * is checked against the reference SpMM, then released.
 */
void
executeSerial(accel::AcceleratorSim &engine, const PhasePlan &plan,
              const RunOptions &options,
              std::vector<accel::PhaseResult> &results,
              std::vector<double> &millis)
{
    const bool functional = options.sim.functional;
    // The most recent combination output, pending consumption by a
    // downstream step of the same layer (functional mode only): an
    // attention-score step peeks at it, an aggregation step consumes
    // it, and a combination whose successor is another combination (or
    // the end of the plan) produces a terminal output instead.
    sparse::DenseMatrix pending;
    bool hasPending = false;

    for (size_t i = 0; i < plan.size(); ++i) {
        const PlannedPhase &step = plan[i];
        accel::SpDeGemmProblem problem = step.problem;
        if (functional && step.op != PhaseOp::Combination) {
            GROW_ASSERT(hasPending,
                        std::string(phaseOpName(step.op)) +
                            " step without a preceding combination "
                            "output (" +
                            describePhase(step) + ")");
            problem.rhs = &pending;
        }

        accel::PhaseResult &phaseRes = results[i];
        {
            util::ScopedTimer timer(millis[i]);
            phaseRes = engine.run(problem, options.sim);
        }
        if (functional) {
            checkFunctional(phaseRes, *problem.lhs, *problem.rhs,
                            describePhase(step));
            switch (step.op) {
              case PhaseOp::Combination: {
                const PlannedPhase *next =
                    i + 1 < plan.size() ? &plan[i + 1] : nullptr;
                const bool feedsNext =
                    next != nullptr && next->layer == step.layer &&
                    next->op != PhaseOp::Combination;
                if (feedsNext) {
                    pending = std::move(phaseRes.output);
                    hasPending = true;
                }
                // Otherwise (e.g. GIN's trailing MLP stage) the output
                // is the layer's terminal result: verified, then
                // dropped -- the next layer starts from its own
                // synthetic features (DESIGN.md substitutions).
                break;
              }
              case PhaseOp::AttentionScore:
                // Scores are consumed on-chip by the softmax unit; the
                // combination output still feeds the aggregation.
                break;
              case PhaseOp::Aggregation:
                hasPending = false;
                break;
              case PhaseOp::HaloExchange:
                panic("halo-exchange step in single-chip executor");
            }
            phaseRes.output = sparse::DenseMatrix();
            phaseRes.hasOutput = false;
        }
    }
    GROW_ASSERT(!hasPending,
                "plan left a functional combination output unconsumed "
                "at end of plan (model " +
                    std::string(plan.empty()
                                    ? "?"
                                    : modelKindName(plan.front().model)) +
                    ")");
}

} // namespace

void
OpTotals::add(PhaseOp op, Cycle cycles, uint64_t macs, uint64_t hits,
              uint64_t misses)
{
    totalCycles += cycles;
    macOps += macs;
    switch (op) {
      case PhaseOp::Combination:
        combinationCycles += cycles;
        break;
      case PhaseOp::Aggregation:
        aggregationCycles += cycles;
        break;
      case PhaseOp::AttentionScore:
        attentionCycles += cycles;
        break;
      case PhaseOp::HaloExchange:
        haloCycles += cycles;
        break;
    }
    if (op == PhaseOp::Aggregation || op == PhaseOp::AttentionScore) {
        cacheHits += hits;
        cacheMisses += misses;
    }
}

double
OpTotals::cacheHitRate() const
{
    uint64_t total = cacheHits + cacheMisses;
    return total == 0 ? 0.0
                      : static_cast<double>(cacheHits) /
                            static_cast<double>(total);
}

void
InferenceResult::addPhase(PhaseMetrics pm)
{
    add(pm.op, pm.result.cycles, pm.result.macOps, pm.result.cacheHits,
        pm.result.cacheMisses);
    traffic += pm.result.traffic;
    energy += pm.energy;
    phases.push_back(std::move(pm));
}

PhasePlan
buildPhasePlan(const GcnWorkload &workload, const RunOptions &options)
{
    const bool part = options.usePartitioning;
    const bool sharded = options.chips > 1;
    GROW_ASSERT(options.chips >= 1, "chips must be >= 1");
    GROW_ASSERT(!sharded || part,
                "multi-chip lowering requires partitioning artefacts "
                "(the shard plan is built from the cluster structure)");
    GROW_ASSERT(!sharded || !options.sim.functional,
                "multi-chip lowering has no functional mode");
    GROW_ASSERT(!part || workload.hasPartitioning(),
                "workload lacks partitioning artefacts");
    const bool functional = options.sim.functional;
    GROW_ASSERT(!functional || workload.hasFunctionalData(),
                "functional mode requires workload weights");
    GROW_ASSERT(workload.numLayers() >= 1, "workload has no layers");
    const ModelKind model = workload.model;
    GROW_ASSERT(!modelUsesSampling(model) || workload.hasSampling(),
                "sampling model lacks the sampled-adjacency artefact");

    // The adjacency every non-combination step streams: SAGEConv
    // aggregates over the sampled fanout-k operand, GIN over the
    // epsilon-weighted sum operand A + (1+eps)I, everything else over
    // the full normalized adjacency.
    const sparse::CsrMatrix &A =
        modelUsesSampling(model)
            ? (part ? workload.adjacencySampledPartitioned()
                    : workload.adjacencySampled())
        : model == ModelKind::Gin
            ? (part ? workload.adjacencyGinPartitioned
                    : workload.adjacencyGin)
            : (part ? workload.adjacencyPartitioned()
                    : workload.adjacency());

    PhasePlan plan;
    plan.reserve(static_cast<size_t>(modelPhasesPerLayer(model) +
                                     (sharded ? 1 : 0)) *
                 workload.numLayers());

    // The dataflow mapping the plan is lowered against. Everything
    // engine-visible below (rhsOnChip, accel::Phase, artefact
    // attachment) is read from the spec of the step's phase class --
    // the lowering itself knows no engine.
    const mapping::EngineMapping &em =
        options.mapping ? *options.mapping : mapping::genericMapping();

    /** Derive the problem fields the spec dictates. */
    auto applySpec = [](PlannedPhase &ph,
                        const mapping::MappingSpec &spec) {
        ph.problem.rhsOnChip = spec.rhsResident();
        ph.problem.phase = spec.rhsResident()
                               ? accel::Phase::Combination
                               : accel::Phase::Aggregation;
    };

    // ---- Combination: X * W. The DenseResident spec declares whether
    // the engine keeps W on-chip (Sec. V-B). @p stage disambiguates
    // same-layer combinations in the provenance label (GIN's trailing
    // MLP pass). -------------------------------------------------------
    auto pushCombination = [&](uint32_t layer, const sparse::CsrMatrix &x,
                               const sparse::DenseMatrix *wts,
                               const char *stage = "") {
        PlannedPhase ph;
        ph.layer = layer;
        ph.model = model;
        ph.op = PhaseOp::Combination;
        ph.problem.lhs = &x;
        ph.problem.rhsCols = workload.layer(layer).outDim;
        ph.problem.rhs = functional ? wts : nullptr;
        applySpec(ph, em.spec(mapping::PhaseClass::DenseResident));
        ph.problem.label = describePhase(ph) + stage;
        plan.push_back(std::move(ph));
    };

    // ---- Adjacency-streaming step: aggregation A*(XW), or GAT's
    // SDDMM-shaped attention-score pass over the same non-zeros. In
    // functional mode the dense RHS is the preceding combination
    // output, threaded in by executePlan. GROW's preprocessing
    // artefacts apply to every such step: its spec is the streaming
    // one, which validate() never lets hold the dense operand
    // resident.
    auto pushAdjacencyStep = [&](uint32_t layer, PhaseOp op) {
        PlannedPhase ph;
        ph.layer = layer;
        ph.model = model;
        ph.op = op;
        ph.problem.lhs = &A;
        ph.problem.rhsCols = workload.layer(layer).outDim;
        applySpec(ph, em.spec(mapping::PhaseClass::SparseStreaming));
        if (part) {
            ph.problem.clustering = &workload.relabel().clustering;
            ph.problem.hdnLists = &workload.hdnLists();
        }
        ph.problem.label = describePhase(ph);
        plan.push_back(std::move(ph));
    };

    // ---- Halo exchange (multi-chip lowering only): before a layer's
    // adjacency-streaming steps, every chip pulls the combination
    // outputs of its remote boundary vertices across the inter-chip
    // links. The marker carries the adjacency (boundary structure) and
    // the layer's feature width; only scaleout::runInference can
    // execute it -- executePlan rejects plans that contain one. --------
    auto pushHalo = [&](uint32_t layer) {
        if (!sharded)
            return;
        PlannedPhase ph;
        ph.layer = layer;
        ph.model = model;
        ph.op = PhaseOp::HaloExchange;
        ph.problem.lhs = &A;
        ph.problem.rhsCols = workload.layer(layer).outDim;
        ph.problem.label = describePhase(ph);
        plan.push_back(std::move(ph));
    };

    for (uint32_t layer = 0; layer < workload.numLayers(); ++layer) {
        const sparse::CsrMatrix &x =
            part ? workload.xPartitioned(layer) : workload.x(layer);
        const sparse::DenseMatrix *wts =
            functional ? &workload.weight(layer) : nullptr;

        switch (model) {
          case ModelKind::Gcn:
          case ModelKind::SageMean:
          case ModelKind::SagePool:
            // X*W then A*(XW) -- the Sec. II-B order; SAGEConv only
            // swaps A for the sampled operand (Sec. VIII).
            pushCombination(layer, x, wts);
            pushHalo(layer);
            pushAdjacencyStep(layer, PhaseOp::Aggregation);
            break;
          case ModelKind::Gat:
            // Per-edge attention scores lower as an SDDMM-shaped
            // SpDeGEMM over the adjacency non-zeros, with the
            // table-based softmax folded into the score phase
            // (Sec. VIII); the weighted aggregation follows.
            pushCombination(layer, x, wts);
            pushHalo(layer);
            pushAdjacencyStep(layer, PhaseOp::AttentionScore);
            pushAdjacencyStep(layer, PhaseOp::Aggregation);
            break;
          case ModelKind::Gin:
            // The (1+eps) central-node weight sits on A_gin's
            // diagonal; the MLP is consecutive W phases (Sec. VIII --
            // no new hardware), the second stage a trailing
            // combination over the synthetic stand-in for the
            // aggregated output.
            pushCombination(layer, x, wts);
            pushHalo(layer);
            pushAdjacencyStep(layer, PhaseOp::Aggregation);
            pushCombination(layer,
                            part ? workload.xMlpPartitioned(layer)
                                 : workload.xMlp(layer),
                            functional ? &workload.mlpWeight(layer)
                                       : nullptr,
                            " (mlp stage 2)");
            break;
        }
    }
    return plan;
}

InferenceResult
executePlan(accel::AcceleratorSim &engine, const PhasePlan &plan,
            const RunOptions &options)
{
    const bool functional = options.sim.functional;
    for (const PlannedPhase &step : plan) {
        GROW_ASSERT(step.op != PhaseOp::HaloExchange,
                    "plan contains a halo-exchange step; only the "
                    "scale-out runner (scaleout::runInference) can "
                    "execute multi-chip plans");
    }
    util::WallClock runClock;

    InferenceResult res;
    res.engine = engine.name();
    if (!plan.empty()) {
        res.model = plan.front().model;
        res.modelAreaOverhead =
            aggregatorSupport(modelAggregator(res.model)).areaOverhead;
    }

    // Phase-parallel execution: outside functional mode no phase reads
    // another phase's output (the plan carries every operand), so the
    // phases of one inference fan out over the shared worker pool --
    // one cloned engine and one private DRAM model per phase. Each
    // phase's simulation is hermetic, so both paths hand the one fold
    // below bit-identical results for every thread count. Functional
    // mode threads combination outputs between phases and stays serial.
    std::vector<accel::PhaseResult> phaseResults(plan.size());
    std::vector<double> phaseMillis(plan.size(), 0.0);
    const uint32_t threads = std::max(1u, options.sim.threads);
    if (!functional && threads > 1 && plan.size() > 1) {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(plan.size());
        for (size_t i = 0; i < plan.size(); ++i) {
            tasks.emplace_back([&engine, &plan, &options, &phaseResults,
                                &phaseMillis, i] {
                util::ScopedTimer timer(phaseMillis[i]);
                auto worker = engine.clone();
                phaseResults[i] =
                    worker->run(plan[i].problem, options.sim);
            });
        }
        util::rethrowFirstError(
            util::WorkPool::shared().runAll(std::move(tasks), threads));
    } else {
        executeSerial(engine, plan, options, phaseResults, phaseMillis);
    }

    for (size_t i = 0; i < plan.size(); ++i) {
        res.simRows += plan[i].problem.lhs->rows();
        res.addPhase(phaseMetrics(plan[i], std::move(phaseResults[i]),
                                  options.energy, phaseMillis[i]));
    }
    res.hostMillis = runClock.elapsedMs();
    return res;
}

InferenceResult
runInference(accel::AcceleratorSim &engine, const GcnWorkload &workload,
             const RunOptions &options)
{
    RunOptions opts = options;
    if (!opts.mapping) {
        opts.mapping = std::make_shared<mapping::EngineMapping>(
            engine.mapping());
    }
    return executePlan(engine, buildPhasePlan(workload, opts), opts);
}

} // namespace grow::gcn
