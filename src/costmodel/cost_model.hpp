/**
 * @file
 * Closed-form analytical cost model over dataflow mappings.
 *
 * Mirrors each cycle-accurate engine's first-order behaviour from its
 * published mapping::EngineMapping alone -- no engine types appear
 * here. The estimator dispatches on MappingSpec fields (dense-reuse
 * discipline, operand formats, stream chunking), never on engine
 * names, so a new engine that publishes an honest mapping is estimable
 * without touching this module.
 *
 * Fidelity by construction:
 *  - Closed-form engines (MatRaptor; GAMMA via the exact Mattson LRU
 *    curve; GCNAX by calling the simulator's own tiling search,
 *    sparse::chooseTiling) reproduce the simulators' own formulas --
 *    the estimate is exact or within rounding.
 *  - The event-driven row engine (GROW) is approximated by a roofline:
 *    max(control/MAC throughput of the most loaded PE, DRAM channel
 *    occupancy, LDN-bounded miss service) plus serialised preloads and
 *    one access latency. Reuse counts stay *exact* (stack-distance and
 *    pinned-rank curves); the error lives in overlap effects -- LDN
 *    fill sharing, window stalls, per-PE LRU privacy -- and is bounded
 *    by the envelope tests (tests/costmodel/).
 *
 * One AnalyticalCostModel instance amortises the O(nnz log nnz) reuse
 * profiling of each distinct operand in a phase plan; estimate() is
 * then O(#clusters + numPes) per phase for row-engine mappings, which
 * is what makes a >=10k-point design-space grid cheaper than a single
 * cycle-accurate simulation (examples/design_space_sweep dse=1).
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "costmodel/workload_stats.hpp"
#include "gcn/runner.hpp"
#include "mapping/mapping.hpp"

namespace grow::costmodel {

/** Analytical estimate of one planned phase. */
struct PhaseEstimate
{
    uint32_t layer = 0;
    gcn::PhaseOp op = gcn::PhaseOp::Combination;
    std::string label;
    Cycle cycles = 0;
    Bytes trafficBytes = 0;
    uint64_t macOps = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    /** Roofline legs (diagnostics; cycles >= max of the three). */
    Cycle computeBound = 0;
    Cycle memoryBound = 0;
    Cycle missBound = 0;
};

/** Whole-plan aggregate: its phases folded by the same per-op rule
 *  as gcn::InferenceResult (gcn::OpTotals::add). */
struct PlanEstimate : gcn::OpTotals
{
    Bytes trafficBytes = 0;
    std::vector<PhaseEstimate> phases;
};

class AnalyticalCostModel
{
  public:
    /**
     * Profile every distinct operand of @p plan (borrowed: plan and
     * the workload it was lowered from must outlive the model).
     */
    explicit AnalyticalCostModel(const gcn::PhasePlan &plan);

    /**
     * Estimate the plan under @p em (any configuration, not just the
     * one the plan was lowered against -- that is the DSE fast path).
     * Halo-exchange steps are skipped (costmodel::estimateLinkTraffic
     * prices them); the rest fold by gcn::OpTotals::add, so every
     * per-op total compares one-to-one with a simulated
     * gcn::InferenceResult.
     */
    PlanEstimate estimate(const mapping::EngineMapping &em) const;

    /** Reuse profile of @p phase's sparse operand. */
    const OperandStats &statsFor(const gcn::PlannedPhase &phase) const;

  private:
    const gcn::PhasePlan *plan_;
    std::vector<std::unique_ptr<OperandStats>> stats_;
};

} // namespace grow::costmodel
