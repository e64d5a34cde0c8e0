/**
 * @file
 * GROW: the row-stationary sparse-dense GEMM accelerator (Sec. V).
 *
 * GrowSim glues together the per-PE RowEngines, the shared DRAM channel
 * (bandwidth scaled with PE count, Sec. VII-F) and the preprocessing
 * artefacts (cluster layout + per-cluster HDN lists). Clusters are
 * interleaved across PEs and the engines are co-simulated on a shared
 * memory system, so transient per-PE bandwidth imbalance is captured.
 *
 * The co-simulation schedule always steps the engine with the smallest
 * local clock against the live shared DRAM. run() is single-threaded
 * and a pure function of (config, problem, options); parallelism lives
 * one level up, in gcn::executePlan's phase fan-out (see DESIGN.md
 * "Parallel co-simulation").
 */
#pragma once

#include <memory>
#include <vector>

#include "accel/accelerator.hpp"
#include "core/grow_config.hpp"
#include "core/row_engine.hpp"

namespace grow::core {

class GrowSim : public accel::AcceleratorSim
{
  public:
    explicit GrowSim(GrowConfig config);

    std::string name() const override { return "grow"; }

    accel::PhaseResult run(const accel::SpDeGemmProblem &problem,
                           const accel::SimOptions &options) override;

    /** Row-stationary Gustavson dataflow with the multi-row runahead
     *  window and the pinned (or LRU / disabled) HDN row cache. */
    mapping::EngineMapping mapping() const override;

    std::unique_ptr<accel::AcceleratorSim> clone() const override
    {
        return std::make_unique<GrowSim>(config_);
    }

    const GrowConfig &config() const { return config_; }

    /** Detailed per-run engine statistics of the last run() call. */
    const std::vector<RowEngineStats> &lastEngineStats() const
    {
        return lastEngineStats_;
    }

  private:
    GrowConfig config_;
    std::vector<RowEngineStats> lastEngineStats_;
};

/**
 * Derive a fallback global HDN list: the top-N most referenced RHS rows
 * (column frequency of the LHS). Used when the caller supplies no
 * preprocessing artefacts -- the "GROW (w/o G.P)" configuration.
 */
std::vector<NodeId> topReferencedColumns(const sparse::CsrMatrix &lhs,
                                         uint32_t top_n);

} // namespace grow::core
