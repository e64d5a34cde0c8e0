/**
 * @file
 * GCNAX baseline model (Li et al., HPCA'21) -- the paper's primary
 * comparison point.
 *
 * GCNAX executes SpDeGEMM with an outer-product dataflow over 2-D tiles
 * of a CSC-compressed sparse operand (Fig. 4), with reconfigurable loop
 * ordering/tiling and loop fusion that keeps each output tile on-chip
 * until it is complete (no partial-sum DRAM traffic). We reproduce:
 *
 *  - a per-phase tile-size optimizer that, like GCNAX's offline search,
 *    picks the tiling minimising estimated DRAM traffic subject to the
 *    on-chip buffer capacities. Following the GROW paper's observation
 *    (Sec. IV-B), the sparse tile buffer must be provisioned for the
 *    *worst-case* fully dense tile, which bounds Tm x Tk;
 *  - the outer-product execution loop: for every non-empty sparse tile
 *    S[m,k], the corresponding dense tile D[k,n] is fetched, and each
 *    non-zero performs a Tn-wide rank-1 update into the resident output
 *    tile;
 *  - tile-granular DRAM fetch with 64 B lines (the Fig. 5/6 waste).
 *
 * The dense-tile height Tk has a hardware minimum (the outer-product
 * pipeline consumes dense rows in blocks); hypersparse adjacency tiles
 * therefore drag in mostly-useless dense tiles, which is exactly the
 * inefficiency GROW's row-stationary dataflow removes.
 */
#pragma once

#include "accel/accelerator.hpp"
#include "mem/dram.hpp"
#include "sparse/tiling.hpp"

namespace grow::accel {

/** GCNAX configuration (provisioned to match GROW, Sec. VI). */
struct GcnaxConfig
{
    uint32_t numMacs = 16;
    /** Sparse-tile buffer (worst-case dense provisioning applies). */
    Bytes sparseBufBytes = 128 * 1024;
    /** Dense-tile buffer. */
    Bytes denseBufBytes = 128 * 1024;
    /** Output-tile buffer (output-stationary loop fusion). */
    Bytes outBufBytes = 280 * 1024;
    /** Minimum dense-tile height fetched per sparse tile. */
    uint32_t minTileK = 16;
    /** Minimum sparse-tile height. */
    uint32_t minTileM = 64;
    /** Pipeline bubble per tile switch (buffer swap, pointer setup). */
    Cycle tileOverheadCycles = 8;
    mem::DramConfig dram;
};

/** Chosen loop tiling for one SpDeGEMM, with its fetch totals. */
using GcnaxTiling = sparse::Tiling;

class GcnaxSim : public AcceleratorSim
{
  public:
    explicit GcnaxSim(GcnaxConfig config);

    std::string name() const override { return "gcnax"; }

    PhaseResult run(const SpDeGemmProblem &problem,
                    const SimOptions &options) override;

    /** Output-stationary outer-product dataflow over 2-D sparse tiles
     *  with a per-problem traffic-minimising tiling search. */
    mapping::EngineMapping mapping() const override;

    /**
     * The reconfigurable tiling search (sparse::chooseTiling) under
     * this configuration's buffers and tile minima: the
     * traffic-minimising feasible (Tm, Tk, Tn) for this operand.
     */
    GcnaxTiling chooseTiling(const sparse::CsrMatrix &lhs,
                             uint32_t rhs_cols) const;

    const GcnaxConfig &config() const { return config_; }

    std::unique_ptr<AcceleratorSim> clone() const override
    {
        return std::make_unique<GcnaxSim>(config_);
    }

  private:
    GcnaxConfig config_;
};

} // namespace grow::accel
