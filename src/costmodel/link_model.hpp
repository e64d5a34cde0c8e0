/**
 * @file
 * Closed-form inter-chip link traffic estimate.
 *
 * Prices the HaloExchange steps of a multi-chip phase plan without
 * running the link co-simulation, so design-space sweeps (dse=1) can
 * score chip counts analytically. Byte counts are *exact* by
 * construction -- the estimator and the scale-out runner both read the
 * same HaloPlan (boundary vertices x feature bytes), so the estimate
 * equals the simulated per-link byte counters to the byte. Cycle
 * counts are a roofline: per halo step,
 *
 *   latencyCycles + serialization(busiest egress or ingress agent)
 *                 + one issue cycle per DMA chunk of that agent
 *
 * which the halo co-simulation tracks within the envelope gated by
 * tests/scaleout/ (the sim adds epoch-window quantization and
 * cross-phase link backlog on top; both only increase cycles).
 */
#pragma once

#include <vector>

#include "gcn/runner.hpp"
#include "scaleout/halo.hpp"
#include "scaleout/shard.hpp"
#include "scaleout/topology.hpp"

namespace grow::costmodel {

/** One halo step's closed-form price. */
struct LinkPhaseEstimate
{
    uint32_t layer = 0;
    Bytes totalBytes = 0;
    Cycle cycles = 0;
};

/** Whole-plan link traffic estimate. */
struct LinkEstimate
{
    /** Exact bytes chip s sends chip d over the whole plan,
     *  indexed [s][d] (diagonal zero). */
    std::vector<std::vector<Bytes>> pairBytes;
    /** Exact per-chip egress totals (row sums of pairBytes). */
    std::vector<Bytes> egressBytes;
    Bytes totalBytes = 0;
    /** Estimated cycles spent in halo steps across the plan. */
    Cycle haloCycles = 0;
    std::vector<LinkPhaseEstimate> phases;
};

/**
 * Price every HaloExchange step of @p plan under @p link for the
 * sharding described by (@p shard, @p halo). Plans without halo steps
 * (chips == 1) yield an all-zero estimate.
 */
LinkEstimate estimateLinkTraffic(const gcn::PhasePlan &plan,
                                 const scaleout::ChipShardPlan &shard,
                                 const scaleout::HaloPlan &halo,
                                 const scaleout::LinkSpec &link);

} // namespace grow::costmodel
