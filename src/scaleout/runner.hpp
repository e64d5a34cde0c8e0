/**
 * @file
 * Multi-chip sharded co-simulation.
 *
 * scaleout::runInference executes one inference across the chips of an
 * EngineTopology:
 *
 *  1. The workload is lowered once (gcn::buildPhasePlan with
 *     options.chips = topology.chips), which interleaves one
 *     HaloExchange step per layer ahead of the adjacency-streaming
 *     steps.
 *  2. A ChipShardPlan assigns the partitioner's clusters to chips
 *     (cut-arc-minimising, balance-capped), and every engine phase is
 *     row-sliced to each chip's owned clusters: the sliced operands
 *     keep global column IDs, so the relabeled layout, per-cluster HDN
 *     lists and the engines' cluster round-robin apply unchanged.
 *  3. Each chip's slice runs through the unchanged single-chip
 *     executor (gcn::executePlan) -- chips are hermetic between halo
 *     points, so the per-chip results fold with per-phase max cycles
 *     (chips run concurrently in real hardware) and summed traffic /
 *     MACs / energy.
 *  4. The HaloExchange steps are co-simulated against one
 *     InterchipLink per chip through the LinkArbiter (receiving chips
 *     are its lanes), so link contention resolves at deterministic
 *     epoch boundaries: results are bit-identical for every `threads=`
 *     value, and a chips=1 topology reproduces the single-chip path
 *     byte-for-byte (the identity slice is the whole workload and no
 *     halo steps exist).
 *
 * See DESIGN.md "Multi-chip scale-out".
 */
#pragma once

#include <vector>

#include "gcn/runner.hpp"
#include "scaleout/halo.hpp"
#include "scaleout/shard.hpp"
#include "scaleout/topology.hpp"

namespace grow::scaleout {

/** Bytes/transfers one directed link pair carried (exact by
 *  construction: boundary vertices x feature bytes, see HaloPlan). */
struct LinkPairTraffic
{
    uint32_t src = 0;
    uint32_t dst = 0;
    Bytes bytes = 0;
    uint64_t transfers = 0;
};

/** Per-link accounting of one scale-out run. */
struct LinkMetrics
{
    /** Directed pairs (src != dst), ascending (src, dst). */
    std::vector<LinkPairTraffic> pairs;
    /** Canonical egress-device byte counters, one per source chip
     *  (equal to the pair sums -- the conservation invariant). */
    std::vector<Bytes> egressBytes;
    /** Cycles each egress link spent transferring. */
    std::vector<Cycle> egressBusyCycles;
    Bytes totalBytes = 0;
    uint64_t totalTransfers = 0;
};

/** Outcome of one sharded inference. */
struct ScaleoutResult
{
    /**
     * Whole-topology aggregate: per-phase max cycles across chips
     * (summed over phases, halo steps included), summed traffic /
     * MACs / energy / cache statistics. For chips == 1 this is
     * bit-identical to the single-chip gcn::runInference result.
     */
    gcn::InferenceResult merged;
    /** Per-chip single-chip results, chip order. */
    std::vector<gcn::InferenceResult> perChip;
    ChipShardPlan shard;
    HaloPlan halo;
    LinkMetrics links;
    /** Total feature bytes moved by all halo steps. */
    Bytes haloBytes = 0;
    /** Cycles spent in halo steps (also merged.haloCycles). */
    Cycle haloCycles = 0;
};

/**
 * Run one inference of @p workload on @p topology under @p options
 * (options.chips is overridden by topology.chips). Deterministic:
 * bit-identical for every options.sim.threads value.
 */
ScaleoutResult runInference(const EngineTopology &topology,
                            const gcn::GcnWorkload &workload,
                            const gcn::RunOptions &options);

} // namespace grow::scaleout
