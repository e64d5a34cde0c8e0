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
 *     points.
 *  4. The HaloExchange steps are co-simulated against one
 *     InterchipLink per chip through the LinkArbiter (receiving chips
 *     are its lanes), so link contention resolves at deterministic
 *     epoch boundaries: results are bit-identical for every `threads=`
 *     value.
 *  5. Every plan step becomes one merged gcn::PhaseMetrics -- the max
 *     cycles over chips (chips run concurrently in real hardware) and
 *     the sum of MACs, traffic, the Fig. 6 sparse-byte counters,
 *     energy, cache counters and host time;
 *     a halo step carries its link cycles -- folded by the single-chip
 *     rule (gcn::InferenceResult::addPhase). So a chips=1 topology,
 *     whose identity slice is the whole workload and which has no halo
 *     steps, reproduces gcn::runInference's totals and each phase's
 *     cycles, MACs, traffic, sparse-byte counters, energy and cache
 *     counters.
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
     * Whole-topology aggregate, one merged phase per plan step (see
     * step 5 above); haloCycles holds the halo steps' link cycles.
     */
    gcn::InferenceResult merged;
    /** Per-chip single-chip results, chip order. */
    std::vector<gcn::InferenceResult> perChip;
    ChipShardPlan shard;
    HaloPlan halo;
    /** Per-link accounting; totalBytes is every halo step's payload. */
    LinkMetrics links;
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
