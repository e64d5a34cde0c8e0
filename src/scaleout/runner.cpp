#include "scaleout/runner.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <numeric>

#include "driver/engine_factory.hpp"
#include "scaleout/link.hpp"
#include "util/logging.hpp"
#include "util/wallclock.hpp"
#include "util/work_pool.hpp"

namespace grow::scaleout {

namespace {

/** Global rows of one chip's slice: the owned clusters' node ranges,
 *  in cluster order. */
std::vector<NodeId>
chipRows(const ChipShardPlan &shard,
         const partition::Clustering &clustering, uint32_t chip)
{
    std::vector<NodeId> rows;
    for (uint32_t c : shard.chipClusters[chip])
        for (NodeId r = clustering.clusterStart[c];
             r < clustering.clusterStart[c + 1]; ++r)
            rows.push_back(r);
    return rows;
}

/** One chip's private operands; the per-chip plan borrows from it,
 *  so it must outlive the chip's execution. */
struct ChipSlice
{
    /** The chip's global rows, in slice order. */
    std::vector<NodeId> rows;
    /** Global operand -> this chip's row slice (a row selection of
     *  it: columns stay global, nothing is copied). */
    std::map<const sparse::CsrMatrix *, sparse::CsrMatrix> sliced;
    partition::Clustering clustering;
    std::vector<std::vector<NodeId>> hdnLists;
    gcn::PhasePlan plan;

    const sparse::CsrMatrix &slice(const sparse::CsrMatrix &global)
    {
        auto it = sliced.find(&global);
        if (it == sliced.end())
            it = sliced.try_emplace(&global, global, rows).first;
        return it->second;
    }
};

/** One chunked link transfer of a halo step. */
struct LinkTransfer
{
    uint32_t src = 0;
    uint64_t addr = 0;
    Bytes bytes = 0;
};

/** Epoch window of the halo co-simulation, in cycles. */
constexpr Cycle kHaloEpochCycles = 4096;

/**
 * Co-simulate the halo steps of @p plan over one egress link per chip.
 * Receiving chips are the arbiter lanes; each lane's DMA engine
 * pipelines its pulls (serialization chains on the link channel, the
 * per-transfer latency overlaps), and cross-lane link contention
 * resolves at epoch boundaries -- deterministic for every worker
 * count. Returns per-step cycle counts in plan order of the halo
 * steps.
 */
std::vector<Cycle>
simulateHalo(const gcn::PhasePlan &plan, const HaloPlan &halo,
             const EngineTopology &topo,
             std::vector<std::unique_ptr<InterchipLink>> &links,
             const gcn::RunOptions &options)
{
    const uint32_t chips = topo.chips;
    std::vector<InterchipLink *> linkPtrs;
    linkPtrs.reserve(chips);
    for (auto &link : links)
        linkPtrs.push_back(link.get());
    LinkArbiter arbiter(std::move(linkPtrs), chips);

    const Cycle latency = topo.link.latencyCycles();
    const uint32_t threads = std::max(1u, options.sim.threads);

    std::vector<Cycle> stepCycles;
    Cycle clock = 0;
    for (const gcn::PlannedPhase &ph : plan) {
        if (ph.op != gcn::PhaseOp::HaloExchange)
            continue;
        const Bytes rowBytes =
            static_cast<Bytes>(ph.problem.rhsCols) * kValueBytes;

        // Per-lane transfer lists: every remote boundary vertex's
        // feature row, chunked to the link DMA granularity, sources in
        // ascending chip order.
        std::vector<std::vector<LinkTransfer>> lane(chips);
        for (uint32_t dst = 0; dst < chips; ++dst) {
            for (uint32_t src = 0; src < chips; ++src) {
                for (NodeId v : halo.boundary[dst][src]) {
                    Bytes left = rowBytes;
                    uint64_t addr =
                        static_cast<uint64_t>(v) * rowBytes;
                    while (left > 0) {
                        const Bytes piece =
                            std::min<Bytes>(left, topo.link.chunkBytes);
                        lane[dst].push_back({src, addr, piece});
                        addr += piece;
                        left -= piece;
                    }
                }
            }
        }

        const Cycle stepStart = clock;
        std::vector<size_t> pos(chips, 0);
        std::vector<Cycle> laneFree(chips, stepStart);
        std::vector<Cycle> laneLast(chips, stepStart);
        Cycle windowEnd = stepStart + kHaloEpochCycles;
        for (;;) {
            bool pending = false;
            for (uint32_t d = 0; d < chips; ++d)
                pending = pending || pos[d] < lane[d].size();
            if (!pending)
                break;
            arbiter.beginEpoch();
            std::vector<std::function<void()>> tasks;
            tasks.reserve(chips);
            for (uint32_t d = 0; d < chips; ++d) {
                tasks.emplace_back([&, d] {
                    while (pos[d] < lane[d].size() &&
                           laneFree[d] < windowEnd) {
                        const LinkTransfer &tr = lane[d][pos[d]];
                        const Cycle done = arbiter.read(
                            tr.src, d, laneFree[d], tr.addr, tr.bytes);
                        // Pipelined DMA: the next pull starts once the
                        // link channel frees up; the fixed latency
                        // overlaps across in-flight transfers.
                        laneFree[d] = std::max<Cycle>(
                            laneFree[d] + 1,
                            done > latency ? done - latency
                                           : laneFree[d] + 1);
                        laneLast[d] = std::max(laneLast[d], done);
                        ++pos[d];
                    }
                });
            }
            util::rethrowFirstError(
                util::WorkPool::shared().runAll(std::move(tasks),
                                                threads));
            arbiter.commitEpoch();
            windowEnd += kHaloEpochCycles;
        }
        Cycle stepEnd = stepStart;
        for (uint32_t d = 0; d < chips; ++d)
            stepEnd = std::max(stepEnd, laneLast[d]);
        stepCycles.push_back(stepEnd - stepStart);
        clock = stepEnd;
    }
    return stepCycles;
}

} // namespace

ScaleoutResult
runInference(const EngineTopology &topology,
             const gcn::GcnWorkload &workload,
             const gcn::RunOptions &options)
{
    util::WallClock runClock;
    topology.validate();
    const uint32_t chips = topology.chips;
    driver::EngineSpec spec = driver::engineForTopology(topology);

    gcn::RunOptions opts = options;
    opts.chips = chips;
    opts.usePartitioning = spec.usePartitioning;
    GROW_ASSERT(!opts.sim.functional || chips == 1,
                "multi-chip topologies have no functional mode");

    const gcn::PhasePlan plan = gcn::buildPhasePlan(workload, opts);

    ScaleoutResult out;
    // The shard objective streams the same relabeled operand the
    // aggregation does (the halo markers carry it for chips > 1).
    if (chips > 1) {
        const sparse::CsrMatrix *adjacency = nullptr;
        for (const auto &ph : plan) {
            if (ph.op == gcn::PhaseOp::HaloExchange) {
                adjacency = ph.problem.lhs;
                break;
            }
        }
        GROW_ASSERT(adjacency != nullptr,
                    "multi-chip plan lacks halo markers");
        out.shard = buildShardPlan(*adjacency,
                                   workload.relabel().clustering, chips);
        out.halo = buildHaloPlan(*adjacency, out.shard);
    } else {
        const uint32_t nodes = workload.nodes();
        out.shard.chips = 1;
        out.shard.chipNodes = {nodes};
        out.shard.nodeToChip.assign(nodes, 0);
        if (opts.usePartitioning) {
            const auto &clustering = workload.relabel().clustering;
            out.shard.clusterToChip.assign(clustering.numClusters(), 0);
            out.shard.chipClusters.resize(1);
            for (uint32_t c = 0; c < clustering.numClusters(); ++c)
                out.shard.chipClusters[0].push_back(c);
        } else {
            out.shard.clusterToChip = {0};
            out.shard.chipClusters = {{0}};
        }
        out.halo.chips = 1;
        out.halo.boundary.assign(1, {{}});
    }

    // ---- Per-chip slices and plans ----------------------------------
    std::vector<ChipSlice> slices(chips);
    for (uint32_t c = 0; c < chips; ++c) {
        ChipSlice &slice = slices[c];
        if (opts.usePartitioning) {
            const auto &clustering = workload.relabel().clustering;
            slice.rows = chipRows(out.shard, clustering, c);
            slice.clustering.clusterStart.push_back(0);
            for (uint32_t cl : out.shard.chipClusters[c]) {
                slice.clustering.clusterStart.push_back(
                    slice.clustering.clusterStart.back() +
                    clustering.clusterSize(cl));
                if (cl < workload.hdnLists().size())
                    slice.hdnLists.push_back(workload.hdnLists()[cl]);
            }
        } else {
            slice.rows.resize(workload.nodes());
            std::iota(slice.rows.begin(), slice.rows.end(), NodeId{0});
        }
        for (const gcn::PlannedPhase &ph : plan) {
            if (ph.op == gcn::PhaseOp::HaloExchange)
                continue;
            gcn::PlannedPhase chipPh = ph;
            chipPh.problem.lhs = &slice.slice(*ph.problem.lhs);
            if (ph.problem.clustering != nullptr) {
                chipPh.problem.clustering = &slice.clustering;
                chipPh.problem.hdnLists = &slice.hdnLists;
            }
            slice.plan.push_back(std::move(chipPh));
        }
    }

    // ---- Execute every chip through the single-chip executor --------
    out.perChip.reserve(chips);
    for (uint32_t c = 0; c < chips; ++c) {
        auto engine = spec.make();
        out.perChip.push_back(
            gcn::executePlan(*engine, slices[c].plan, opts));
    }

    // ---- Co-simulate the halo steps over the links ------------------
    std::vector<std::unique_ptr<InterchipLink>> links;
    std::vector<Cycle> haloStepCycles;
    if (chips > 1) {
        links.reserve(chips);
        for (uint32_t s = 0; s < chips; ++s)
            links.push_back(
                std::make_unique<InterchipLink>(s, topology.link));
        haloStepCycles =
            simulateHalo(plan, out.halo, topology, links, opts);
    }

    // ---- Link accounting (exact by construction) --------------------
    out.links.egressBytes.assign(chips, 0);
    out.links.egressBusyCycles.assign(chips, 0);
    std::vector<uint32_t> haloLayers;
    for (const auto &ph : plan)
        if (ph.op == gcn::PhaseOp::HaloExchange)
            haloLayers.push_back(ph.problem.rhsCols);
    for (uint32_t src = 0; src < chips; ++src) {
        for (uint32_t dst = 0; dst < chips; ++dst) {
            if (src == dst)
                continue;
            LinkPairTraffic pair;
            pair.src = src;
            pair.dst = dst;
            for (uint32_t cols : haloLayers) {
                pair.bytes += out.halo.pairPhaseBytes(dst, src, cols);
                const Bytes rowBytes =
                    static_cast<Bytes>(cols) * kValueBytes;
                const uint64_t chunks =
                    rowBytes == 0
                        ? 0
                        : (rowBytes + topology.link.chunkBytes - 1) /
                              topology.link.chunkBytes;
                pair.transfers +=
                    out.halo.boundaryVertices(dst, src) * chunks;
            }
            out.links.pairs.push_back(pair);
            out.links.totalBytes += pair.bytes;
            out.links.totalTransfers += pair.transfers;
        }
    }
    if (chips > 1) {
        for (uint32_t src = 0; src < chips; ++src) {
            out.links.egressBytes[src] = links[src]->traffic().total();
            out.links.egressBusyCycles[src] = links[src]->busyCycles();
        }
        // Conservation: the canonical egress devices must have carried
        // exactly the boundary-feature payload.
        for (uint32_t src = 0; src < chips; ++src) {
            Bytes expected = 0;
            for (const auto &pair : out.links.pairs)
                if (pair.src == src)
                    expected += pair.bytes;
            GROW_ASSERT(out.links.egressBytes[src] == expected,
                        "link byte conservation violated on chip " +
                            std::to_string(src));
        }
    }

    // ---- Merge: one PhaseMetrics per plan step (header step 5) -----
    // `activity` stays unmerged: it only feeds the energy model, and
    // the merged energy already sums the chips' energies.
    gcn::InferenceResult &merged = out.merged;
    merged.engine = out.perChip.front().engine;
    merged.model = out.perChip.front().model;
    merged.modelAreaOverhead = out.perChip.front().modelAreaOverhead;
    size_t chipPhase = 0;
    size_t haloStep = 0;
    for (const gcn::PlannedPhase &ph : plan) {
        gcn::PhaseMetrics pm;
        pm.layer = ph.layer;
        pm.op = ph.op;
        if (ph.op == gcn::PhaseOp::HaloExchange) {
            pm.result.cycles = haloStepCycles.at(haloStep++);
            pm.result.label = ph.problem.label;
        } else {
            const accel::PhaseResult &first =
                out.perChip.front().phases.at(chipPhase).result;
            pm.result.engine = first.engine;
            pm.result.phase = first.phase;
            pm.result.label = first.label;
            for (const gcn::InferenceResult &chip : out.perChip) {
                const gcn::PhaseMetrics &cpm = chip.phases.at(chipPhase);
                pm.result.cycles =
                    std::max(pm.result.cycles, cpm.result.cycles);
                pm.result.macOps += cpm.result.macOps;
                pm.result.cacheHits += cpm.result.cacheHits;
                pm.result.cacheMisses += cpm.result.cacheMisses;
                pm.result.effectualSparseBytes +=
                    cpm.result.effectualSparseBytes;
                pm.result.fetchedSparseBytes +=
                    cpm.result.fetchedSparseBytes;
                pm.result.traffic += cpm.result.traffic;
                pm.energy += cpm.energy;
                pm.hostMillis += cpm.hostMillis;
            }
            ++chipPhase;
        }
        merged.addPhase(std::move(pm));
    }
    for (const auto &chipRes : out.perChip) {
        merged.simRows += chipRes.simRows;
        merged.hostMillis += chipRes.hostMillis;
    }
    merged.hostMillis = std::max(merged.hostMillis,
                                 runClock.elapsedMs());
    return out;
}

} // namespace grow::scaleout
