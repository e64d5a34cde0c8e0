/**
 * @file
 * Multi-chip scale-out invariants: chips=1 reproduces the single-chip
 * runner bit-for-bit, sharded runs are deterministic for every worker
 * count, the link byte counters obey conservation (sent == received ==
 * cut-edge halo feature bytes), and the closed-form link estimate
 * prices the co-simulation within its documented envelope.
 */
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "costmodel/link_model.hpp"
#include "driver/engine_factory.hpp"
#include "gcn/runner.hpp"
#include "gcn/workload.hpp"
#include "scaleout/runner.hpp"

namespace grow::scaleout {
namespace {

/** Unit-tier workloads with clusters small enough to shard 8 ways. */
const gcn::GcnWorkload &
workloadOf(const std::string &name,
           gcn::ModelKind model = gcn::ModelKind::Gcn)
{
    static std::map<std::pair<std::string, gcn::ModelKind>,
                    gcn::GcnWorkload>
        cache;
    auto it = cache.find({name, model});
    if (it == cache.end()) {
        gcn::WorkloadConfig c;
        c.tier = graph::ScaleTier::Unit;
        c.model = model;
        c.plan.targetClusterSize = 64;
        it = cache
                 .emplace(std::pair{name, model},
                          gcn::buildWorkload(graph::datasetByName(name),
                                             c))
                 .first;
    }
    return it->second;
}

/** Field-by-field equality of everything the reports consume. */
void
expectSameResult(const gcn::InferenceResult &a,
                 const gcn::InferenceResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.combinationCycles, b.combinationCycles);
    EXPECT_EQ(a.aggregationCycles, b.aggregationCycles);
    EXPECT_EQ(a.attentionCycles, b.attentionCycles);
    EXPECT_EQ(a.haloCycles, b.haloCycles);
    EXPECT_EQ(a.macOps, b.macOps);
    EXPECT_EQ(a.totalTrafficBytes(), b.totalTrafficBytes());
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].op, b.phases[i].op) << "phase " << i;
        EXPECT_EQ(a.phases[i].result.cycles, b.phases[i].result.cycles)
            << "phase " << i;
        EXPECT_EQ(a.phases[i].result.traffic.total(),
                  b.phases[i].result.traffic.total())
            << "phase " << i;
        EXPECT_EQ(a.phases[i].result.macOps, b.phases[i].result.macOps)
            << "phase " << i;
        EXPECT_EQ(a.phases[i].result.cacheHits,
                  b.phases[i].result.cacheHits)
            << "phase " << i;
        EXPECT_EQ(a.phases[i].result.cacheMisses,
                  b.phases[i].result.cacheMisses)
            << "phase " << i;
        EXPECT_EQ(a.phases[i].result.effectualSparseBytes,
                  b.phases[i].result.effectualSparseBytes)
            << "phase " << i;
        EXPECT_EQ(a.phases[i].result.fetchedSparseBytes,
                  b.phases[i].result.fetchedSparseBytes)
            << "phase " << i;
        EXPECT_DOUBLE_EQ(a.phases[i].energy.total(),
                         b.phases[i].energy.total())
            << "phase " << i;
    }
}

TEST(Scaleout, OneChipTopologyReproducesSingleChipRunner)
{
    // Every engine and model: the identity shard folds through the
    // same per-op rule as the single-chip runner.
    gcn::RunOptions opts;
    opts.sim.threads = 2;
    for (const std::string &key : driver::knownEngineKeys()) {
        for (gcn::ModelKind model : gcn::allModelKinds()) {
            SCOPED_TRACE(key + " " + gcn::modelKindName(model));
            const auto &w = workloadOf("cora", model);
            const auto sharded =
                runInference(EngineTopology(key).withChips(1), w, opts);

            auto spec = driver::engineByKey(key);
            gcn::RunOptions single = opts;
            single.usePartitioning = spec.usePartitioning;
            auto engine = spec.make();
            const auto direct = gcn::runInference(*engine, w, single);

            expectSameResult(sharded.merged, direct);
            EXPECT_EQ(sharded.links.totalBytes, 0u);
            EXPECT_EQ(sharded.merged.haloCycles, 0u);
            EXPECT_EQ(sharded.shard.cutArcs, 0u);
        }
    }
}

TEST(Scaleout, ShardedRunIsThreadCountInvariant)
{
    const auto &w = workloadOf("citeseer");
    const auto topo = EngineTopology("grow").withChips(4);

    gcn::RunOptions serial;
    serial.sim.threads = 1;
    const auto a = runInference(topo, w, serial);

    gcn::RunOptions parallel;
    parallel.sim.threads = 4;
    const auto b = runInference(topo, w, parallel);

    expectSameResult(a.merged, b.merged);
    EXPECT_EQ(a.links.totalBytes, b.links.totalBytes);
    ASSERT_EQ(a.links.egressBytes.size(), b.links.egressBytes.size());
    for (size_t i = 0; i < a.links.egressBytes.size(); ++i)
        EXPECT_EQ(a.links.egressBytes[i], b.links.egressBytes[i]);
}

TEST(Scaleout, StructureOnlyOperandsShardLikeValuedOnes)
{
    // Sharding row-slices every operand. A non-functional workload's
    // features are structure-only; their slices must drive the chips
    // exactly like the slices of the same features with values.
    const auto &bare = workloadOf("citeseer");
    ASSERT_FALSE(bare.x(0).hasValues());
    gcn::WorkloadConfig c;
    c.tier = graph::ScaleTier::Unit;
    c.plan.targetClusterSize = 64;
    c.functionalData = true;
    const auto valued =
        gcn::buildWorkload(graph::datasetByName("citeseer"), c);
    ASSERT_TRUE(valued.x(0).hasValues());

    const auto topo = EngineTopology("grow").withChips(4);
    const auto a = runInference(topo, bare, gcn::RunOptions{});
    const auto b = runInference(topo, valued, gcn::RunOptions{});
    expectSameResult(a.merged, b.merged);
    EXPECT_EQ(a.links.totalBytes, b.links.totalBytes);
}

TEST(Scaleout, HaloScheduleIsPinned)
{
    // Exact halo cycles and per-link egress counters of the link
    // co-simulation. Any drift is a change of the modelled link
    // schedule, never noise.
    struct Pin
    {
        const char *dataset;
        uint32_t chips;
        Cycle haloCycles;
        std::vector<Bytes> egressBytes;
        std::vector<Cycle> egressBusyCycles;
    };
    const Pin pins[] = {
        {"cora", 2, 1783, {48024, 44344}, {750, 692}},
        {"cora", 4, 1837, {50232, 50600, 36432, 49496},
         {784, 790, 569, 773}},
        {"citeseer", 2, 1654, {34848, 38368}, {544, 599}},
        {"citeseer", 4, 1615, {30624, 36080, 33616, 29744},
         {478, 563, 525, 464}},
    };
    for (const Pin &pin : pins) {
        const auto topo = EngineTopology("grow").withChips(pin.chips);
        for (uint32_t threads : {1u, 4u}) {
            SCOPED_TRACE(std::string(pin.dataset) +
                         " chips=" + std::to_string(pin.chips) +
                         " threads=" + std::to_string(threads));
            gcn::RunOptions opts;
            opts.sim.threads = threads;
            const auto r = runInference(topo, workloadOf(pin.dataset), opts);
            EXPECT_EQ(r.merged.haloCycles, pin.haloCycles);
            EXPECT_EQ(r.links.egressBytes, pin.egressBytes);
            EXPECT_EQ(r.links.egressBusyCycles, pin.egressBusyCycles);
        }
    }
}

TEST(Scaleout, LinkByteConservation)
{
    const auto &w = workloadOf("pubmed");
    for (uint32_t chips : {2u, 4u, 8u}) {
        const auto topo = EngineTopology("grow").withChips(chips);
        gcn::RunOptions opts;
        opts.sim.threads = 2;
        const auto r = runInference(topo, w, opts);

        // Sent == received == the halo plan's cut-edge feature bytes.
        std::vector<Bytes> sent(chips, 0), received(chips, 0);
        Bytes pairTotal = 0;
        for (const auto &pair : r.links.pairs) {
            sent[pair.src] += pair.bytes;
            received[pair.dst] += pair.bytes;
            pairTotal += pair.bytes;
        }
        for (uint32_t c = 0; c < chips; ++c)
            EXPECT_EQ(r.links.egressBytes[c], sent[c])
                << "chips=" << chips << " link " << c;
        EXPECT_EQ(pairTotal, r.links.totalBytes) << "chips=" << chips;

        // Independently recompute the expected halo payload from the
        // halo plan: boundary vertices x per-layer feature bytes.
        Bytes expected = 0;
        gcn::RunOptions planOpts;
        planOpts.usePartitioning = true;
        planOpts.chips = chips;
        const auto plan = gcn::buildPhasePlan(w, planOpts);
        for (const auto &ph : plan) {
            if (ph.op != gcn::PhaseOp::HaloExchange)
                continue;
            for (uint32_t dst = 0; dst < chips; ++dst)
                for (uint32_t src = 0; src < chips; ++src)
                    expected += r.halo.pairPhaseBytes(
                        dst, src, ph.problem.rhsCols);
        }
        EXPECT_EQ(expected, r.links.totalBytes) << "chips=" << chips;
        EXPECT_GT(r.links.totalBytes, 0u) << "chips=" << chips;
    }
}

TEST(Scaleout, LinkEstimateMatchesSimulatedBytesExactly)
{
    const auto &w = workloadOf("pubmed");
    const uint32_t chips = 4;
    const auto topo = EngineTopology("grow").withChips(chips);
    gcn::RunOptions opts;
    opts.sim.threads = 2;
    const auto r = runInference(topo, w, opts);

    gcn::RunOptions planOpts;
    planOpts.usePartitioning = true;
    planOpts.chips = chips;
    const auto plan = gcn::buildPhasePlan(w, planOpts);
    const auto est = costmodel::estimateLinkTraffic(plan, r.shard,
                                                    r.halo, topo.link);

    // Bytes are exact by construction: estimator and runner read the
    // same halo plan.
    EXPECT_EQ(est.totalBytes, r.links.totalBytes);
    for (uint32_t c = 0; c < chips; ++c)
        EXPECT_EQ(est.egressBytes[c], r.links.egressBytes[c])
            << "link " << c;

    // Cycles are a roofline under the co-simulation: the sim adds
    // epoch-window quantisation and per-transfer issue effects on top
    // of latency + serialization, and overlap can shave the latency
    // leg. Documented envelope: within [0.5x, 2x].
    EXPECT_GT(est.haloCycles, 0u);
    EXPECT_GE(r.merged.haloCycles * 2, est.haloCycles);
    EXPECT_LE(r.merged.haloCycles, est.haloCycles * 2);
}

TEST(Scaleout, NonPartitioningEngineRejectsSharding)
{
    const auto topo = EngineTopology("gcnax").withChips(2);
    EXPECT_THROW(driver::engineForTopology(topo), std::runtime_error);
}

TEST(Scaleout, TopologyValidationRejectsNonsense)
{
    EXPECT_THROW(EngineTopology("grow").withChips(0).validate(),
                 std::runtime_error);
    EXPECT_THROW(EngineTopology("grow").withChips(65).validate(),
                 std::runtime_error);
    EXPECT_THROW(EngineTopology("grow").withLinkGbps(0.0).validate(),
                 std::runtime_error);
    EXPECT_THROW(
        EngineTopology("gcnax")
            .withGrowConfig(core::GrowConfig{})
            .validate(),
        std::runtime_error);
    EXPECT_NO_THROW(
        EngineTopology("grow").withChips(8).withLinkGbps(32).validate());
}

TEST(Scaleout, ChipKeysFollowBenchScaleoutRules)
{
    auto parse = [](std::vector<std::string> items) {
        std::vector<char *> argv{const_cast<char *>("prog")};
        for (auto &s : items)
            argv.push_back(s.data());
        return parseChipKeys(
            CliArgs(static_cast<int>(argv.size()), argv.data()));
    };
    const ChipKeys none = parse({});
    EXPECT_EQ(none.chips, std::vector<uint32_t>{1});
    EXPECT_FALSE(none.sharded());

    const ChipKeys keys =
        parse({"chips=1,4,64", "link_gbps=32", "link_ns=250"});
    EXPECT_EQ(keys.chips, (std::vector<uint32_t>{1, 4, 64}));
    EXPECT_TRUE(keys.sharded());
    EXPECT_DOUBLE_EQ(keys.link.bandwidthGBps, 32.0);
    EXPECT_DOUBLE_EQ(keys.link.latencyNs, 250.0);

    for (const char *bad : {"chips=", "chips=0", "chips=65", "chips=-2",
                            "chips=x", "chips=99999999999999999999"})
        EXPECT_THROW(parse({bad}), std::runtime_error) << bad;
    // Link keys describe multi-chip links.
    EXPECT_THROW(parse({"link_gbps=8"}), std::runtime_error);
    EXPECT_THROW(parse({"chips=1", "link_ns=8"}), std::runtime_error);
    EXPECT_NO_THROW(parse({"chips=1,2", "link_ns=8"}));
}

} // namespace
} // namespace grow::scaleout
