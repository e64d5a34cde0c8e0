/**
 * @file
 * Exact pins of GROW's combination phase. For the layer-0 and layer-1
 * combination problems buildPhasePlan lowers for cora and citeseer
 * (unit tier), at 1 and 4 PEs and runahead degrees 1 and 16, this
 * fixes the cycles, every DRAM traffic class, the MAC count, every
 * SRAM activity entry and the per-PE engine counters summed over PEs.
 * Any drift is a change of the modelled combination schedule or of its
 * energy inputs, never noise.
 */
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "core/grow.hpp"
#include "gcn/runner.hpp"

namespace grow::core {
namespace {

constexpr size_t kStatFields = 11;

/** RowEngineStats in declaration order, summed over the PEs. */
std::array<uint64_t, kStatFields>
summedStats(const std::vector<RowEngineStats> &per_pe)
{
    std::array<uint64_t, kStatFields> s{};
    for (const auto &e : per_pe) {
        const uint64_t fields[kStatFields] = {
            e.rowsProcessed,        e.products,
            e.macOps,               e.camLookups,
            e.ldnStalls,            e.lhsIdStalls,
            e.windowStalls,         e.clustersProcessed,
            e.hdnRowsPinned,        e.effectualSparseBytes,
            e.fetchedSparseBytes};
        for (size_t i = 0; i < kStatFields; ++i)
            s[i] += fields[i];
    }
    return s;
}

const gcn::GcnWorkload &
unitWorkload(const std::string &name)
{
    static std::map<std::string, gcn::GcnWorkload> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        gcn::WorkloadConfig wc;
        wc.tier = graph::ScaleTier::Unit;
        it = cache.emplace(name, gcn::buildWorkload(
                                     graph::datasetByName(name), wc))
                 .first;
    }
    return it->second;
}

/** The combination problem of @p layer in the partitioned GCN plan. */
accel::SpDeGemmProblem
combinationProblem(const gcn::PhasePlan &plan, uint32_t layer)
{
    for (const auto &step : plan)
        if (step.layer == layer && step.op == gcn::PhaseOp::Combination)
            return step.problem;
    ADD_FAILURE() << "no combination step at layer " << layer;
    return {};
}

struct Pin
{
    const char *dataset;
    uint32_t layer;
    uint32_t pes;
    uint32_t runahead;
    Cycle cycles;
    uint64_t macOps;
    std::array<Bytes, mem::kNumTrafficClasses> readBytes;
    std::array<Bytes, mem::kNumTrafficClasses> writeBytes;
    std::vector<uint64_t> sramAccesses;
    std::array<uint64_t, kStatFields> stats;
};

const Pin kPins[] = {
    {"cora", 0, 1, 1, 16101, 231392,
     {203520, 0, 0, 183424, 0},
     {0, 0, 102400, 0, 0},
     {44186, 244192, 254320},
     {800, 14462, 231392, 14462, 0, 0, 799, 1, 0, 179944, 203520}},
    {"cora", 0, 1, 16, 16101, 231392,
     {203520, 0, 0, 183424, 0},
     {0, 0, 102400, 0, 0},
     {44186, 244192, 254320},
     {800, 14462, 231392, 14462, 0, 0, 784, 1, 0, 179944, 203520}},
    {"cora", 0, 4, 1, 5239, 231392,
     {198208, 0, 0, 733696, 0},
     {0, 0, 102400, 0, 0},
     {44186, 244192, 323104},
     {800, 14462, 231392, 14462, 0, 0, 796, 4, 0, 179944, 198208}},
    {"cora", 0, 4, 16, 5251, 231392,
     {198208, 0, 0, 733696, 0},
     {0, 0, 102400, 0, 0},
     {44186, 244192, 323104},
     {800, 14462, 231392, 14462, 0, 0, 736, 4, 0, 179944, 198208}},
    {"cora", 1, 1, 1, 10214, 70021,
     {146304, 0, 0, 896, 0},
     {0, 0, 51200, 0, 0},
     {30809, 75621, 70133},
     {800, 10003, 70021, 10003, 0, 0, 799, 1, 0, 126436, 146304}},
    {"cora", 1, 1, 16, 10214, 70021,
     {146304, 0, 0, 896, 0},
     {0, 0, 51200, 0, 0},
     {30809, 75621, 70133},
     {800, 10003, 70021, 10003, 0, 0, 784, 1, 0, 126436, 146304}},
    {"cora", 1, 4, 1, 2771, 70021,
     {139904, 0, 0, 3584, 0},
     {0, 0, 51200, 0, 0},
     {30809, 75621, 70469},
     {800, 10003, 70021, 10003, 0, 0, 796, 4, 0, 126436, 139904}},
    {"cora", 1, 4, 16, 2771, 70021,
     {139904, 0, 0, 3584, 0},
     {0, 0, 51200, 0, 0},
     {30809, 75621, 70469},
     {800, 10003, 70021, 10003, 0, 0, 736, 4, 0, 126436, 139904}},
    {"citeseer", 0, 1, 1, 29167, 404128,
     {333184, 0, 0, 473984, 0},
     {0, 0, 102400, 0, 0},
     {76574, 416928, 463376},
     {800, 25258, 404128, 25258, 0, 0, 799, 1, 0, 309496, 333184}},
    {"citeseer", 0, 1, 16, 29167, 404128,
     {333184, 0, 0, 473984, 0},
     {0, 0, 102400, 0, 0},
     {76574, 416928, 463376},
     {800, 25258, 404128, 25258, 0, 0, 784, 1, 0, 309496, 333184}},
    {"citeseer", 0, 4, 1, 10302, 404128,
     {330368, 0, 0, 1895936, 0},
     {0, 0, 102400, 0, 0},
     {76574, 416928, 641120},
     {800, 25258, 404128, 25258, 0, 0, 796, 4, 0, 309496, 330368}},
    {"citeseer", 0, 4, 16, 10302, 404128,
     {330368, 0, 0, 1895936, 0},
     {0, 0, 102400, 0, 0},
     {76574, 416928, 641120},
     {800, 25258, 404128, 25258, 0, 0, 736, 4, 0, 309496, 330368}},
    {"citeseer", 1, 1, 1, 11612, 68412,
     {160704, 0, 0, 768, 0},
     {0, 0, 51200, 0, 0},
     {35006, 73212, 68508},
     {800, 11402, 68412, 11402, 0, 0, 799, 1, 0, 143224, 160704}},
    {"citeseer", 1, 1, 16, 11612, 68412,
     {160704, 0, 0, 768, 0},
     {0, 0, 51200, 0, 0},
     {35006, 73212, 68508},
     {800, 11402, 68412, 11402, 0, 0, 784, 1, 0, 143224, 160704}},
    {"citeseer", 1, 4, 1, 3148, 68412,
     {155968, 0, 0, 3072, 0},
     {0, 0, 51200, 0, 0},
     {35006, 73212, 68796},
     {800, 11402, 68412, 11402, 0, 0, 796, 4, 0, 143224, 155968}},
    {"citeseer", 1, 4, 16, 3148, 68412,
     {155968, 0, 0, 3072, 0},
     {0, 0, 51200, 0, 0},
     {35006, 73212, 68796},
     {800, 11402, 68412, 11402, 0, 0, 736, 4, 0, 143224, 155968}},
};

TEST(CombinationPin, CyclesTrafficSramAndStatsAreExact)
{
    std::map<std::string, gcn::PhasePlan> plans;
    for (const Pin &pin : kPins) {
        SCOPED_TRACE(std::string(pin.dataset) + " layer " +
                     std::to_string(pin.layer) + " pes=" +
                     std::to_string(pin.pes) + " runahead=" +
                     std::to_string(pin.runahead));
        auto it = plans.find(pin.dataset);
        if (it == plans.end()) {
            gcn::RunOptions opt;
            opt.usePartitioning = true;
            it = plans.emplace(pin.dataset,
                               gcn::buildPhasePlan(
                                   unitWorkload(pin.dataset), opt))
                     .first;
        }
        GrowConfig cfg;
        cfg.numPes = pin.pes;
        cfg.runaheadDegree = pin.runahead;
        GrowSim sim(cfg);
        const auto r = sim.run(combinationProblem(it->second, pin.layer),
                               accel::SimOptions{});

        EXPECT_EQ(r.cycles, pin.cycles);
        EXPECT_EQ(r.macOps, pin.macOps);
        EXPECT_EQ(r.traffic.readBytes, pin.readBytes);
        EXPECT_EQ(r.traffic.writeBytes, pin.writeBytes);
        std::vector<uint64_t> sram;
        for (const auto &s : r.activity.sram)
            sram.push_back(s.accesses);
        EXPECT_EQ(sram, pin.sramAccesses);
        EXPECT_EQ(summedStats(sim.lastEngineStats()), pin.stats);
    }
}

} // namespace
} // namespace grow::core
