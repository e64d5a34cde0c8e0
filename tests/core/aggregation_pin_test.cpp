/**
 * @file
 * Exact pins of GROW's aggregation phase. For the layer-0 and layer-1
 * aggregation problems buildPhasePlan lowers for cora and citeseer
 * (unit tier), over PEs {1, 4}, runahead {1, 16}, HDN policy {pinned,
 * LRU, off}, (LDN, LHS ID) entries {(2, 4), (16, 64), (16, 2)} and
 * DRAM {simple, banked}, one FNV-1a digest per case folds the cycles,
 * every DRAM traffic class, the MAC count, every SRAM activity entry,
 * the per-PE engine counters summed over PEs and the cache hits and
 * misses. At unit scale the pinned HDN cache holds every row, so the
 * LRU and disabled-cache cases carry the misses.
 *
 * Aggregation is where misses return out of order, LDN fills are
 * shared and the LDN and LHS ID tables stall control, so any drift
 * here is a change of the modelled schedule or of its energy inputs,
 * never noise.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/grow.hpp"
#include "gcn/runner.hpp"
#include "util/checksum.hpp"
#include "util/logging.hpp"

namespace grow::core {
namespace {

const gcn::PhasePlan &
unitPlan(const std::string &name)
{
    static std::map<std::string, gcn::GcnWorkload> workloads;
    static std::map<std::string, gcn::PhasePlan> plans;
    auto it = plans.find(name);
    if (it == plans.end()) {
        gcn::WorkloadConfig wc;
        wc.tier = graph::ScaleTier::Unit;
        const auto &w =
            workloads
                .emplace(name, gcn::buildWorkload(
                                   graph::datasetByName(name), wc))
                .first->second;
        gcn::RunOptions opt;
        opt.usePartitioning = true;
        it = plans.emplace(name, gcn::buildPhasePlan(w, opt)).first;
    }
    return it->second;
}

const accel::SpDeGemmProblem &
aggregationProblem(const gcn::PhasePlan &plan, uint32_t layer)
{
    for (const auto &step : plan)
        if (step.layer == layer && step.op == gcn::PhaseOp::Aggregation)
            return step.problem;
    panic("no aggregation step at layer " + std::to_string(layer));
}

enum class Policy { Pinned, Lru, Off };

const char *
policyName(Policy p)
{
    return p == Policy::Pinned ? "pinned"
           : p == Policy::Lru  ? "lru"
                               : "off";
}

/** FNV-1a over every pinned output, each as 8 little-endian bytes. */
uint64_t
digest(const accel::PhaseResult &r, const std::vector<RowEngineStats> &pe)
{
    util::Fnv1a h;
    auto fold = [&h](uint64_t v) {
        unsigned char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<unsigned char>(v >> (8 * i));
        h.update(bytes, sizeof(bytes));
    };
    fold(r.cycles);
    fold(r.macOps);
    for (Bytes b : r.traffic.readBytes)
        fold(b);
    for (Bytes b : r.traffic.writeBytes)
        fold(b);
    for (const auto &s : r.activity.sram) {
        fold(s.capacity);
        fold(s.accesses);
        fold(s.isCam);
    }
    RowEngineStats sum;
    for (const auto &e : pe) {
        sum.rowsProcessed += e.rowsProcessed;
        sum.products += e.products;
        sum.macOps += e.macOps;
        sum.camLookups += e.camLookups;
        sum.ldnStalls += e.ldnStalls;
        sum.lhsIdStalls += e.lhsIdStalls;
        sum.windowStalls += e.windowStalls;
        sum.clustersProcessed += e.clustersProcessed;
        sum.hdnRowsPinned += e.hdnRowsPinned;
        sum.effectualSparseBytes += e.effectualSparseBytes;
        sum.fetchedSparseBytes += e.fetchedSparseBytes;
    }
    for (uint64_t v :
         {sum.rowsProcessed, sum.products, sum.macOps, sum.camLookups,
          sum.ldnStalls, sum.lhsIdStalls, sum.windowStalls,
          sum.clustersProcessed, sum.hdnRowsPinned,
          sum.effectualSparseBytes, sum.fetchedSparseBytes})
        fold(v);
    fold(r.cacheHits);
    fold(r.cacheMisses);
    return h.digest();
}

struct Case
{
    const char *dataset;
    uint32_t layer;
    uint32_t pes;
    uint32_t runahead;
    Policy policy;
    uint32_t ldnEntries;
    uint32_t lhsIdEntries;
    const char *dram;
};

/** The pinned grid, DRAM model innermost. (16, 2) tables make the LHS
 *  ID table, not the LDN table, stall control. */
std::vector<Case>
grid()
{
    std::vector<Case> cases;
    for (const char *dataset : {"cora", "citeseer"})
        for (uint32_t layer : {0u, 1u})
            for (uint32_t pes : {1u, 4u})
                for (uint32_t runahead : {1u, 16u})
                    for (Policy policy :
                         {Policy::Pinned, Policy::Lru, Policy::Off})
                        for (auto [ldn, lhs] :
                             {std::pair{2u, 4u}, std::pair{16u, 64u},
                              std::pair{16u, 2u}})
                            for (const char *dram : {"simple", "banked"})
                                cases.push_back({dataset, layer, pes,
                                                 runahead, policy, ldn,
                                                 lhs, dram});
    return cases;
}

// clang-format off
const std::vector<uint64_t> kPins = {
    0x424210f122d38541ULL, // cora L0 pes=1 ra=1 pinned ldn=2 lhs=4 simple
    0xb9cd6ec69d61c075ULL, // cora L0 pes=1 ra=1 pinned ldn=2 lhs=4 banked
    0x424210f122d38541ULL, // cora L0 pes=1 ra=1 pinned ldn=16 lhs=64 simple
    0xb9cd6ec69d61c075ULL, // cora L0 pes=1 ra=1 pinned ldn=16 lhs=64 banked
    0x424210f122d38541ULL, // cora L0 pes=1 ra=1 pinned ldn=16 lhs=2 simple
    0xb9cd6ec69d61c075ULL, // cora L0 pes=1 ra=1 pinned ldn=16 lhs=2 banked
    0xa357f4e254ea901aULL, // cora L0 pes=1 ra=1 lru ldn=2 lhs=4 simple
    0xe260bd47acb222f5ULL, // cora L0 pes=1 ra=1 lru ldn=2 lhs=4 banked
    0x83d0dbd1970734f4ULL, // cora L0 pes=1 ra=1 lru ldn=16 lhs=64 simple
    0xe505b0db9170ae51ULL, // cora L0 pes=1 ra=1 lru ldn=16 lhs=64 banked
    0x237997140444303aULL, // cora L0 pes=1 ra=1 lru ldn=16 lhs=2 simple
    0xde260b470d7c91d5ULL, // cora L0 pes=1 ra=1 lru ldn=16 lhs=2 banked
    0x17acdfea81b89fedULL, // cora L0 pes=1 ra=1 off ldn=2 lhs=4 simple
    0x12c08febfece729eULL, // cora L0 pes=1 ra=1 off ldn=2 lhs=4 banked
    0xd9e1f0ccf5fd9b9bULL, // cora L0 pes=1 ra=1 off ldn=16 lhs=64 simple
    0xbbc3f2a80233586bULL, // cora L0 pes=1 ra=1 off ldn=16 lhs=64 banked
    0xbb023c7c3831b6edULL, // cora L0 pes=1 ra=1 off ldn=16 lhs=2 simple
    0xf0e7c74e0864dd52ULL, // cora L0 pes=1 ra=1 off ldn=16 lhs=2 banked
    0x75f780abf482ba32ULL, // cora L0 pes=1 ra=16 pinned ldn=2 lhs=4 simple
    0x1f1ba9769f3c9fadULL, // cora L0 pes=1 ra=16 pinned ldn=2 lhs=4 banked
    0x75f780abf482ba32ULL, // cora L0 pes=1 ra=16 pinned ldn=16 lhs=64 simple
    0x1f1ba9769f3c9fadULL, // cora L0 pes=1 ra=16 pinned ldn=16 lhs=64 banked
    0x75f780abf482ba32ULL, // cora L0 pes=1 ra=16 pinned ldn=16 lhs=2 simple
    0x1f1ba9769f3c9fadULL, // cora L0 pes=1 ra=16 pinned ldn=16 lhs=2 banked
    0x2c26b26f4fa026a9ULL, // cora L0 pes=1 ra=16 lru ldn=2 lhs=4 simple
    0x5008e669acbc8b99ULL, // cora L0 pes=1 ra=16 lru ldn=2 lhs=4 banked
    0x17059255c5e164e2ULL, // cora L0 pes=1 ra=16 lru ldn=16 lhs=64 simple
    0xd177422b1d301a36ULL, // cora L0 pes=1 ra=16 lru ldn=16 lhs=64 banked
    0xae1b2b1db55eccc9ULL, // cora L0 pes=1 ra=16 lru ldn=16 lhs=2 simple
    0x977a8745592b2dd9ULL, // cora L0 pes=1 ra=16 lru ldn=16 lhs=2 banked
    0x84b9a01d29bcf899ULL, // cora L0 pes=1 ra=16 off ldn=2 lhs=4 simple
    0x47b216eaf8e02b9bULL, // cora L0 pes=1 ra=16 off ldn=2 lhs=4 banked
    0x6213b9e47389d55bULL, // cora L0 pes=1 ra=16 off ldn=16 lhs=64 simple
    0x573e7db73d640503ULL, // cora L0 pes=1 ra=16 off ldn=16 lhs=64 banked
    0xe15661e5b9d09f7dULL, // cora L0 pes=1 ra=16 off ldn=16 lhs=2 simple
    0xf6d99323dcda0eb2ULL, // cora L0 pes=1 ra=16 off ldn=16 lhs=2 banked
    0x5e79acc5e3b06e4bULL, // cora L0 pes=4 ra=1 pinned ldn=2 lhs=4 simple
    0xb9cd6ec69d61c075ULL, // cora L0 pes=4 ra=1 pinned ldn=2 lhs=4 banked
    0x5e79acc5e3b06e4bULL, // cora L0 pes=4 ra=1 pinned ldn=16 lhs=64 simple
    0xb9cd6ec69d61c075ULL, // cora L0 pes=4 ra=1 pinned ldn=16 lhs=64 banked
    0x5e79acc5e3b06e4bULL, // cora L0 pes=4 ra=1 pinned ldn=16 lhs=2 simple
    0xb9cd6ec69d61c075ULL, // cora L0 pes=4 ra=1 pinned ldn=16 lhs=2 banked
    0x3bcc4f936a9843ffULL, // cora L0 pes=4 ra=1 lru ldn=2 lhs=4 simple
    0xe260bd47acb222f5ULL, // cora L0 pes=4 ra=1 lru ldn=2 lhs=4 banked
    0x946e417b138ec429ULL, // cora L0 pes=4 ra=1 lru ldn=16 lhs=64 simple
    0xe505b0db9170ae51ULL, // cora L0 pes=4 ra=1 lru ldn=16 lhs=64 banked
    0x271e541986ada2dfULL, // cora L0 pes=4 ra=1 lru ldn=16 lhs=2 simple
    0xde260b470d7c91d5ULL, // cora L0 pes=4 ra=1 lru ldn=16 lhs=2 banked
    0x2add7214a09d3cf4ULL, // cora L0 pes=4 ra=1 off ldn=2 lhs=4 simple
    0x12c08febfece729eULL, // cora L0 pes=4 ra=1 off ldn=2 lhs=4 banked
    0xa7f6cc1801a5369bULL, // cora L0 pes=4 ra=1 off ldn=16 lhs=64 simple
    0xbbc3f2a80233586bULL, // cora L0 pes=4 ra=1 off ldn=16 lhs=64 banked
    0x8de84c9ec2f41c74ULL, // cora L0 pes=4 ra=1 off ldn=16 lhs=2 simple
    0xf0e7c74e0864dd52ULL, // cora L0 pes=4 ra=1 off ldn=16 lhs=2 banked
    0x860e1c8d863d1c38ULL, // cora L0 pes=4 ra=16 pinned ldn=2 lhs=4 simple
    0x1f1ba9769f3c9fadULL, // cora L0 pes=4 ra=16 pinned ldn=2 lhs=4 banked
    0x860e1c8d863d1c38ULL, // cora L0 pes=4 ra=16 pinned ldn=16 lhs=64 simple
    0x1f1ba9769f3c9fadULL, // cora L0 pes=4 ra=16 pinned ldn=16 lhs=64 banked
    0x860e1c8d863d1c38ULL, // cora L0 pes=4 ra=16 pinned ldn=16 lhs=2 simple
    0x1f1ba9769f3c9fadULL, // cora L0 pes=4 ra=16 pinned ldn=16 lhs=2 banked
    0xea40be5e49b69cbeULL, // cora L0 pes=4 ra=16 lru ldn=2 lhs=4 simple
    0x5008e669acbc8b99ULL, // cora L0 pes=4 ra=16 lru ldn=2 lhs=4 banked
    0xfd03ba18c488e03cULL, // cora L0 pes=4 ra=16 lru ldn=16 lhs=64 simple
    0xd177422b1d301a36ULL, // cora L0 pes=4 ra=16 lru ldn=16 lhs=64 banked
    0xf179dfbc965cb71eULL, // cora L0 pes=4 ra=16 lru ldn=16 lhs=2 simple
    0x977a8745592b2dd9ULL, // cora L0 pes=4 ra=16 lru ldn=16 lhs=2 banked
    0xce52eb59d7cbfb80ULL, // cora L0 pes=4 ra=16 off ldn=2 lhs=4 simple
    0x47b216eaf8e02b9bULL, // cora L0 pes=4 ra=16 off ldn=2 lhs=4 banked
    0x7dac338d31cf4e56ULL, // cora L0 pes=4 ra=16 off ldn=16 lhs=64 simple
    0x573e7db73d640503ULL, // cora L0 pes=4 ra=16 off ldn=16 lhs=64 banked
    0x5aa24d5163ed2080ULL, // cora L0 pes=4 ra=16 off ldn=16 lhs=2 simple
    0xf6d99323dcda0eb2ULL, // cora L0 pes=4 ra=16 off ldn=16 lhs=2 banked
    0x3823aa5d064ad9e2ULL, // cora L1 pes=1 ra=1 pinned ldn=2 lhs=4 simple
    0x38dd28d56229a3b2ULL, // cora L1 pes=1 ra=1 pinned ldn=2 lhs=4 banked
    0x3823aa5d064ad9e2ULL, // cora L1 pes=1 ra=1 pinned ldn=16 lhs=64 simple
    0x38dd28d56229a3b2ULL, // cora L1 pes=1 ra=1 pinned ldn=16 lhs=64 banked
    0x3823aa5d064ad9e2ULL, // cora L1 pes=1 ra=1 pinned ldn=16 lhs=2 simple
    0x38dd28d56229a3b2ULL, // cora L1 pes=1 ra=1 pinned ldn=16 lhs=2 banked
    0x1054ca0a2a97e904ULL, // cora L1 pes=1 ra=1 lru ldn=2 lhs=4 simple
    0x3a3365a8910fe4e8ULL, // cora L1 pes=1 ra=1 lru ldn=2 lhs=4 banked
    0x4930d2165488ced3ULL, // cora L1 pes=1 ra=1 lru ldn=16 lhs=64 simple
    0x2dfb129e4fe69d7fULL, // cora L1 pes=1 ra=1 lru ldn=16 lhs=64 banked
    0x20dd3dd6e367caa4ULL, // cora L1 pes=1 ra=1 lru ldn=16 lhs=2 simple
    0xf0a2be7b3003c408ULL, // cora L1 pes=1 ra=1 lru ldn=16 lhs=2 banked
    0xc1f36600c75c1106ULL, // cora L1 pes=1 ra=1 off ldn=2 lhs=4 simple
    0x5169ffccbb91c0c9ULL, // cora L1 pes=1 ra=1 off ldn=2 lhs=4 banked
    0x98dd04d1d7ed0c0eULL, // cora L1 pes=1 ra=1 off ldn=16 lhs=64 simple
    0xa2401ed74a7c1bf7ULL, // cora L1 pes=1 ra=1 off ldn=16 lhs=64 banked
    0x5a2e2bb426444d86ULL, // cora L1 pes=1 ra=1 off ldn=16 lhs=2 simple
    0x23ad21e908b879c9ULL, // cora L1 pes=1 ra=1 off ldn=16 lhs=2 banked
    0xdd4122eabaf6dbb1ULL, // cora L1 pes=1 ra=16 pinned ldn=2 lhs=4 simple
    0x94fca69c714b79fcULL, // cora L1 pes=1 ra=16 pinned ldn=2 lhs=4 banked
    0xdd4122eabaf6dbb1ULL, // cora L1 pes=1 ra=16 pinned ldn=16 lhs=64 simple
    0x94fca69c714b79fcULL, // cora L1 pes=1 ra=16 pinned ldn=16 lhs=64 banked
    0xdd4122eabaf6dbb1ULL, // cora L1 pes=1 ra=16 pinned ldn=16 lhs=2 simple
    0x94fca69c714b79fcULL, // cora L1 pes=1 ra=16 pinned ldn=16 lhs=2 banked
    0xa7d5221ef9092ec9ULL, // cora L1 pes=1 ra=16 lru ldn=2 lhs=4 simple
    0xff9d15e5bccfdf95ULL, // cora L1 pes=1 ra=16 lru ldn=2 lhs=4 banked
    0x03550a92d5c2693aULL, // cora L1 pes=1 ra=16 lru ldn=16 lhs=64 simple
    0x670eb535d333f63eULL, // cora L1 pes=1 ra=16 lru ldn=16 lhs=64 banked
    0x2577b33c00957e69ULL, // cora L1 pes=1 ra=16 lru ldn=16 lhs=2 simple
    0xb2840764897d22b5ULL, // cora L1 pes=1 ra=16 lru ldn=16 lhs=2 banked
    0xbd93d468f4d763ddULL, // cora L1 pes=1 ra=16 off ldn=2 lhs=4 simple
    0x324d2e4e41ad42e1ULL, // cora L1 pes=1 ra=16 off ldn=2 lhs=4 banked
    0x0d3b5b9d30bfcce0ULL, // cora L1 pes=1 ra=16 off ldn=16 lhs=64 simple
    0xa5dadf09e204159eULL, // cora L1 pes=1 ra=16 off ldn=16 lhs=64 banked
    0x2b11f5c666c3151dULL, // cora L1 pes=1 ra=16 off ldn=16 lhs=2 simple
    0xd4caa711fdaf0ba1ULL, // cora L1 pes=1 ra=16 off ldn=16 lhs=2 banked
    0x5903a3620435cc47ULL, // cora L1 pes=4 ra=1 pinned ldn=2 lhs=4 simple
    0x38dd28d56229a3b2ULL, // cora L1 pes=4 ra=1 pinned ldn=2 lhs=4 banked
    0x5903a3620435cc47ULL, // cora L1 pes=4 ra=1 pinned ldn=16 lhs=64 simple
    0x38dd28d56229a3b2ULL, // cora L1 pes=4 ra=1 pinned ldn=16 lhs=64 banked
    0x5903a3620435cc47ULL, // cora L1 pes=4 ra=1 pinned ldn=16 lhs=2 simple
    0x38dd28d56229a3b2ULL, // cora L1 pes=4 ra=1 pinned ldn=16 lhs=2 banked
    0x76e534b5f572aeedULL, // cora L1 pes=4 ra=1 lru ldn=2 lhs=4 simple
    0x3a3365a8910fe4e8ULL, // cora L1 pes=4 ra=1 lru ldn=2 lhs=4 banked
    0x5d45dba49e636b95ULL, // cora L1 pes=4 ra=1 lru ldn=16 lhs=64 simple
    0x2dfb129e4fe69d7fULL, // cora L1 pes=4 ra=1 lru ldn=16 lhs=64 banked
    0xaf2ca24cafb5ad0dULL, // cora L1 pes=4 ra=1 lru ldn=16 lhs=2 simple
    0xf0a2be7b3003c408ULL, // cora L1 pes=4 ra=1 lru ldn=16 lhs=2 banked
    0x3293bbab7de08f7cULL, // cora L1 pes=4 ra=1 off ldn=2 lhs=4 simple
    0x5169ffccbb91c0c9ULL, // cora L1 pes=4 ra=1 off ldn=2 lhs=4 banked
    0xc793456ead676bd8ULL, // cora L1 pes=4 ra=1 off ldn=16 lhs=64 simple
    0xa2401ed74a7c1bf7ULL, // cora L1 pes=4 ra=1 off ldn=16 lhs=64 banked
    0x4b66149e060d98fcULL, // cora L1 pes=4 ra=1 off ldn=16 lhs=2 simple
    0x23ad21e908b879c9ULL, // cora L1 pes=4 ra=1 off ldn=16 lhs=2 banked
    0xf7b30480fbd6951cULL, // cora L1 pes=4 ra=16 pinned ldn=2 lhs=4 simple
    0x94fca69c714b79fcULL, // cora L1 pes=4 ra=16 pinned ldn=2 lhs=4 banked
    0xf7b30480fbd6951cULL, // cora L1 pes=4 ra=16 pinned ldn=16 lhs=64 simple
    0x94fca69c714b79fcULL, // cora L1 pes=4 ra=16 pinned ldn=16 lhs=64 banked
    0xf7b30480fbd6951cULL, // cora L1 pes=4 ra=16 pinned ldn=16 lhs=2 simple
    0x94fca69c714b79fcULL, // cora L1 pes=4 ra=16 pinned ldn=16 lhs=2 banked
    0x510b0ab5fb6b0d56ULL, // cora L1 pes=4 ra=16 lru ldn=2 lhs=4 simple
    0xff9d15e5bccfdf95ULL, // cora L1 pes=4 ra=16 lru ldn=2 lhs=4 banked
    0xa5aec142d2fca575ULL, // cora L1 pes=4 ra=16 lru ldn=16 lhs=64 simple
    0x670eb535d333f63eULL, // cora L1 pes=4 ra=16 lru ldn=16 lhs=64 banked
    0xfa39ce280c2ff3b6ULL, // cora L1 pes=4 ra=16 lru ldn=16 lhs=2 simple
    0xb2840764897d22b5ULL, // cora L1 pes=4 ra=16 lru ldn=16 lhs=2 banked
    0x5683e1960ea90eccULL, // cora L1 pes=4 ra=16 off ldn=2 lhs=4 simple
    0x324d2e4e41ad42e1ULL, // cora L1 pes=4 ra=16 off ldn=2 lhs=4 banked
    0x56d96d8e04d01d04ULL, // cora L1 pes=4 ra=16 off ldn=16 lhs=64 simple
    0xa5dadf09e204159eULL, // cora L1 pes=4 ra=16 off ldn=16 lhs=64 banked
    0xed2fb1c07890d10cULL, // cora L1 pes=4 ra=16 off ldn=16 lhs=2 simple
    0xd4caa711fdaf0ba1ULL, // cora L1 pes=4 ra=16 off ldn=16 lhs=2 banked
    0x7a58fcbadf9550d4ULL, // citeseer L0 pes=1 ra=1 pinned ldn=2 lhs=4 simple
    0x5869c1c0d8f6f7d3ULL, // citeseer L0 pes=1 ra=1 pinned ldn=2 lhs=4 banked
    0x7a58fcbadf9550d4ULL, // citeseer L0 pes=1 ra=1 pinned ldn=16 lhs=64 simple
    0x5869c1c0d8f6f7d3ULL, // citeseer L0 pes=1 ra=1 pinned ldn=16 lhs=64 banked
    0x7a58fcbadf9550d4ULL, // citeseer L0 pes=1 ra=1 pinned ldn=16 lhs=2 simple
    0x5869c1c0d8f6f7d3ULL, // citeseer L0 pes=1 ra=1 pinned ldn=16 lhs=2 banked
    0x349bb7b16d84b617ULL, // citeseer L0 pes=1 ra=1 lru ldn=2 lhs=4 simple
    0x1e61e38635049539ULL, // citeseer L0 pes=1 ra=1 lru ldn=2 lhs=4 banked
    0x16652b8b47482a7cULL, // citeseer L0 pes=1 ra=1 lru ldn=16 lhs=64 simple
    0x9d6cc1b20291a212ULL, // citeseer L0 pes=1 ra=1 lru ldn=16 lhs=64 banked
    0xf3c67315fc821fb7ULL, // citeseer L0 pes=1 ra=1 lru ldn=16 lhs=2 simple
    0x81cf7a994fd30839ULL, // citeseer L0 pes=1 ra=1 lru ldn=16 lhs=2 banked
    0xd01e2641ace14f83ULL, // citeseer L0 pes=1 ra=1 off ldn=2 lhs=4 simple
    0x84270726c47c29efULL, // citeseer L0 pes=1 ra=1 off ldn=2 lhs=4 banked
    0x1b2117f7cf11e30dULL, // citeseer L0 pes=1 ra=1 off ldn=16 lhs=64 simple
    0x6df6f96560a51721ULL, // citeseer L0 pes=1 ra=1 off ldn=16 lhs=64 banked
    0xacb678a04f33bd65ULL, // citeseer L0 pes=1 ra=1 off ldn=16 lhs=2 simple
    0x8e1f77de60c42a29ULL, // citeseer L0 pes=1 ra=1 off ldn=16 lhs=2 banked
    0xa28676b738812e43ULL, // citeseer L0 pes=1 ra=16 pinned ldn=2 lhs=4 simple
    0x4312062f296ede30ULL, // citeseer L0 pes=1 ra=16 pinned ldn=2 lhs=4 banked
    0xa28676b738812e43ULL, // citeseer L0 pes=1 ra=16 pinned ldn=16 lhs=64 simple
    0x4312062f296ede30ULL, // citeseer L0 pes=1 ra=16 pinned ldn=16 lhs=64 banked
    0xa28676b738812e43ULL, // citeseer L0 pes=1 ra=16 pinned ldn=16 lhs=2 simple
    0x4312062f296ede30ULL, // citeseer L0 pes=1 ra=16 pinned ldn=16 lhs=2 banked
    0xbad5d63148b0e5fdULL, // citeseer L0 pes=1 ra=16 lru ldn=2 lhs=4 simple
    0x77eb29dcf284d2f7ULL, // citeseer L0 pes=1 ra=16 lru ldn=2 lhs=4 banked
    0x9d8f6ebf556a4e4aULL, // citeseer L0 pes=1 ra=16 lru ldn=16 lhs=64 simple
    0x940626a285ca2e10ULL, // citeseer L0 pes=1 ra=16 lru ldn=16 lhs=64 banked
    0x65bba9cffe7f2c5dULL, // citeseer L0 pes=1 ra=16 lru ldn=16 lhs=2 simple
    0x28aed2bf2de6a237ULL, // citeseer L0 pes=1 ra=16 lru ldn=16 lhs=2 banked
    0xf9ed6c815756eb32ULL, // citeseer L0 pes=1 ra=16 off ldn=2 lhs=4 simple
    0x1ab4cebbe6e2bd01ULL, // citeseer L0 pes=1 ra=16 off ldn=2 lhs=4 banked
    0x450717f12da153b3ULL, // citeseer L0 pes=1 ra=16 off ldn=16 lhs=64 simple
    0xb3e2e491761205d0ULL, // citeseer L0 pes=1 ra=16 off ldn=16 lhs=64 banked
    0xb7c13eea9f935f39ULL, // citeseer L0 pes=1 ra=16 off ldn=16 lhs=2 simple
    0x436bb1bb52c47a9fULL, // citeseer L0 pes=1 ra=16 off ldn=16 lhs=2 banked
    0x7f8361c2814ea76dULL, // citeseer L0 pes=4 ra=1 pinned ldn=2 lhs=4 simple
    0x5869c1c0d8f6f7d3ULL, // citeseer L0 pes=4 ra=1 pinned ldn=2 lhs=4 banked
    0x7f8361c2814ea76dULL, // citeseer L0 pes=4 ra=1 pinned ldn=16 lhs=64 simple
    0x5869c1c0d8f6f7d3ULL, // citeseer L0 pes=4 ra=1 pinned ldn=16 lhs=64 banked
    0x7f8361c2814ea76dULL, // citeseer L0 pes=4 ra=1 pinned ldn=16 lhs=2 simple
    0x5869c1c0d8f6f7d3ULL, // citeseer L0 pes=4 ra=1 pinned ldn=16 lhs=2 banked
    0x9f925cbbd25962ffULL, // citeseer L0 pes=4 ra=1 lru ldn=2 lhs=4 simple
    0x1e61e38635049539ULL, // citeseer L0 pes=4 ra=1 lru ldn=2 lhs=4 banked
    0xcc975cd50774b6acULL, // citeseer L0 pes=4 ra=1 lru ldn=16 lhs=64 simple
    0x9d6cc1b20291a212ULL, // citeseer L0 pes=4 ra=1 lru ldn=16 lhs=64 banked
    0x980a027f823fd2dfULL, // citeseer L0 pes=4 ra=1 lru ldn=16 lhs=2 simple
    0x81cf7a994fd30839ULL, // citeseer L0 pes=4 ra=1 lru ldn=16 lhs=2 banked
    0x29e11fa5dac97b5bULL, // citeseer L0 pes=4 ra=1 off ldn=2 lhs=4 simple
    0x84270726c47c29efULL, // citeseer L0 pes=4 ra=1 off ldn=2 lhs=4 banked
    0x18a2ab2ea8f805aaULL, // citeseer L0 pes=4 ra=1 off ldn=16 lhs=64 simple
    0x6df6f96560a51721ULL, // citeseer L0 pes=4 ra=1 off ldn=16 lhs=64 banked
    0x36df851260a56242ULL, // citeseer L0 pes=4 ra=1 off ldn=16 lhs=2 simple
    0x8e1f77de60c42a29ULL, // citeseer L0 pes=4 ra=1 off ldn=16 lhs=2 banked
    0x23c0aa68b697bdc2ULL, // citeseer L0 pes=4 ra=16 pinned ldn=2 lhs=4 simple
    0x4312062f296ede30ULL, // citeseer L0 pes=4 ra=16 pinned ldn=2 lhs=4 banked
    0x23c0aa68b697bdc2ULL, // citeseer L0 pes=4 ra=16 pinned ldn=16 lhs=64 simple
    0x4312062f296ede30ULL, // citeseer L0 pes=4 ra=16 pinned ldn=16 lhs=64 banked
    0x23c0aa68b697bdc2ULL, // citeseer L0 pes=4 ra=16 pinned ldn=16 lhs=2 simple
    0x4312062f296ede30ULL, // citeseer L0 pes=4 ra=16 pinned ldn=16 lhs=2 banked
    0xca1dcbda3db88900ULL, // citeseer L0 pes=4 ra=16 lru ldn=2 lhs=4 simple
    0x77eb29dcf284d2f7ULL, // citeseer L0 pes=4 ra=16 lru ldn=2 lhs=4 banked
    0x9855cf00e6012011ULL, // citeseer L0 pes=4 ra=16 lru ldn=16 lhs=64 simple
    0x940626a285ca2e10ULL, // citeseer L0 pes=4 ra=16 lru ldn=16 lhs=64 banked
    0x4469157327d71460ULL, // citeseer L0 pes=4 ra=16 lru ldn=16 lhs=2 simple
    0x28aed2bf2de6a237ULL, // citeseer L0 pes=4 ra=16 lru ldn=16 lhs=2 banked
    0x5d32272957bee449ULL, // citeseer L0 pes=4 ra=16 off ldn=2 lhs=4 simple
    0x1ab4cebbe6e2bd01ULL, // citeseer L0 pes=4 ra=16 off ldn=2 lhs=4 banked
    0x3a2c78a1c22f89cdULL, // citeseer L0 pes=4 ra=16 off ldn=16 lhs=64 simple
    0xb3e2e491761205d0ULL, // citeseer L0 pes=4 ra=16 off ldn=16 lhs=64 banked
    0x7381e1794c394cd1ULL, // citeseer L0 pes=4 ra=16 off ldn=16 lhs=2 simple
    0x436bb1bb52c47a9fULL, // citeseer L0 pes=4 ra=16 off ldn=16 lhs=2 banked
    0x72b75bc3c268a124ULL, // citeseer L1 pes=1 ra=1 pinned ldn=2 lhs=4 simple
    0x9cfc6454b3b613cdULL, // citeseer L1 pes=1 ra=1 pinned ldn=2 lhs=4 banked
    0x72b75bc3c268a124ULL, // citeseer L1 pes=1 ra=1 pinned ldn=16 lhs=64 simple
    0x9cfc6454b3b613cdULL, // citeseer L1 pes=1 ra=1 pinned ldn=16 lhs=64 banked
    0x72b75bc3c268a124ULL, // citeseer L1 pes=1 ra=1 pinned ldn=16 lhs=2 simple
    0x9cfc6454b3b613cdULL, // citeseer L1 pes=1 ra=1 pinned ldn=16 lhs=2 banked
    0x364819c6ea5c4540ULL, // citeseer L1 pes=1 ra=1 lru ldn=2 lhs=4 simple
    0x3a64b6baa7c6ad3dULL, // citeseer L1 pes=1 ra=1 lru ldn=2 lhs=4 banked
    0x7a31e8655a8b5f97ULL, // citeseer L1 pes=1 ra=1 lru ldn=16 lhs=64 simple
    0x3ade3e6f05f492c2ULL, // citeseer L1 pes=1 ra=1 lru ldn=16 lhs=64 banked
    0x924d3e2149a426e0ULL, // citeseer L1 pes=1 ra=1 lru ldn=16 lhs=2 simple
    0x76f92dc50f4b567dULL, // citeseer L1 pes=1 ra=1 lru ldn=16 lhs=2 banked
    0x26061edb0a879293ULL, // citeseer L1 pes=1 ra=1 off ldn=2 lhs=4 simple
    0x5efb713f96b4416cULL, // citeseer L1 pes=1 ra=1 off ldn=2 lhs=4 banked
    0x5b2b2af597c01513ULL, // citeseer L1 pes=1 ra=1 off ldn=16 lhs=64 simple
    0xad2cbc35072f94acULL, // citeseer L1 pes=1 ra=1 off ldn=16 lhs=64 banked
    0xa2518da9519529a3ULL, // citeseer L1 pes=1 ra=1 off ldn=16 lhs=2 simple
    0x47e3aa0e8dda148aULL, // citeseer L1 pes=1 ra=1 off ldn=16 lhs=2 banked
    0xd0aa45e07aba84d3ULL, // citeseer L1 pes=1 ra=16 pinned ldn=2 lhs=4 simple
    0xf5ba024b668014e9ULL, // citeseer L1 pes=1 ra=16 pinned ldn=2 lhs=4 banked
    0xd0aa45e07aba84d3ULL, // citeseer L1 pes=1 ra=16 pinned ldn=16 lhs=64 simple
    0xf5ba024b668014e9ULL, // citeseer L1 pes=1 ra=16 pinned ldn=16 lhs=64 banked
    0xd0aa45e07aba84d3ULL, // citeseer L1 pes=1 ra=16 pinned ldn=16 lhs=2 simple
    0xf5ba024b668014e9ULL, // citeseer L1 pes=1 ra=16 pinned ldn=16 lhs=2 banked
    0x81db045d47c62735ULL, // citeseer L1 pes=1 ra=16 lru ldn=2 lhs=4 simple
    0x6ea725b84cf64c16ULL, // citeseer L1 pes=1 ra=16 lru ldn=2 lhs=4 banked
    0x9839d6b37afe32e8ULL, // citeseer L1 pes=1 ra=16 lru ldn=16 lhs=64 simple
    0xa430bf88b08766e0ULL, // citeseer L1 pes=1 ra=16 lru ldn=16 lhs=64 banked
    0x2aa6ca2c7cf60195ULL, // citeseer L1 pes=1 ra=16 lru ldn=16 lhs=2 simple
    0x6d3bdbba87fb1816ULL, // citeseer L1 pes=1 ra=16 lru ldn=16 lhs=2 banked
    0x521fb828b61a88fdULL, // citeseer L1 pes=1 ra=16 off ldn=2 lhs=4 simple
    0xc0b8249d81693566ULL, // citeseer L1 pes=1 ra=16 off ldn=2 lhs=4 banked
    0x95779e7f341c30a4ULL, // citeseer L1 pes=1 ra=16 off ldn=16 lhs=64 simple
    0x59545b0294b66b03ULL, // citeseer L1 pes=1 ra=16 off ldn=16 lhs=64 banked
    0x71ab5997dae6a7a4ULL, // citeseer L1 pes=1 ra=16 off ldn=16 lhs=2 simple
    0xdd3502e0403d59fbULL, // citeseer L1 pes=1 ra=16 off ldn=16 lhs=2 banked
    0x06152920a8f0f806ULL, // citeseer L1 pes=4 ra=1 pinned ldn=2 lhs=4 simple
    0x9cfc6454b3b613cdULL, // citeseer L1 pes=4 ra=1 pinned ldn=2 lhs=4 banked
    0x06152920a8f0f806ULL, // citeseer L1 pes=4 ra=1 pinned ldn=16 lhs=64 simple
    0x9cfc6454b3b613cdULL, // citeseer L1 pes=4 ra=1 pinned ldn=16 lhs=64 banked
    0x06152920a8f0f806ULL, // citeseer L1 pes=4 ra=1 pinned ldn=16 lhs=2 simple
    0x9cfc6454b3b613cdULL, // citeseer L1 pes=4 ra=1 pinned ldn=16 lhs=2 banked
    0x631a0d37d318c74eULL, // citeseer L1 pes=4 ra=1 lru ldn=2 lhs=4 simple
    0x3a64b6baa7c6ad3dULL, // citeseer L1 pes=4 ra=1 lru ldn=2 lhs=4 banked
    0xf201a8ae4f59b0c1ULL, // citeseer L1 pes=4 ra=1 lru ldn=16 lhs=64 simple
    0x3ade3e6f05f492c2ULL, // citeseer L1 pes=4 ra=1 lru ldn=16 lhs=64 banked
    0xf4bf987bd7f42c2eULL, // citeseer L1 pes=4 ra=1 lru ldn=16 lhs=2 simple
    0x76f92dc50f4b567dULL, // citeseer L1 pes=4 ra=1 lru ldn=16 lhs=2 banked
    0x5a9187cbf3de6813ULL, // citeseer L1 pes=4 ra=1 off ldn=2 lhs=4 simple
    0x5efb713f96b4416cULL, // citeseer L1 pes=4 ra=1 off ldn=2 lhs=4 banked
    0x9d74acac3fa76921ULL, // citeseer L1 pes=4 ra=1 off ldn=16 lhs=64 simple
    0xad2cbc35072f94acULL, // citeseer L1 pes=4 ra=1 off ldn=16 lhs=64 banked
    0xee2e885fd10d08d6ULL, // citeseer L1 pes=4 ra=1 off ldn=16 lhs=2 simple
    0x47e3aa0e8dda148aULL, // citeseer L1 pes=4 ra=1 off ldn=16 lhs=2 banked
    0xf60629bbaf9d2f29ULL, // citeseer L1 pes=4 ra=16 pinned ldn=2 lhs=4 simple
    0xf5ba024b668014e9ULL, // citeseer L1 pes=4 ra=16 pinned ldn=2 lhs=4 banked
    0xf60629bbaf9d2f29ULL, // citeseer L1 pes=4 ra=16 pinned ldn=16 lhs=64 simple
    0xf5ba024b668014e9ULL, // citeseer L1 pes=4 ra=16 pinned ldn=16 lhs=64 banked
    0xf60629bbaf9d2f29ULL, // citeseer L1 pes=4 ra=16 pinned ldn=16 lhs=2 simple
    0xf5ba024b668014e9ULL, // citeseer L1 pes=4 ra=16 pinned ldn=16 lhs=2 banked
    0x1bf67a9818245dfeULL, // citeseer L1 pes=4 ra=16 lru ldn=2 lhs=4 simple
    0x6ea725b84cf64c16ULL, // citeseer L1 pes=4 ra=16 lru ldn=2 lhs=4 banked
    0x6ab26f0144e76c66ULL, // citeseer L1 pes=4 ra=16 lru ldn=16 lhs=64 simple
    0xa430bf88b08766e0ULL, // citeseer L1 pes=4 ra=16 lru ldn=16 lhs=64 banked
    0x8cb02fe8e19d54deULL, // citeseer L1 pes=4 ra=16 lru ldn=16 lhs=2 simple
    0x6d3bdbba87fb1816ULL, // citeseer L1 pes=4 ra=16 lru ldn=16 lhs=2 banked
    0x346462307e9edd96ULL, // citeseer L1 pes=4 ra=16 off ldn=2 lhs=4 simple
    0xc0b8249d81693566ULL, // citeseer L1 pes=4 ra=16 off ldn=2 lhs=4 banked
    0xff5b91b6ff5911e7ULL, // citeseer L1 pes=4 ra=16 off ldn=16 lhs=64 simple
    0x59545b0294b66b03ULL, // citeseer L1 pes=4 ra=16 off ldn=16 lhs=64 banked
    0x054c022c3ab928cdULL, // citeseer L1 pes=4 ra=16 off ldn=16 lhs=2 simple
    0xdd3502e0403d59fbULL, // citeseer L1 pes=4 ra=16 off ldn=16 lhs=2 banked
};
// clang-format on

TEST(AggregationPin, CyclesTrafficSramStatsAndHitsAreExact)
{
    const auto cases = grid();
    ASSERT_EQ(kPins.size(), cases.size());
    for (size_t i = 0; i < cases.size(); ++i) {
        const Case &c = cases[i];
        GrowConfig cfg;
        cfg.numPes = c.pes;
        cfg.runaheadDegree = c.runahead;
        cfg.hdnCacheEnabled = c.policy != Policy::Off;
        cfg.hdnPolicy =
            c.policy == Policy::Lru ? HdnPolicy::Lru : HdnPolicy::Pinned;
        cfg.ldnEntries = c.ldnEntries;
        cfg.lhsIdEntries = c.lhsIdEntries;
        accel::SimOptions opt;
        opt.dramKind = c.dram;
        GrowSim sim(cfg);
        const auto r =
            sim.run(aggregationProblem(unitPlan(c.dataset), c.layer), opt);
        const uint64_t got = digest(r, sim.lastEngineStats());
        char line[160];
        std::snprintf(line, sizeof(line),
                      "0x%016llxULL, // %s L%u pes=%u ra=%u %s ldn=%u "
                      "lhs=%u %s",
                      static_cast<unsigned long long>(got), c.dataset,
                      c.layer, c.pes, c.runahead, policyName(c.policy),
                      c.ldnEntries, c.lhsIdEntries, c.dram);
        EXPECT_EQ(got, kPins[i]) << line;
    }
}

} // namespace
} // namespace grow::core
