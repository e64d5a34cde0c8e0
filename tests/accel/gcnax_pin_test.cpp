/**
 * @file
 * Exact pins of the GCNAX baseline: for random feature-shaped and
 * adjacency-shaped operands, four output widths and four buffer
 * configurations, this fixes the tiling search's choice (Tm, Tk, Tn
 * and its estimated traffic), the cycles of run(), and a digest of
 * run()'s traffic by class, sparse-fetch accounting and SRAM activity.
 *
 * The configurations cover the default provisioning, a dense tile
 * height that is not a power of two, the smallest-legal-Tm fallback
 * with a split N loop, and dense tiles narrower than a DRAM line. Any
 * drift is a change of the modelled GCNAX dataflow, never noise.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "accel/gcnax.hpp"
#include "graph/generators.hpp"
#include "graph/normalize.hpp"
#include "sparse/convert.hpp"
#include "util/checksum.hpp"
#include "util/random.hpp"

namespace grow::accel {
namespace {

struct Operand
{
    const char *name;
    sparse::CsrMatrix lhs;
};

std::vector<Operand>
operands()
{
    auto features = [](uint32_t rows, uint32_t cols, double density,
                       uint64_t seed) {
        Rng rng(seed);
        return sparse::randomCsr(rows, cols, density, rng);
    };
    graph::DcSbmParams p;
    p.nodes = 4000;
    p.avgDegree = 6.0;
    p.communities = 6;
    p.seed = 5;
    std::vector<Operand> ops;
    ops.push_back({"x 2708x1433 @ 0.0127", features(2708, 1433, 0.0127, 1)});
    ops.push_back({"x 4000x500 @ 0.1", features(4000, 500, 0.1, 2)});
    ops.push_back({"x 1500x300 @ 0.78", features(1500, 300, 0.78, 3)});
    ops.push_back({"x 3000x37 @ 0.5", features(3000, 37, 0.5, 4)});
    ops.push_back({"a dc-sbm 4000",
                   graph::normalizedAdjacency(graph::generateDcSbm(p),
                                              true)});
    ops.push_back({"a 5000x5000 @ 0.0008", features(5000, 5000, 0.0008, 6)});
    return ops;
}

std::vector<std::pair<const char *, GcnaxConfig>>
configs()
{
    GcnaxConfig oddK; // dense tiles of 24, 48, 96, ... rows
    oddK.minTileK = 24;
    oddK.minTileM = 48;
    GcnaxConfig fallback; // Tm below its minimum; N split in 8-wide tiles
    fallback.sparseBufBytes = 8 * 1024;
    fallback.denseBufBytes = 1024;
    fallback.outBufBytes = 16 * 1024;
    GcnaxConfig narrow; // 2-wide dense tiles: 16 B rows in 64 B lines
    narrow.denseBufBytes = 256;
    return {{"default", GcnaxConfig{}},
            {"minTileK=24", oddK},
            {"fallback", fallback},
            {"narrow", narrow}};
}

constexpr uint32_t kRhsCols[] = {3, 16, 64, 200};

/** Every modelled output of run() beyond cycles, in one FNV-1a. */
uint64_t
digest(const PhaseResult &r)
{
    util::Fnv1a h;
    auto fold = [&h](uint64_t v) { h.update(&v, sizeof(v)); };
    for (Bytes b : r.traffic.readBytes)
        fold(b);
    for (Bytes b : r.traffic.writeBytes)
        fold(b);
    fold(r.macOps);
    fold(r.effectualSparseBytes);
    fold(r.fetchedSparseBytes);
    fold(r.activity.macOps);
    fold(r.activity.dramBytes);
    fold(r.activity.cycles);
    fold(r.activity.onChipSramBytes);
    for (const auto &s : r.activity.sram) {
        fold(s.capacity);
        fold(s.accesses);
        fold(s.isCam);
    }
    return h.digest();
}

struct Pin
{
    uint32_t tm;
    uint32_t tk;
    uint32_t tn;
    Bytes estimatedTraffic;
    Cycle cycles;
    uint64_t digest;
};

// Grid order: operand (outer), config, rhs width (inner).
// clang-format off
const std::vector<Pin> kPins = {
    {512, 16, 3, 929856, 53713, 0x23c0411f8d1f966fULL}, // x 2708x1433 @ 0.0127, default, n=3
    {512, 16, 16, 2105408, 53713, 0x593c6200151a6368ULL}, // x 2708x1433 @ 0.0127, default, n=16
    {512, 16, 64, 6446912, 201592, 0x90bef391144f84c3ULL}, // x 2708x1433 @ 0.0127, default, n=64
    {128, 64, 200, 55427008, 644957, 0xe3ee698765cec99eULL}, // x 2708x1433 @ 0.0127, default, n=200
    {256, 24, 3, 1114688, 54673, 0x250e198fe0f340bcULL}, // x 2708x1433 @ 0.0127, minTileK=24, n=3
    {256, 24, 16, 3035200, 54673, 0x3379cc64dfee95e3ULL}, // x 2708x1433 @ 0.0127, minTileK=24, n=16
    {256, 24, 64, 10128064, 202552, 0xc873da957ab2af5dULL}, // x 2708x1433 @ 0.0127, minTileK=24, n=64
    {128, 48, 200, 55447040, 646189, 0xd06365d1412ffad7ULL}, // x 2708x1433 @ 0.0127, minTileK=24, n=200
    {64, 16, 3, 2584064, 80329, 0x91f2a5505144fd35ULL}, // x 2708x1433 @ 0.0127, fallback, n=3
    {64, 16, 8, 10306944, 160558, 0x046e1068701174c8ULL}, // x 2708x1433 @ 0.0127, fallback, n=16
    {64, 16, 8, 41227776, 641932, 0x959fcabcc37af1dbULL}, // x 2708x1433 @ 0.0127, fallback, n=64
    {64, 16, 8, 128836800, 2005825, 0x8566e2dfead4c858ULL}, // x 2708x1433 @ 0.0127, fallback, n=200
    {512, 16, 2, 2482048, 107326, 0x50ab9f2a783993f0ULL}, // x 2708x1433 @ 0.0127, narrow, n=3
    {512, 16, 2, 10014720, 429004, 0xd00acadedd41f646ULL}, // x 2708x1433 @ 0.0127, narrow, n=16
    {512, 16, 2, 40058880, 1715716, 0x67b6afe9cd09d49dULL}, // x 2708x1433 @ 0.0127, narrow, n=64
    {512, 16, 2, 125184000, 5361400, 0x470a7b38f4ddeeb3ULL}, // x 2708x1433 @ 0.0127, narrow, n=200
    {512, 16, 3, 2623616, 202242, 0x74d349ade35e0831ULL}, // x 4000x500 @ 0.1, default, n=3
    {512, 16, 16, 3455360, 202242, 0xe7aa28655a6c096bULL}, // x 4000x500 @ 0.1, default, n=16
    {512, 16, 64, 6527360, 802524, 0x4461e1106b3f2b65ULL}, // x 4000x500 @ 0.1, default, n=64
    {128, 64, 200, 34432832, 2603370, 0x9a6973df16e90153ULL}, // x 4000x500 @ 0.1, default, n=200
    {256, 24, 3, 2730176, 202882, 0x1ed12cee1126c30eULL}, // x 4000x500 @ 0.1, minTileK=24, n=3
    {256, 24, 16, 3977664, 202882, 0x1b5290c80eb78b88ULL}, // x 4000x500 @ 0.1, minTileK=24, n=16
    {256, 24, 64, 8585664, 803164, 0x72cf9a57cb81bb35ULL}, // x 4000x500 @ 0.1, minTileK=24, n=64
    {128, 48, 200, 34444224, 2604138, 0xb45876206a79cad0ULL}, // x 4000x500 @ 0.1, minTileK=24, n=200
    {64, 16, 3, 3501184, 216322, 0xb4437b294dc11d84ULL}, // x 4000x500 @ 0.1, fallback, n=3
    {64, 16, 8, 9838336, 432544, 0x2f9254882b443b74ULL}, // x 4000x500 @ 0.1, fallback, n=16
    {64, 16, 8, 39353344, 1729876, 0x07cdc9a71e14e8ddULL}, // x 4000x500 @ 0.1, fallback, n=64
    {64, 16, 8, 122979200, 5405650, 0x0a6858f04c22c559ULL}, // x 4000x500 @ 0.1, fallback, n=200
    {512, 16, 2, 5470720, 404384, 0xc2034f9eee2787d5ULL}, // x 4000x500 @ 0.1, narrow, n=3
    {512, 16, 2, 22010880, 1617236, 0xa209ebd68f6c6a39ULL}, // x 4000x500 @ 0.1, narrow, n=16
    {512, 16, 2, 88043520, 6468644, 0xc713af81ba0ba118ULL}, // x 4000x500 @ 0.1, narrow, n=64
    {512, 16, 2, 275136000, 20214300, 0xe40a4ee264bd4c2cULL}, // x 4000x500 @ 0.1, narrow, n=200
    {512, 16, 3, 4280320, 351877, 0x3353c1ba59683f55ULL}, // x 1500x300 @ 0.78, default, n=3
    {512, 16, 16, 4529792, 351877, 0xa610c3beeda1591eULL}, // x 1500x300 @ 0.78, default, n=16
    {512, 16, 64, 5451392, 1405840, 0xb79de15f19cbc83dULL}, // x 1500x300 @ 0.78, default, n=64
    {128, 64, 200, 12382912, 4567753, 0x179758540a234cd5ULL}, // x 1500x300 @ 0.78, default, n=200
    {256, 24, 3, 4304448, 352045, 0xa149355334c625c0ULL}, // x 1500x300 @ 0.78, minTileK=24, n=3
    {256, 24, 16, 4647424, 352045, 0x99be7d97a596ba80ULL}, // x 1500x300 @ 0.78, minTileK=24, n=16
    {256, 24, 64, 5914624, 1406008, 0xd9f766f748321c9cULL}, // x 1500x300 @ 0.78, minTileK=24, n=64
    {128, 48, 200, 12386176, 4567945, 0xaf13b5e69a7e3069ULL}, // x 1500x300 @ 0.78, minTileK=24, n=200
    {64, 16, 3, 4481856, 355069, 0x5dadb1681a5bf86fULL}, // x 1500x300 @ 0.78, fallback, n=3
    {64, 16, 8, 9658112, 710038, 0x80b3b8a418fa9f39ULL}, // x 1500x300 @ 0.78, fallback, n=16
    {64, 16, 8, 38632448, 2839852, 0xd9b04c529e277847ULL}, // x 1500x300 @ 0.78, fallback, n=64
    {64, 16, 8, 120726400, 8874325, 0x3e237759a46baadfULL}, // x 1500x300 @ 0.78, fallback, n=200
    {512, 16, 2, 8596416, 703654, 0xb2e292d0cf038e5fULL}, // x 1500x300 @ 0.78, narrow, n=3
    {512, 16, 2, 34433536, 2814316, 0x4388fff941d0c0a4ULL}, // x 1500x300 @ 0.78, narrow, n=16
    {512, 16, 2, 137734144, 11256964, 0x48d6c65340e41b9cULL}, // x 1500x300 @ 0.78, narrow, n=64
    {512, 16, 2, 430419200, 35177800, 0x27a0f5a867e09084ULL}, // x 1500x300 @ 0.78, narrow, n=200
    {512, 16, 3, 741504, 55381, 0x19c96a1e437ba04aULL}, // x 3000x37 @ 0.5, default, n=3
    {512, 16, 16, 1076544, 55381, 0xf18e9e014f6eaeedULL}, // x 3000x37 @ 0.5, default, n=16
    {512, 16, 64, 2313792, 220792, 0x3ba193e604eea185ULL}, // x 3000x37 @ 0.5, default, n=64
    {128, 64, 200, 6885504, 717073, 0x86c302491c9bbb5aULL}, // x 3000x37 @ 0.5, default, n=200
    {256, 24, 3, 747264, 55429, 0x521cc0e68d376803ULL}, // x 3000x37 @ 0.5, minTileK=24, n=3
    {256, 24, 16, 1105344, 55429, 0x96eaa11d8b962428ULL}, // x 3000x37 @ 0.5, minTileK=24, n=16
    {256, 24, 64, 2427840, 220840, 0x3d01327a755f2362ULL}, // x 3000x37 @ 0.5, minTileK=24, n=64
    {128, 48, 200, 6885504, 717073, 0x86c302491c9bbb5aULL}, // x 3000x37 @ 0.5, minTileK=24, n=200
    {64, 16, 3, 793280, 56365, 0x197eb9244542665aULL}, // x 3000x37 @ 0.5, fallback, n=3
    {64, 16, 8, 1964928, 112630, 0x41bc1a719b530b87ULL}, // x 3000x37 @ 0.5, fallback, n=16
    {64, 16, 8, 7859712, 450220, 0xf33799083c1dae6fULL}, // x 3000x37 @ 0.5, fallback, n=64
    {64, 16, 8, 24561600, 1406725, 0x5f03240a7e56b175ULL}, // x 3000x37 @ 0.5, fallback, n=200
    {512, 16, 2, 1428672, 110662, 0x95f57038911209ccULL}, // x 3000x37 @ 0.5, narrow, n=3
    {512, 16, 2, 5810688, 442348, 0xb017e4bd55e5310cULL}, // x 3000x37 @ 0.5, narrow, n=16
    {512, 16, 2, 23242752, 1769092, 0xc9a8a419703ad119ULL}, // x 3000x37 @ 0.5, narrow, n=64
    {512, 16, 2, 72633600, 5528200, 0xa3cb50ca93df542eULL}, // x 3000x37 @ 0.5, narrow, n=200
    {512, 16, 3, 1427136, 42892, 0xf99443dec04f3dc2ULL}, // a dc-sbm 4000, default, n=3
    {512, 16, 16, 5169472, 42892, 0xda753e99fdb5802fULL}, // a dc-sbm 4000, default, n=16
    {512, 16, 64, 18987328, 148438, 0x0e44e6987b165227ULL}, // a dc-sbm 4000, default, n=64
    {128, 16, 200, 188300032, 1471194, 0x340a33c9efc77083ULL}, // a dc-sbm 4000, default, n=200
    {256, 24, 3, 2283648, 48212, 0xd7278f17e7bb96bbULL}, // a dc-sbm 4000, minTileK=24, n=3
    {256, 24, 16, 9336512, 73041, 0xaa01e044f1c9bd85ULL}, // a dc-sbm 4000, minTileK=24, n=16
    {256, 24, 64, 35377856, 276489, 0xa5c5c0739b7b4cbaULL}, // a dc-sbm 4000, minTileK=24, n=64
    {128, 24, 200, 201627648, 1575316, 0xe592fec1827917d9ULL}, // a dc-sbm 4000, minTileK=24, n=200
    {64, 16, 3, 6480704, 114980, 0xf1542c110f136b6cULL}, // a dc-sbm 4000, fallback, n=3
    {64, 16, 8, 27374208, 229860, 0x1fc6c1f6a6ba5c7dULL}, // a dc-sbm 4000, fallback, n=16
    {64, 16, 8, 109496832, 919140, 0x04dd140dc8712d29ULL}, // a dc-sbm 4000, fallback, n=64
    {64, 16, 8, 342177600, 2872100, 0x0926b15749ed2de4ULL}, // a dc-sbm 4000, fallback, n=200
    {512, 16, 2, 5316992, 85684, 0xe2355c8ef3c94a7bULL}, // a dc-sbm 4000, narrow, n=3
    {512, 16, 2, 21395968, 342436, 0x3ab4980bf16cbb6cULL}, // a dc-sbm 4000, narrow, n=16
    {512, 16, 2, 85583872, 1369444, 0x089aa3c356bd3dcbULL}, // a dc-sbm 4000, narrow, n=64
    {512, 16, 2, 267449600, 4279300, 0x528ee1e6c2549989ULL}, // a dc-sbm 4000, narrow, n=200
    {512, 16, 3, 1956096, 45054, 0x49a0b2eabca9b8f7ULL}, // a 5000x5000 @ 0.0008, default, n=3
    {512, 16, 16, 7664448, 59978, 0x90b448f953028d6aULL}, // a 5000x5000 @ 0.0008, default, n=16
    {512, 16, 64, 28741440, 224642, 0x1f678c3ce8212453ULL}, // a 5000x5000 @ 0.0008, default, n=64
    {128, 16, 200, 262195840, 2048505, 0x57507cd8bd7eecdaULL}, // a 5000x5000 @ 0.0008, default, n=200
    {256, 24, 3, 3300992, 53126, 0x9121b3fe67c77d2dULL}, // a 5000x5000 @ 0.0008, minTileK=24, n=3
    {256, 24, 16, 14101184, 110265, 0x88024007a965cb20ULL}, // a 5000x5000 @ 0.0008, minTileK=24, n=16
    {256, 24, 64, 53978816, 421809, 0x2ba22068461b1538ULL}, // a 5000x5000 @ 0.0008, minTileK=24, n=64
    {128, 24, 200, 296389184, 2315640, 0x05a51b55d59106adULL}, // a 5000x5000 @ 0.0008, minTileK=24, n=200
    {64, 16, 3, 8005440, 129694, 0x48ff50733407ca4cULL}, // a 5000x5000 @ 0.0008, fallback, n=3
    {64, 16, 8, 33925760, 265145, 0xc13e1f923ea6fdb2ULL}, // a 5000x5000 @ 0.0008, fallback, n=16
    {64, 16, 8, 135703040, 1060280, 0x68aa454e34cca641ULL}, // a 5000x5000 @ 0.0008, fallback, n=64
    {64, 16, 8, 424072000, 3313162, 0xb33c576333f17cdfULL}, // a 5000x5000 @ 0.0008, fallback, n=200
    {512, 16, 2, 7783232, 90008, 0x10830d9dc45301a4ULL}, // a 5000x5000 @ 0.0008, narrow, n=3
    {512, 16, 2, 31292928, 359732, 0xd0a5845319a364ceULL}, // a 5000x5000 @ 0.0008, narrow, n=16
    {512, 16, 2, 125171712, 1438628, 0x0619c1059b5dd55cULL}, // a 5000x5000 @ 0.0008, narrow, n=64
    {512, 16, 2, 391161600, 4495500, 0xa030c3511def1780ULL}, // a 5000x5000 @ 0.0008, narrow, n=200
};
// clang-format on

TEST(GcnaxPin, TilingCyclesTrafficAndSramAreExact)
{
    size_t i = 0;
    for (const auto &op : operands()) {
        for (const auto &[cfgName, cfg] : configs()) {
            GcnaxSim sim(cfg);
            for (uint32_t n : kRhsCols) {
                const GcnaxTiling t = sim.chooseTiling(op.lhs, n);
                SpDeGemmProblem p;
                p.lhs = &op.lhs;
                p.rhsCols = n;
                const PhaseResult r = sim.run(p, SimOptions{});
                const Pin got{t.tm, t.tk, t.tn, t.estimatedTraffic,
                              r.cycles, digest(r)};
                char line[200];
                std::snprintf(
                    line, sizeof(line),
                    "{%u, %u, %u, %llu, %llu, 0x%016llxULL}, "
                    "// %s, %s, n=%u",
                    got.tm, got.tk, got.tn,
                    static_cast<unsigned long long>(got.estimatedTraffic),
                    static_cast<unsigned long long>(got.cycles),
                    static_cast<unsigned long long>(got.digest), op.name,
                    cfgName, n);
                if (i >= kPins.size()) {
                    ADD_FAILURE() << "unpinned case: " << line;
                } else {
                    const Pin &want = kPins[i];
                    EXPECT_EQ(got.tm, want.tm) << line;
                    EXPECT_EQ(got.tk, want.tk) << line;
                    EXPECT_EQ(got.tn, want.tn) << line;
                    EXPECT_EQ(got.estimatedTraffic, want.estimatedTraffic)
                        << line;
                    EXPECT_EQ(got.cycles, want.cycles) << line;
                    EXPECT_EQ(got.digest, want.digest) << line;
                }
                ++i;
            }
        }
    }
    EXPECT_EQ(kPins.size(), i);
}

} // namespace
} // namespace grow::accel
