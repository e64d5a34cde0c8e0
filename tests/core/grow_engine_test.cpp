#include <gtest/gtest.h>

#include "accel/accelerator.hpp"
#include "core/grow.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo_matrix.hpp"
#include "util/bitutil.hpp"
#include "util/random.hpp"

namespace grow::core {
namespace {

sparse::CsrMatrix
randomSquare(uint32_t n, double density, uint64_t seed)
{
    Rng rng(seed);
    return sparse::randomCsr(n, n, density, rng);
}

TEST(GrowEngine, BasicRunProducesSaneStats)
{
    GrowSim sim((GrowConfig()));
    auto lhs = randomSquare(300, 0.05, 1);
    accel::SpDeGemmProblem p;
    p.lhs = &lhs;
    p.rhsCols = 16;
    auto r = sim.run(p, accel::SimOptions{});
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.macOps, lhs.nnz() * 16);
    EXPECT_EQ(r.cacheHits + r.cacheMisses, lhs.nnz());
    EXPECT_GT(r.totalTrafficBytes(), 0u);
    EXPECT_GE(r.fetchedSparseBytes, r.effectualSparseBytes);
}

TEST(GrowEngine, DeterministicAcrossRuns)
{
    auto lhs = randomSquare(400, 0.03, 2);
    accel::SpDeGemmProblem p;
    p.lhs = &lhs;
    p.rhsCols = 32;
    GrowSim sim((GrowConfig()));
    auto a = sim.run(p, accel::SimOptions{});
    auto b = sim.run(p, accel::SimOptions{});
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalTrafficBytes(), b.totalTrafficBytes());
    EXPECT_EQ(a.cacheHits, b.cacheHits);
}

TEST(GrowEngine, CombinationAllHitsOnChipWeights)
{
    GrowSim sim((GrowConfig()));
    auto lhs = randomSquare(200, 0.2, 3);
    accel::SpDeGemmProblem p;
    p.lhs = &lhs;
    p.rhsCols = 16;
    p.rhsOnChip = true;
    p.phase = accel::Phase::Combination;
    auto r = sim.run(p, accel::SimOptions{});
    // On-chip W: no cache involved, no dense-row DRAM fetches.
    EXPECT_EQ(r.cacheHits + r.cacheMisses, 0u);
    EXPECT_EQ(r.traffic.readBytes[static_cast<size_t>(
                  mem::TrafficClass::DenseRow)],
              0u);
    // But the weight preload happened once.
    EXPECT_GT(r.traffic.readBytes[static_cast<size_t>(
                  mem::TrafficClass::HdnPreload)],
              0u);
}

TEST(GrowEngine, HdnCacheDisabledAllMisses)
{
    GrowConfig cfg;
    cfg.hdnCacheEnabled = false;
    GrowSim sim(cfg);
    auto lhs = randomSquare(150, 0.1, 4);
    accel::SpDeGemmProblem p;
    p.lhs = &lhs;
    p.rhsCols = 16;
    auto r = sim.run(p, accel::SimOptions{});
    EXPECT_EQ(r.cacheHits, 0u);
    // Every non-zero streams its RHS row from DRAM, except that the LDN
    // table coalesces concurrent misses to the same row (Sec. V-D), so
    // the fetched total can dip slightly below nnz * rowBytes.
    Bytes perRow = roundUp(Bytes{16 * 8}, kDramLineBytes);
    Bytes upper = lhs.nnz() * perRow;
    EXPECT_LE(r.traffic.readBytes[static_cast<size_t>(
                  mem::TrafficClass::DenseRow)],
              upper);
    EXPECT_GE(r.traffic.readBytes[static_cast<size_t>(
                  mem::TrafficClass::DenseRow)],
              upper * 8 / 10);
}

TEST(GrowEngine, CacheEnabledReducesTraffic)
{
    auto lhs = randomSquare(500, 0.05, 5);
    accel::SpDeGemmProblem p;
    p.lhs = &lhs;
    p.rhsCols = 64;
    GrowConfig with;
    GrowConfig without;
    without.hdnCacheEnabled = false;
    auto rw = GrowSim(with).run(p, accel::SimOptions{});
    auto ro = GrowSim(without).run(p, accel::SimOptions{});
    EXPECT_LT(rw.totalTrafficBytes(), ro.totalTrafficBytes());
    EXPECT_LE(rw.cycles, ro.cycles);
}

TEST(GrowEngine, OutputWriteTrafficExact)
{
    GrowSim sim((GrowConfig()));
    auto lhs = randomSquare(128, 0.1, 6);
    accel::SpDeGemmProblem p;
    p.lhs = &lhs;
    p.rhsCols = 16;
    auto r = sim.run(p, accel::SimOptions{});
    // One 128-byte output row per LHS row (16 x 8 B rounds to 128).
    EXPECT_EQ(r.traffic.writeBytes[static_cast<size_t>(
                  mem::TrafficClass::OutputWrite)],
              128u * 128u);
}

TEST(GrowEngine, MoreBandwidthNeverSlower)
{
    auto lhs = randomSquare(800, 0.02, 7);
    accel::SpDeGemmProblem p;
    p.lhs = &lhs;
    p.rhsCols = 64;
    GrowConfig slow;
    slow.dram.bandwidthGBps = 16;
    GrowConfig fast;
    fast.dram.bandwidthGBps = 256;
    auto rs = GrowSim(slow).run(p, accel::SimOptions{});
    auto rf = GrowSim(fast).run(p, accel::SimOptions{});
    EXPECT_GE(rs.cycles, rf.cycles);
}

TEST(GrowEngine, EmptyRowsRetireCleanly)
{
    // A matrix with many empty rows (isolated nodes) must still write
    // every output row and terminate.
    sparse::CooMatrix coo(64, 64);
    coo.add(0, 1, 1.0);
    coo.add(63, 62, 2.0);
    coo.canonicalize();
    auto lhs = sparse::CsrMatrix::fromCoo(coo);
    GrowSim sim((GrowConfig()));
    accel::SpDeGemmProblem p;
    p.lhs = &lhs;
    p.rhsCols = 8;
    auto r = sim.run(p, accel::SimOptions{});
    EXPECT_EQ(r.traffic.writeBytes[static_cast<size_t>(
                  mem::TrafficClass::OutputWrite)],
              64u * 64u);
}

TEST(GrowEngine, TopReferencedColumnsRanksByFrequency)
{
    sparse::CooMatrix coo(4, 4);
    // Column 2 referenced 3x, column 0 2x, column 1 1x.
    coo.add(0, 2, 1.0);
    coo.add(1, 2, 1.0);
    coo.add(2, 2, 1.0);
    coo.add(0, 0, 1.0);
    coo.add(3, 0, 1.0);
    coo.add(3, 1, 1.0);
    coo.canonicalize();
    auto m = sparse::CsrMatrix::fromCoo(coo);
    auto top = topReferencedColumns(m, 2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0], 2u);
    EXPECT_EQ(top[1], 0u);
    // top_n >= columns ranks every column; the unreferenced one last.
    const std::vector<NodeId> all = {2, 0, 1, 3};
    EXPECT_EQ(topReferencedColumns(m, 4), all);
    EXPECT_EQ(topReferencedColumns(m, 100), all);
}

TEST(GrowEngine, LhsIdTableStallsUnderPressure)
{
    // A tiny LHS ID table with an all-miss workload must record stalls
    // (the structural hazard of Fig. 16) and still complete correctly.
    GrowConfig cfg;
    cfg.hdnCacheEnabled = false;
    cfg.lhsIdEntries = 4;
    cfg.ldnEntries = 2;
    GrowSim sim(cfg);
    auto lhs = randomSquare(200, 0.1, 8);
    accel::SpDeGemmProblem p;
    p.lhs = &lhs;
    p.rhsCols = 16;
    auto r = sim.run(p, accel::SimOptions{});
    EXPECT_EQ(r.macOps, lhs.nnz() * 16);
    uint64_t stalls = 0;
    for (const auto &s : sim.lastEngineStats())
        stalls += s.ldnStalls + s.lhsIdStalls;
    EXPECT_GT(stalls, 0u);
}

TEST(GrowEngine, LargerTablesReduceStallsAndCycles)
{
    auto lhs = randomSquare(400, 0.05, 9);
    accel::SpDeGemmProblem p;
    p.lhs = &lhs;
    p.rhsCols = 64;
    GrowConfig tiny;
    tiny.hdnCacheEnabled = false;
    tiny.ldnEntries = 1;
    tiny.lhsIdEntries = 2;
    GrowConfig paper;
    paper.hdnCacheEnabled = false; // isolate the table effect
    auto rt = GrowSim(tiny).run(p, accel::SimOptions{});
    auto rp = GrowSim(paper).run(p, accel::SimOptions{});
    EXPECT_GT(rt.cycles, rp.cycles);
}

} // namespace
} // namespace grow::core
