/**
 * @file
 * SweepDriver: parallel fan-out must be observably identical to serial
 * execution -- same ordering, same bit-exact metrics -- and errors in
 * any job must surface, not vanish into a worker thread.
 */
#include <gtest/gtest.h>

#include "driver/sweep_driver.hpp"

namespace grow::driver {
namespace {

gcn::GcnWorkload
unitWorkload(const std::string &name, uint32_t layers = 2)
{
    gcn::WorkloadConfig c;
    c.tier = graph::ScaleTier::Unit;
    c.numLayers = layers;
    return gcn::buildWorkload(graph::datasetByName(name), c);
}

/** Bit-exact comparison of everything an InferenceResult reports. */
void
expectIdentical(const gcn::InferenceResult &a,
                const gcn::InferenceResult &b)
{
    EXPECT_EQ(a.engine, b.engine);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.combinationCycles, b.combinationCycles);
    EXPECT_EQ(a.aggregationCycles, b.aggregationCycles);
    EXPECT_EQ(a.macOps, b.macOps);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    for (size_t i = 0; i < mem::kNumTrafficClasses; ++i) {
        EXPECT_EQ(a.traffic.readBytes[i], b.traffic.readBytes[i]);
        EXPECT_EQ(a.traffic.writeBytes[i], b.traffic.writeBytes[i]);
    }
    // Energy is pure arithmetic over activity counts: identical inputs
    // must give bit-identical doubles.
    EXPECT_EQ(a.energy.total(), b.energy.total());
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].layer, b.phases[i].layer);
        EXPECT_EQ(a.phases[i].result.phase, b.phases[i].result.phase);
        EXPECT_EQ(a.phases[i].result.cycles, b.phases[i].result.cycles);
        EXPECT_EQ(a.phases[i].result.macOps, b.phases[i].result.macOps);
    }
}

TEST(SweepDriver, EngineJobAdoptsLayoutConvention)
{
    auto w = unitWorkload("cora");
    auto grow = makeEngineJob("grow", w);
    EXPECT_TRUE(grow.options.usePartitioning);
    EXPECT_EQ(grow.label, "cora/grow");
    auto base = makeEngineJob("gcnax", w);
    EXPECT_FALSE(base.options.usePartitioning);
    EXPECT_EQ(base.makeEngine()->name(), "gcnax");
}

TEST(SweepDriver, UnknownEngineKeyIsFatal)
{
    auto w = unitWorkload("cora");
    EXPECT_ANY_THROW(makeEngineJob("not-an-engine", w));
}

TEST(SweepDriver, EveryKnownEngineKeyConstructs)
{
    auto keys = knownEngineKeys();
    EXPECT_GE(keys.size(), 10u);
    for (const auto &key : keys) {
        auto spec = engineByKey(key);
        EXPECT_EQ(spec.key, key);
        ASSERT_TRUE(static_cast<bool>(spec.make)) << key;
        EXPECT_NE(spec.make(), nullptr) << key;
    }
}

TEST(SweepDriver, ParallelMatchesSerialBitExactly)
{
    // >= 8 combinations spanning engine x dataset x depth.
    auto cora2 = unitWorkload("cora");
    auto cite2 = unitWorkload("citeseer");
    auto cora3 = unitWorkload("cora", 3);
    auto cite1 = unitWorkload("citeseer", 1);

    std::vector<SweepJob> jobs;
    for (const auto *w : {&cora2, &cite2, &cora3, &cite1}) {
        jobs.push_back(makeEngineJob("grow", *w));
        jobs.push_back(makeEngineJob("gcnax", *w));
        jobs.push_back(makeEngineJob("grow-nogp", *w));
    }
    ASSERT_GE(jobs.size(), 8u);

    SweepDriver serial(1);
    SweepDriver parallel(4);
    EXPECT_EQ(serial.numThreads(), 1u);
    EXPECT_EQ(parallel.numThreads(), 4u);

    auto rs = serial.runAll(jobs);
    auto rp = parallel.runAll(jobs);
    ASSERT_EQ(rs.size(), jobs.size());
    ASSERT_EQ(rp.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(rs[i].label, jobs[i].label);
        EXPECT_EQ(rp[i].label, jobs[i].label);
        expectIdentical(rs[i].inference, rp[i].inference);
    }
}

TEST(SweepDriver, RepeatedParallelRunsAreDeterministic)
{
    auto w = unitWorkload("cora");
    std::vector<SweepJob> jobs;
    for (int rep = 0; rep < 4; ++rep)
        jobs.push_back(makeEngineJob("grow", w));
    SweepDriver pool(3);
    auto r1 = pool.runAll(jobs);
    auto r2 = pool.runAll(jobs);
    for (size_t i = 0; i < jobs.size(); ++i) {
        expectIdentical(r1[i].inference, r2[i].inference);
        // Identical jobs must also agree with each other.
        expectIdentical(r1[0].inference, r1[i].inference);
    }
}

TEST(SweepDriver, JobErrorsPropagateToCaller)
{
    auto w = unitWorkload("cora");
    std::vector<SweepJob> jobs;
    jobs.push_back(makeEngineJob("grow", w));
    SweepJob bad = makeEngineJob("grow", w);
    bad.options.sim.functional = true; // workload has no weights
    jobs.push_back(bad);
    SweepDriver pool(2);
    EXPECT_ANY_THROW(pool.runAll(jobs));
}

TEST(SweepDriver, MidSweepErrorReportsAllFailuresAndSkippedLabels)
{
    auto w = unitWorkload("cora");
    std::vector<SweepJob> jobs;
    jobs.push_back(makeEngineJob("grow", w)); // runs fine
    SweepJob bad = makeEngineJob("grow", w);
    bad.options.sim.functional = true; // workload has no weights
    bad.label = "cora/grow-BROKEN";
    jobs.push_back(bad);
    auto late = makeEngineJob("gcnax", w); // skipped by fail-fast
    late.label = "cora/gcnax-LATER";
    jobs.push_back(late);

    // Single-threaded: the failure at index 1 deterministically skips
    // index 2. The aggregate message must name both the failing job
    // and the skipped one -- labels never vanish into the pool.
    SweepDriver pool(1);
    try {
        pool.runAll(jobs);
        FAIL() << "expected the sweep to throw";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("cora/grow-BROKEN"), std::string::npos) << msg;
        EXPECT_NE(msg.find("cora/gcnax-LATER"), std::string::npos) << msg;
        EXPECT_NE(msg.find("skipped by fail-fast"), std::string::npos)
            << msg;
    }
}

TEST(SweepDriver, AllErrorsAggregatedInJobOrder)
{
    auto w = unitWorkload("cora");
    std::vector<SweepJob> jobs;
    for (int i = 0; i < 3; ++i) {
        SweepJob bad = makeEngineJob("grow", w);
        bad.options.sim.functional = true;
        bad.label = "bad" + std::to_string(i);
        jobs.push_back(bad);
    }
    // One worker claims every job before observing the failure flag is
    // impossible; but serial execution guarantees only job 0 runs.
    // With one thread the report must still account for all three.
    SweepDriver pool(1);
    try {
        pool.runAll(jobs);
        FAIL() << "expected the sweep to throw";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("bad0"), std::string::npos) << msg;
        // bad1/bad2 were never claimed: reported as skipped, not lost.
        EXPECT_NE(msg.find("bad1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("bad2"), std::string::npos) << msg;
    }
}

TEST(SweepDriver, EmptySweepIsANoOp)
{
    SweepDriver pool(2);
    EXPECT_TRUE(pool.runAll({}).empty());
}

} // namespace
} // namespace grow::driver
