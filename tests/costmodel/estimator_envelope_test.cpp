/**
 * @file
 * Analytical-estimator error envelope against the cycle-accurate
 * simulators.
 *
 * The closed-form engines (GCNAX, GAMMA, MatRaptor) must estimate
 * *exactly*: the cost model replays their own formulas with exact
 * reuse curves, so any drift is a bug in one of the two. The
 * event-driven row engine (GROW) is roofline-approximated; this test
 * pins the documented envelope (DESIGN.md "Mapping layer & analytical
 * cost model"): reuse counts exact, whole-inference cycles and traffic
 * within 5%, per-phase cycles within 5% median / 25% worst-case
 * (demand-LRU fill timing), per-phase traffic within 4% median / 12%
 * worst-case (LDN fill sharing) across configurations, datasets and
 * models.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "core/grow.hpp"
#include "costmodel/cost_model.hpp"
#include "driver/engine_factory.hpp"
#include "gcn/runner.hpp"
#include "gcn/workload.hpp"

namespace grow::costmodel {
namespace {

using gcn::GcnWorkload;

const GcnWorkload &
workloadFor(const char *dataset, gcn::ModelKind model)
{
    struct Key
    {
        std::string dataset;
        gcn::ModelKind model;
        GcnWorkload w;
    };
    static std::vector<std::unique_ptr<Key>> cache;
    for (const auto &k : cache)
        if (k->dataset == dataset && k->model == model)
            return k->w;
    gcn::WorkloadConfig c;
    c.tier = graph::ScaleTier::Unit;
    c.model = model;
    auto k = std::make_unique<Key>();
    k->dataset = dataset;
    k->model = model;
    k->w = gcn::buildWorkload(graph::datasetByName(dataset), c);
    cache.push_back(std::move(k));
    return cache.back()->w;
}

struct PhaseDrift
{
    std::string label;
    double cycleErr = 0.0;
    double trafficErr = 0.0;
};

struct Comparison
{
    gcn::InferenceResult sim;
    PlanEstimate est;
    std::vector<PhaseDrift> phases;
    double cycleErr = 0.0;   ///< whole-inference relative error
    double trafficErr = 0.0; ///< whole-inference relative error
};

double
relErr(double est, double sim)
{
    return sim == 0.0 ? 0.0 : std::abs(est - sim) / sim;
}

Comparison
compare(accel::AcceleratorSim &engine, const GcnWorkload &w,
        bool use_partitioning)
{
    gcn::RunOptions opt;
    opt.usePartitioning = use_partitioning;
    auto plan = gcn::buildPhasePlan(w, opt);
    AnalyticalCostModel model(plan);

    Comparison c;
    c.est = model.estimate(engine.mapping());
    c.sim = gcn::runInference(engine, w, opt);
    EXPECT_EQ(c.est.phases.size(), c.sim.phases.size());
    for (size_t i = 0;
         i < std::min(c.est.phases.size(), c.sim.phases.size()); ++i) {
        PhaseDrift d;
        d.label = c.est.phases[i].label;
        d.cycleErr = relErr(
            static_cast<double>(c.est.phases[i].cycles),
            static_cast<double>(c.sim.phases[i].result.cycles));
        d.trafficErr = relErr(
            static_cast<double>(c.est.phases[i].trafficBytes),
            static_cast<double>(c.sim.phases[i].result.traffic.total()));
        c.phases.push_back(std::move(d));
    }
    c.cycleErr = relErr(static_cast<double>(c.est.totalCycles),
                        static_cast<double>(c.sim.totalCycles));
    c.trafficErr =
        relErr(static_cast<double>(c.est.trafficBytes),
               static_cast<double>(c.sim.totalTrafficBytes()));
    return c;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Closed-form engines: exact by construction ----------------------

TEST(EstimatorExact, MatRaptor)
{
    accel::MatRaptorSim sim(driver::matraptorDefaultConfig());
    auto c = compare(sim, workloadFor("flickr", gcn::ModelKind::Gcn),
                     false);
    EXPECT_EQ(c.est.totalCycles, c.sim.totalCycles);
    EXPECT_EQ(c.est.trafficBytes, c.sim.totalTrafficBytes());
    EXPECT_EQ(c.est.macOps, c.sim.macOps);
}

TEST(EstimatorExact, Gamma)
{
    accel::GammaSim sim(driver::gammaDefaultConfig());
    auto c = compare(sim, workloadFor("flickr", gcn::ModelKind::Gcn),
                     false);
    EXPECT_EQ(c.est.totalCycles, c.sim.totalCycles);
    EXPECT_EQ(c.est.trafficBytes, c.sim.totalTrafficBytes());
    // The Mattson stack-distance curve must reproduce the simulated
    // fiber cache exactly (aggregation-phase accumulation only).
    EXPECT_EQ(c.est.cacheHits, c.sim.cacheHits);
    EXPECT_EQ(c.est.cacheMisses, c.sim.cacheMisses);
}

TEST(EstimatorExact, Gcnax)
{
    accel::GcnaxSim sim(driver::gcnaxDefaultConfig());
    auto c = compare(sim, workloadFor("flickr", gcn::ModelKind::Gcn),
                     false);
    EXPECT_EQ(c.est.totalCycles, c.sim.totalCycles);
    EXPECT_EQ(c.est.trafficBytes, c.sim.totalTrafficBytes());
}

// ---- GROW: exact reuse counts, bounded roofline drift ----------------

struct GrowCase
{
    const char *name;
    core::GrowConfig config;
    bool usePartitioning;
    const char *dataset;
    gcn::ModelKind model;
};

std::vector<GrowCase>
growCases()
{
    std::vector<GrowCase> cases;
    cases.push_back({"grow/flickr", driver::growDefaultConfig(), true,
                     "flickr", gcn::ModelKind::Gcn});
    cases.push_back({"grow-nogp/flickr", driver::growDefaultConfig(),
                     false, "flickr", gcn::ModelKind::Gcn});
    cases.push_back({"grow-lru/flickr", driver::growLruConfig(), true,
                     "flickr", gcn::ModelKind::Gcn});
    cases.push_back({"grow-nocache/flickr", driver::growNoCacheConfig(),
                     true, "flickr", gcn::ModelKind::Gcn});
    core::GrowConfig pe4 = driver::growDefaultConfig();
    pe4.numPes = 4;
    cases.push_back(
        {"grow-pe4/flickr", pe4, true, "flickr", gcn::ModelKind::Gcn});
    cases.push_back({"grow/gat", driver::growDefaultConfig(), true,
                     "flickr", gcn::ModelKind::Gat});
    cases.push_back({"grow/pokec", driver::growDefaultConfig(), true,
                     "pokec", gcn::ModelKind::Gcn});
    return cases;
}

TEST(EstimatorEnvelope, GrowReuseCountsExact)
{
    for (const auto &gc : growCases()) {
        // Per-PE private LRU caches diverge from the global reference
        // stream; the exactness claim is for the shipped pinned policy
        // (any PE count) and single-PE LRU.
        if (gc.config.hdnPolicy == core::HdnPolicy::Lru &&
            gc.config.numPes > 1)
            continue;
        core::GrowSim engine(gc.config);
        auto c = compare(engine, workloadFor(gc.dataset, gc.model),
                         gc.usePartitioning);
        EXPECT_EQ(c.est.cacheHits, c.sim.cacheHits) << gc.name;
        EXPECT_EQ(c.est.cacheMisses, c.sim.cacheMisses) << gc.name;
    }
}

TEST(EstimatorEnvelope, GrowCyclesAndTrafficBounded)
{
    std::vector<double> cycleErrs;
    std::vector<double> trafficErrs;
    for (const auto &gc : growCases()) {
        core::GrowSim engine(gc.config);
        auto c = compare(engine, workloadFor(gc.dataset, gc.model),
                         gc.usePartitioning);
        for (const auto &d : c.phases) {
            std::cout << "[envelope] " << gc.name << " " << d.label
                      << " cycleErr=" << d.cycleErr
                      << " trafficErr=" << d.trafficErr << "\n";
            cycleErrs.push_back(d.cycleErr);
            trafficErrs.push_back(d.trafficErr);
            // Documented per-phase worst case (measured: 19% cycles on
            // LRU -- insert-at-fill vs insert-at-reference -- and 9.2%
            // traffic from LDN fill sharing).
            EXPECT_LE(d.cycleErr, 0.25) << gc.name << " " << d.label;
            EXPECT_LE(d.trafficErr, 0.12) << gc.name << " " << d.label;
        }
        std::cout << "[envelope] " << gc.name
                  << " TOTAL cycleErr=" << c.cycleErr
                  << " trafficErr=" << c.trafficErr << "\n";
        // Whole-inference drift (what the DSE ranks on).
        EXPECT_LE(c.cycleErr, 0.05) << gc.name;
        EXPECT_LE(c.trafficErr, 0.05) << gc.name;
    }
    // Documented envelope: median per-phase error across the matrix.
    EXPECT_LE(median(cycleErrs), 0.05);
    EXPECT_LE(median(trafficErrs), 0.04);
    const double maxCycle =
        *std::max_element(cycleErrs.begin(), cycleErrs.end());
    std::cout << "[envelope] median cycleErr=" << median(cycleErrs)
              << " max cycleErr=" << maxCycle
              << " median trafficErr=" << median(trafficErrs) << "\n";
}

} // namespace
} // namespace grow::costmodel
