#include "driver/dse.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/grow.hpp"
#include "costmodel/pareto.hpp"
#include "util/logging.hpp"

namespace grow::driver {

namespace {

double
millisSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Empty axes sweep just the base value. */
template <typename T, typename Get>
std::vector<T>
axisOr(const std::vector<T> &axis, Get base)
{
    if (!axis.empty())
        return axis;
    return {base()};
}

std::string
pointLabel(const core::GrowConfig &cfg)
{
    return "cap" + std::to_string(cfg.hdn.capacityBytes / 1024) +
           "k/cam" + std::to_string(cfg.hdn.camEntries) + "/ra" +
           std::to_string(cfg.runaheadDegree) + "/mac" +
           std::to_string(cfg.numMacs) + "/pe" +
           std::to_string(cfg.numPes) + "/bw" +
           std::to_string(static_cast<uint64_t>(cfg.dram.bandwidthGBps));
}

} // namespace

size_t
DseGrid::size() const
{
    auto dim = [](size_t n) { return n == 0 ? size_t{1} : n; };
    return dim(hdnCapacityBytes.size()) * dim(camEntries.size()) *
           dim(runaheadDegrees.size()) * dim(macWidths.size()) *
           dim(peCounts.size()) * dim(dramBandwidthGBps.size());
}

DseGrid
DseGrid::defaultGrid()
{
    DseGrid g;
    for (Bytes kb : {32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024})
        g.hdnCapacityBytes.push_back(kb * 1024);
    g.camEntries = {1024, 2048, 4096, 8192};
    g.runaheadDegrees = {1, 2, 4, 8, 16, 32};
    g.macWidths = {8, 16, 32, 64};
    g.peCounts = {1, 2, 4, 8};
    g.dramBandwidthGBps = {64, 128, 256, 512};
    return g;
}

double
DseAnalysis::microsPerPoint() const
{
    return points.empty() ? 0.0
                          : scoreMillis * 1000.0 /
                                static_cast<double>(points.size());
}

DseDriver::DseDriver(const gcn::GcnWorkload &workload,
                     const gcn::RunOptions &base)
    : workload_(&workload), options_(base)
{
    // The grid is GROW's: lower once under the partitioned convention
    // and the engine-neutral mapping contract (every grid point shares
    // the lowering-visible spec fields), then re-score per point.
    options_.usePartitioning = true;
    options_.mapping.reset();
    plan_ = gcn::buildPhasePlan(*workload_, options_);
    const auto t0 = std::chrono::steady_clock::now();
    model_ = std::make_unique<costmodel::AnalyticalCostModel>(plan_);
    setupMillis_ = millisSince(t0);
}

DseAnalysis
DseDriver::analyze(const DseGrid &grid) const
{
    DseAnalysis out;
    out.setupMillis = setupMillis_;
    out.points.reserve(grid.size());

    const core::GrowConfig &base = grid.base;
    const auto caps = axisOr(grid.hdnCapacityBytes,
                             [&] { return base.hdn.capacityBytes; });
    const auto cams =
        axisOr(grid.camEntries, [&] { return base.hdn.camEntries; });
    const auto ras =
        axisOr(grid.runaheadDegrees, [&] { return base.runaheadDegree; });
    const auto macs = axisOr(grid.macWidths, [&] { return base.numMacs; });
    const auto pes = axisOr(grid.peCounts, [&] { return base.numPes; });
    const auto bws = axisOr(grid.dramBandwidthGBps,
                            [&] { return base.dram.bandwidthGBps; });

    const auto t0 = std::chrono::steady_clock::now();
    for (Bytes cap : caps)
        for (uint32_t cam : cams)
            for (uint32_t ra : ras)
                for (uint32_t mac : macs)
                    for (uint32_t pe : pes)
                        for (double bw : bws) {
                            core::GrowConfig cfg = base;
                            cfg.hdn.capacityBytes = cap;
                            cfg.hdn.camEntries = cam;
                            cfg.runaheadDegree = ra;
                            cfg.ldnEntries = ra;
                            cfg.lhsIdEntries = 4 * ra;
                            cfg.numMacs = mac;
                            cfg.numPes = pe;
                            cfg.dram.bandwidthGBps = bw;

                            core::GrowSim sim(cfg);
                            auto est = model_->estimate(sim.mapping());

                            DsePointEstimate p;
                            p.label = pointLabel(cfg);
                            p.config = cfg;
                            p.cycles = est.totalCycles;
                            p.trafficBytes = est.trafficBytes;
                            p.sramBytes = static_cast<Bytes>(cfg.numPes) *
                                          cfg.onChipSramBytes();
                            p.cacheHits = est.cacheHits;
                            p.cacheMisses = est.cacheMisses;
                            out.points.push_back(std::move(p));
                        }
    out.scoreMillis = millisSince(t0);

    std::vector<costmodel::ParetoPoint> objectives;
    objectives.reserve(out.points.size());
    for (size_t i = 0; i < out.points.size(); ++i)
        objectives.push_back(
            {static_cast<double>(out.points[i].cycles),
             static_cast<double>(out.points[i].sramBytes), i});
    out.frontier = costmodel::paretoFrontier(objectives);
    return out;
}

std::vector<DseSurvivor>
DseDriver::simulateFrontier(const DseAnalysis &analysis,
                            size_t max_survivors,
                            const SweepDriver &pool) const
{
    size_t n = analysis.frontier.size();
    if (max_survivors != 0)
        n = std::min(n, max_survivors);

    std::vector<SweepJob> jobs;
    jobs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const auto &p = analysis.points[analysis.frontier[i]];
        jobs.push_back(growJob(p.label, p.config, *workload_, options_));
    }
    auto outcomes = pool.runAll(jobs);

    auto relErr = [](double est, double sim) {
        return sim == 0.0 ? 0.0 : std::abs(est - sim) / sim;
    };
    std::vector<DseSurvivor> survivors;
    survivors.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        DseSurvivor s;
        s.estimate = analysis.points[analysis.frontier[i]];
        s.simulated = std::move(outcomes[i].inference);
        s.cycleError =
            relErr(static_cast<double>(s.estimate.cycles),
                   static_cast<double>(s.simulated.totalCycles));
        s.trafficError = relErr(
            static_cast<double>(s.estimate.trafficBytes),
            static_cast<double>(s.simulated.totalTrafficBytes()));
        survivors.push_back(std::move(s));
    }
    return survivors;
}

} // namespace grow::driver
