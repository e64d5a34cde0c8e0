/**
 * @file
 * Figure 25(b) reproduction: sensitivity to off-chip bandwidth
 * (16..256 GB/s), each engine normalized to its own 64 GB/s point.
 * GCNAX's curve is much steeper than GROW's -- it lives and dies by
 * memory bandwidth, while GROW's better utilization flattens the slope.
 */
#include "common.hpp"

using namespace grow;
using namespace grow::bench;

GROW_BENCH_MAIN("fig25b_bandwidth_sweep")
{
    BenchContext ctx(argc, argv, "tiny");
    ctx.banner("Figure 25(b): bandwidth sweep (normalized to own "
               "64 GB/s point)");

    const std::vector<double> bws = {16, 32, 64, 128, 256};
    auto t = ctx.table("fig25b", "Figure 25(b)");
    t.col("dataset", "dataset").col("engine", "engine");
    for (double bw : bws)
        t.col("speedup_bw" + std::to_string(static_cast<int>(bw)),
              fmtDouble(bw, 0) + " GB/s");

    // Per dataset: GROW at every bandwidth, then GCNAX.
    std::vector<driver::SweepJob> jobs;
    for (const auto &spec : ctx.specs()) {
        const auto &w = ctx.workload(spec.name);
        for (double bw : bws) {
            core::GrowConfig cfg = driver::growDefaultConfig();
            cfg.dram.bandwidthGBps = bw;
            jobs.push_back(driver::growJob(
                "grow@bw" + fmtDouble(bw, 0), cfg, w, ctx.runOptions()));
        }
        for (double bw : bws) {
            accel::GcnaxConfig cfg = driver::gcnaxDefaultConfig();
            cfg.dram.bandwidthGBps = bw;
            auto job = driver::makeEngineJob("gcnax", w, ctx.runOptions());
            job.label = "gcnax@bw" + fmtDouble(bw, 0);
            job.makeEngine = [cfg] {
                return std::make_unique<accel::GcnaxSim>(cfg);
            };
            jobs.push_back(std::move(job));
        }
    }
    const auto results = ctx.sweep(jobs);

    size_t next = 0;
    for (const auto &spec : ctx.specs()) {
        for (const char *engine : {"GROW", "GCNAX"}) {
            const auto *r = &results[next];
            next += bws.size();
            auto row = t.row({.dataset = spec.name, .engine = engine});
            row.add(report::textCell(spec.name))
                .add(report::textCell(engine));
            for (size_t i = 0; i < bws.size(); ++i)
                row.add(report::real(
                    static_cast<double>(r[2].totalCycles) /
                        static_cast<double>(r[i].totalCycles),
                    2));
        }
    }
    return 0;
}
