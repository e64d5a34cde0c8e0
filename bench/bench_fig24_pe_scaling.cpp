/**
 * @file
 * Figure 24 reproduction: throughput as the PE count sweeps 1..16 with
 * proportional memory bandwidth. Small graphs saturate with one PE;
 * large graphs scale close to linearly because the row-stationary
 * dataflow parallelises over clusters.
 */
#include "common.hpp"

using namespace grow;
using namespace grow::bench;

GROW_BENCH_MAIN("fig24_pe_scaling")
{
    BenchContext ctx(argc, argv, "tiny");
    ctx.banner("Figure 24: PE scaling (throughput normalized to 1 PE)");

    const std::vector<uint32_t> peCounts = {1, 2, 4, 8, 16};
    auto t = ctx.table("fig24", "Figure 24");
    t.col("dataset", "dataset");
    for (uint32_t pes : peCounts)
        t.col("speedup_pe" + std::to_string(pes),
              std::to_string(pes) + " PE");
    std::vector<driver::SweepJob> jobs;
    for (const auto &spec : ctx.specs()) {
        const auto &w = ctx.workload(spec.name);
        for (uint32_t pes : peCounts) {
            core::GrowConfig cfg = driver::growDefaultConfig();
            cfg.numPes = pes;
            jobs.push_back(driver::growJob("grow@pe" + std::to_string(pes),
                                           cfg, w, ctx.runOptions()));
        }
    }
    const auto results = ctx.sweep(jobs);
    for (size_t d = 0; d < ctx.specs().size(); ++d) {
        const auto &spec = ctx.specs()[d];
        const auto *r = &results[d * peCounts.size()];
        auto row = t.row({.dataset = spec.name, .engine = "grow"});
        row.add(report::textCell(spec.name));
        const double base = static_cast<double>(r[0].totalCycles);
        for (size_t p = 0; p < peCounts.size(); ++p)
            row.add(report::real(
                base / static_cast<double>(r[p].totalCycles), 2));
    }
    return 0;
}
