/**
 * @file
 * Figure 25(a) reproduction: throughput vs runahead execution degree
 * (1..32-way), normalized to 1-way. Gains grow until the LDN/LHS-ID
 * tables saturate around 8-16-way.
 */
#include "common.hpp"

using namespace grow;
using namespace grow::bench;

GROW_BENCH_MAIN("fig25a_runahead_sweep")
{
    BenchContext ctx(argc, argv, "tiny");
    ctx.banner("Figure 25(a): runahead degree sweep "
               "(throughput normalized to 1-way)");

    const std::vector<uint32_t> degrees = {1, 2, 4, 8, 16, 32};
    auto t = ctx.table("fig25a", "Figure 25(a)");
    t.col("dataset", "dataset");
    for (uint32_t degree : degrees)
        t.col("speedup_ra" + std::to_string(degree),
              std::to_string(degree) + "-way");
    std::vector<driver::SweepJob> jobs;
    for (const auto &spec : ctx.specs()) {
        const auto &w = ctx.workload(spec.name);
        for (uint32_t degree : degrees) {
            core::GrowConfig cfg = driver::growDefaultConfig();
            cfg.runaheadDegree = degree;
            jobs.push_back(driver::growJob("grow@ra" + std::to_string(degree),
                                           cfg, w, ctx.runOptions()));
        }
    }
    const auto results = ctx.sweep(jobs);
    for (size_t d = 0; d < ctx.specs().size(); ++d) {
        const auto &spec = ctx.specs()[d];
        const auto *r = &results[d * degrees.size()];
        auto row = t.row({.dataset = spec.name, .engine = "grow"});
        row.add(report::textCell(spec.name));
        const double base = static_cast<double>(r[0].totalCycles);
        for (size_t i = 0; i < degrees.size(); ++i)
            row.add(report::real(
                base / static_cast<double>(r[i].totalCycles), 2));
    }
    return 0;
}
