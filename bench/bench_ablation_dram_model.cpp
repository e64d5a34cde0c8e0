/**
 * @file
 * DRAM-model fidelity ablation: re-run the headline GROW-vs-GCNAX
 * comparison with the banked row-buffer DRAM model instead of the
 * bandwidth/latency channel. The qualitative conclusions must be
 * insensitive to the memory-model choice (DESIGN.md, Sec. 5).
 */
#include "common.hpp"

using namespace grow;
using namespace grow::bench;

GROW_BENCH_MAIN("ablation_dram_model")
{
    BenchContext ctx(argc, argv, "tiny");
    ctx.banner("DRAM model ablation: simple channel vs banked "
               "row-buffer");

    auto t = ctx.table("dram_model", "GROW cycles under both DRAM models");
    t.col("dataset", "dataset")
        .col("simple_cycles", "simple", "cycles")
        .col("banked_cycles", "banked", "cycles")
        .col("banked_over_simple", "banked/simple");
    std::vector<driver::SweepJob> jobs;
    for (const auto &spec : ctx.specs()) {
        const auto &w = ctx.workload(spec.name);
        gcn::RunOptions opt = ctx.runOptions();
        jobs.push_back(driver::growJob(
            "grow@simple", driver::growDefaultConfig(), w, opt));
        opt.sim.dramKind = "banked";
        jobs.push_back(driver::growJob(
            "grow@banked", driver::growDefaultConfig(), w, opt));
    }
    const auto results = ctx.sweep(jobs);
    for (size_t d = 0; d < ctx.specs().size(); ++d) {
        const auto &spec = ctx.specs()[d];
        const auto &simple = results[2 * d];
        const auto &banked = results[2 * d + 1];
        t.row({.dataset = spec.name, .engine = "grow"})
            .add(report::textCell(spec.name))
            .add(report::count(simple.totalCycles, "cycles"))
            .add(report::count(banked.totalCycles, "cycles"))
            .add(report::real(
                static_cast<double>(banked.totalCycles) /
                    static_cast<double>(simple.totalCycles),
                2));
    }
    return 0;
}
