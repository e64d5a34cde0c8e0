/**
 * @file
 * Architectural design-space exploration with the GROW model: sweep the
 * HDN cache capacity, the runahead degree, the MAC array width and the
 * model depth for one dataset, and report the latency / area / energy
 * trade-off each point buys. This is the kind of study Table III's
 * chosen configuration came from.
 *
 * All sweep points are independent, so they are dispatched together
 * through the SweepDriver thread pool and only *reported* in order --
 * wall-clock shrinks by roughly the core count. Workloads of all
 * depths come from one WorkloadCache, so graph synthesis +
 * partitioning runs exactly once; pass cachedir= to persist the
 * artefacts and skip synthesis on the next invocation too.
 *
 * Results go through the structured results API (src/report/):
 * format=json emits the same sweep as schema-versioned MetricRecords
 * keyed by the SweepJob labels ("cap/512", "ra/8", ...).
 *
 * Two optional tiers ride on top of the classic sweep:
 *   est=1     re-scores every sweep point with the analytical cost
 *             model (src/costmodel/) and reports the estimate-vs-sim
 *             drift as percent records with unit "est", so CI can gate
 *             the estimator envelope via report_diff `tol.est=`.
 *   dse=1     runs the two-tier explorer (driver::DseDriver): the
 *             ~17k-point default grid is scored analytically in
 *             microseconds per point, pruned to its Pareto frontier
 *             over (cycles, SRAM), and the first pareto= survivors are
 *             simulated cycle-accurately for validation.
 *
 * With dse=1 a `chips=` list additionally sweeps multi-chip scale-out
 * points analytically: the shard plan's cut arcs price the per-layer
 * halo traffic through costmodel::estimateLinkTraffic under the
 * link_gbps=/link_ns= spec. The three keys follow bench_scaleout's
 * rules (scaleout::parseChipKeys) and are rejected without dse=1.
 *
 * Usage: design_space_sweep [datasets=pokec] [scale=tiny] [threads=0]
 *                           [dse=0] [pareto=8] [est=0]
 *                           [chips=1] [link_gbps=64] [link_ns=500]
 *                           [cachedir=] [model=gcn|sage-mean|sage-pool|
 *                           gin|gat] [format=table|json|csv] [out=path]
 */
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "core/grow.hpp"
#include "costmodel/cost_model.hpp"
#include "costmodel/link_model.hpp"
#include "driver/dse.hpp"
#include "driver/engine_factory.hpp"
#include "scaleout/halo.hpp"
#include "scaleout/shard.hpp"
#include "scaleout/topology.hpp"
#include "driver/sweep_driver.hpp"
#include "driver/workload_cache.hpp"
#include "energy/area_model.hpp"
#include "gcn/runner.hpp"
#include "gcn/workload.hpp"
#include "report/report.hpp"
#include "report/sinks.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"

using namespace grow;

namespace {

/** Fixed-point rendering for wall-clock notes. */
std::string
fmtFixed(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
    return buf;
}

int
run(int argc, char **argv)
{
    CliArgs args(argc, argv);
    args.requireKnown({"datasets", "scale", "threads", "cachedir", "model",
                       "format", "out", "dse", "pareto", "est", "chips",
                       "link_gbps", "link_ns"});
    const auto names = args.getList("datasets", {"pokec"});
    if (names.size() != 1)
        fatal("design_space_sweep explores one dataset per run; got " +
              std::to_string(names.size()) + " in datasets=");
    const auto &spec = graph::datasetByName(names.front());
    auto tier = graph::tierFromString(args.get("scale", "tiny"));
    // threads=0 is every core; pareto=0 keeps the whole frontier.
    const int64_t threadsArg = args.getInt("threads", 0, 0, 1024);
    const int64_t dseArg = args.getInt("dse", 0, 0, 1);
    const int64_t paretoArg = args.getInt("pareto", 8, 0);
    const int64_t estArg = args.getInt("est", 0, 0, 1);
    if (dseArg == 0 &&
        (args.has("chips") || args.has("link_gbps") || args.has("link_ns")))
        fatal("chips=, link_gbps= and link_ns= price the scale-out points "
              "of the dse=1 explorer; pass dse=1 (or drop them)");
    const scaleout::ChipKeys chipKeys = scaleout::parseChipKeys(args);
    const std::string format = args.get("format", "table");
    report::makeSink(format); // reject bad formats before simulating
    driver::SweepDriver pool(static_cast<uint32_t>(threadsArg));

    driver::WorkloadCache cache(args.get("cachedir", ""));
    gcn::WorkloadConfig wc;
    wc.tier = tier;
    wc.model = gcn::modelKindFromString(args.get("model", "gcn"));
    auto w = cache.workload(spec, wc);
    // Reject chip counts this workload cannot shard before any sweep.
    if (chipKeys.sharded())
        for (uint32_t chips : chipKeys.chips)
            scaleout::requireChipsFitClusters(
                chips, w.relabel().clustering.numClusters());

    report::Report rep;
    rep.meta().bench = "design_space_sweep";
    rep.meta().generator = "grow-example";
    rep.meta().revision = report::buildRevision();
    rep.meta().scale = graph::tierName(tier);
    rep.meta().model = gcn::modelKindName(wc.model);
    rep.note("dataset " + spec.name + " @" + graph::tierName(tier) +
             " model=" + gcn::modelKindName(wc.model) + ": " +
             fmtCount(w.nodes()) + " nodes (" +
             std::to_string(pool.numThreads()) + " sweep threads)");

    // Deeper models share `w`'s graph artefacts through the cache and
    // only synthesise their own per-layer feature matrices.
    const uint32_t depths[] = {1, 2, 3, 4};
    std::vector<gcn::GcnWorkload> deepWorkloads;
    std::vector<const gcn::GcnWorkload *> workloadByDepth;
    deepWorkloads.reserve(std::size(depths));
    for (uint32_t depth : depths) {
        if (depth == wc.numLayers) {
            workloadByDepth.push_back(&w);
            continue;
        }
        gcn::WorkloadConfig dwc = wc;
        dwc.numLayers = depth;
        deepWorkloads.push_back(cache.workload(spec, dwc));
        workloadByDepth.push_back(&deepWorkloads.back());
    }
    auto cstats = cache.stats();
    rep.note("workload cache: " + std::to_string(cstats.builds) +
             " build(s), " + std::to_string(cstats.memoryHits) +
             " shared reuse(s), " + std::to_string(cstats.diskLoads) +
             " disk load(s)");

    // --- Assemble every sweep point, then run them all at once. -------
    std::vector<driver::SweepJob> jobs;
    // (config, workload) of each job, for the est=1 re-scoring pass.
    struct EstPoint
    {
        core::GrowConfig cfg;
        const gcn::GcnWorkload *workload;
    };
    std::vector<EstPoint> estPoints;
    auto addJob = [&](const std::string &label,
                      const core::GrowConfig &cfg,
                      const gcn::GcnWorkload &wl) {
        jobs.push_back(driver::growJob(label, cfg, wl));
        estPoints.push_back({cfg, &wl});
    };

    const Bytes capacitiesKb[] = {64, 128, 256, 512, 1024};
    for (Bytes kb : capacitiesKb) {
        core::GrowConfig cfg;
        cfg.hdn.capacityBytes = kb * 1024;
        addJob("cap/" + std::to_string(kb), cfg, w);
    }

    const std::pair<uint32_t, uint32_t> runaheadPoints[] = {
        {1, 1}, {4, 4}, {8, 8}, {16, 16}, {32, 32}};
    for (auto [degree, ldn] : runaheadPoints) {
        core::GrowConfig cfg;
        cfg.runaheadDegree = degree;
        cfg.ldnEntries = ldn;
        cfg.lhsIdEntries = 4 * ldn;
        addJob("ra/" + std::to_string(degree), cfg, w);
    }

    const uint32_t macWidths[] = {8, 16, 32, 64};
    for (uint32_t macs : macWidths) {
        core::GrowConfig cfg;
        cfg.numMacs = macs;
        addJob("mac/" + std::to_string(macs), cfg, w);
    }

    for (size_t i = 0; i < std::size(depths); ++i) {
        addJob("depth/" + std::to_string(depths[i]), core::GrowConfig{},
               *workloadByDepth[i]);
    }

    // Within-inference phase fan-out rides the same shared pool as the
    // sweep, so one `threads=` knob governs both levels.
    for (auto &job : jobs)
        job.options.sim.threads = pool.numThreads();

    auto outcomes = pool.runAll(jobs);
    // Consume outcomes positionally, but verify the label so a reorder
    // of the assembly block above cannot silently shift results onto
    // the wrong table. The labels double as the record row keys.
    size_t cursor = 0;
    auto take = [&](const std::string &prefix)
        -> const driver::SweepOutcome & {
        GROW_ASSERT(cursor < outcomes.size() &&
                        outcomes[cursor].label.rfind(prefix, 0) == 0,
                    "sweep outcome order mismatch at " + prefix);
        return outcomes[cursor++];
    };
    const std::string engineName = "grow";

    // --- Sweep 1: HDN cache capacity. ---------------------------------
    auto c = rep.table("hdn_capacity",
                       "HDN cache capacity sweep (runahead 16)");
    c.col("capacity_kib", "capacity")
        .col("hit_rate", "hit rate")
        .col("cycles", "cycles", "cycles")
        .col("dram_traffic", "DRAM traffic", "bytes")
        .col("area_65nm", "area @65nm (mm^2)", "mm^2")
        .col("energy_uj", "energy (uJ)", "uJ");
    for (Bytes kb : capacitiesKb) {
        const auto &o = take("cap/");
        const auto &r = o.inference;
        energy::GrowAreaInputs area;
        area.hdnCacheBytes = kb * 1024;
        auto a = energy::estimateGrowArea(area,
                                          energy::ProcessNode::Nm65);
        c.row({.dataset = spec.name,
               .engine = engineName,
               .extra = {{"label", o.label},
                         {"capacity_kib", std::to_string(kb)}}})
            .add(report::textCell(std::to_string(kb) + " KiB"))
            .add(report::fraction(r.cacheHitRate()))
            .add(report::count(r.totalCycles, "cycles"))
            .add(report::bytesValue(r.totalTrafficBytes()))
            .add(report::real(a.total(), 2))
            .add(report::real(r.energy.total() / 1e6, 1, "uJ"));
    }

    // --- Sweep 2: runahead degree x LDN entries. -----------------------
    auto ra = rep.table("runahead",
                        "runahead degree x LDN table sweep (512 KiB "
                        "cache)");
    ra.col("runahead", "runahead")
        .col("ldn_entries", "LDN entries", "count")
        .col("cycles", "cycles", "cycles")
        .col("speedup_vs_1way", "vs (1,1) baseline");
    double base = 0;
    for (auto [degree, ldn] : runaheadPoints) {
        const auto &o = take("ra/");
        const auto &r = o.inference;
        double cycles = static_cast<double>(r.totalCycles);
        if (base == 0)
            base = cycles;
        ra.row({.dataset = spec.name,
                .engine = engineName,
                .extra = {{"label", o.label},
                          {"runahead", std::to_string(degree)}}})
            .add(report::textCell(std::to_string(degree)))
            .add(report::count(ldn))
            .add(report::count(r.totalCycles, "cycles"))
            .add(report::ratio(base / cycles));
    }

    // --- Sweep 3: MAC width (compute vs memory balance). --------------
    auto m = rep.table("mac_width", "MAC array width sweep");
    m.col("macs", "MACs")
        .col("cycles", "cycles", "cycles")
        .col("speedup_vs_16", "speedup vs 16")
        .col("area_65nm", "area @65nm", "mm^2");
    double ref = 0;
    std::vector<const driver::SweepOutcome *> macOutcomes;
    for (uint32_t macs : macWidths) {
        const auto &o = take("mac/");
        macOutcomes.push_back(&o);
        if (macs == 16)
            ref = static_cast<double>(o.inference.totalCycles);
    }
    for (size_t i = 0; i < std::size(macWidths); ++i) {
        const auto &o = *macOutcomes[i];
        const auto &r = o.inference;
        double cycles = static_cast<double>(r.totalCycles);
        energy::GrowAreaInputs area;
        area.numMacs = macWidths[i];
        auto a = energy::estimateGrowArea(area,
                                          energy::ProcessNode::Nm65);
        m.row({.dataset = spec.name,
               .engine = engineName,
               .extra = {{"label", o.label},
                         {"macs", std::to_string(macWidths[i])}}})
            .add(report::textCell(std::to_string(macWidths[i])))
            .add(report::count(r.totalCycles, "cycles"))
            .add(ref > 0 ? report::ratio(ref / cycles)
                         : report::textCell("-"))
            .add(report::real(a.total(), 2));
    }

    // --- Sweep 4: model depth (N-layer GCN). --------------------------
    auto d = rep.table("model_depth", "model depth sweep (Table I widths)");
    d.col("layers", "layers", "count")
        .col("phases", "phases", "count")
        .col("cycles", "cycles", "cycles")
        .col("dram_traffic", "DRAM traffic", "bytes")
        .col("energy_uj", "energy (uJ)", "uJ");
    for (uint32_t depth : depths) {
        const auto &o = take("depth/");
        const auto &r = o.inference;
        d.row({.dataset = spec.name,
               .engine = engineName,
               .depth = depth,
               .extra = {{"label", o.label}}})
            .add(report::count(depth))
            .add(report::count(r.phases.size()))
            .add(report::count(r.totalCycles, "cycles"))
            .add(report::bytesValue(r.totalTrafficBytes()))
            .add(report::real(r.energy.total() / 1e6, 1, "uJ"));
    }

    // --- est=1: analytical estimator drift on every sweep point. ------
    // Percent-error records carry unit "est" so CI gates the whole
    // family with one `tol.est=` override (the offline envelope lives
    // in tests/costmodel/estimator_envelope_test.cpp).
    if (estArg) {
        struct EstModel
        {
            gcn::PhasePlan plan;
            std::unique_ptr<costmodel::AnalyticalCostModel> model;
        };
        std::map<const gcn::GcnWorkload *, std::unique_ptr<EstModel>>
            models;
        auto modelFor = [&](const gcn::GcnWorkload *wl)
            -> costmodel::AnalyticalCostModel & {
            auto &slot = models[wl];
            if (!slot) {
                slot = std::make_unique<EstModel>();
                gcn::RunOptions opt;
                opt.usePartitioning = true;
                slot->plan = gcn::buildPhasePlan(*wl, opt);
                slot->model =
                    std::make_unique<costmodel::AnalyticalCostModel>(
                        slot->plan);
            }
            return *slot->model;
        };
        auto relPct = [](double est, double sim) {
            return sim == 0.0 ? 0.0 : 100.0 * std::abs(est - sim) / sim;
        };
        auto e = rep.table("estimator_error",
                           "analytical estimate vs cycle-accurate sim");
        e.col("point", "point")
            .col("est_cycles", "est cycles", "cycles")
            .col("cycle_err_pct", "cycle err %", "est")
            .col("traffic_err_pct", "traffic err %", "est");
        for (size_t i = 0; i < jobs.size(); ++i) {
            core::GrowSim probe(estPoints[i].cfg);
            auto est =
                modelFor(estPoints[i].workload).estimate(probe.mapping());
            const auto &r = outcomes[i].inference;
            e.row({.dataset = spec.name,
                   .engine = engineName,
                   .extra = {{"label", outcomes[i].label}}})
                .add(report::textCell(outcomes[i].label))
                .add(report::count(est.totalCycles, "cycles"))
                .add(report::real(
                    relPct(static_cast<double>(est.totalCycles),
                           static_cast<double>(r.totalCycles)),
                    2, "est"))
                .add(report::real(
                    relPct(static_cast<double>(est.trafficBytes),
                           static_cast<double>(r.totalTrafficBytes())),
                    2, "est"));
        }
    }

    // --- dse=1: two-tier design-space exploration. --------------------
    if (dseArg) {
        gcn::RunOptions dseBase;
        dseBase.sim.threads = pool.numThreads();
        driver::DseDriver dse(w, dseBase);
        const auto grid = driver::DseGrid::defaultGrid();
        auto analysis = dse.analyze(grid);
        rep.note("dse tier-1: " + fmtCount(analysis.points.size()) +
                 " grid points scored in " +
                 fmtFixed(analysis.scoreMillis, 1) + " ms (" +
                 fmtFixed(analysis.microsPerPoint(), 2) +
                 " us/point; one-time reuse profiling " +
                 fmtFixed(analysis.setupMillis, 1) + " ms); frontier " +
                 std::to_string(analysis.frontier.size()) + " point(s)");

        auto survivors = dse.simulateFrontier(
            analysis, static_cast<size_t>(paretoArg), pool);
        rep.note("dse tier-2: simulated " +
                 std::to_string(survivors.size()) + " of " +
                 std::to_string(analysis.frontier.size()) +
                 " frontier point(s) cycle-accurately");
        if (!survivors.empty())
            rep.note("dse wall-clock: whole analytical grid " +
                     fmtFixed(analysis.scoreMillis, 1) +
                     " ms vs one cycle-accurate point " +
                     fmtFixed(survivors[0].simulated.hostMillis, 1) +
                     " ms");

        auto f = rep.table("dse_frontier",
                           "Pareto frontier (est cycles vs SRAM), "
                           "cycle-accurate validation");
        f.col("config", "config")
            .col("sram", "SRAM", "bytes")
            .col("est_cycles", "est cycles", "cycles")
            .col("sim_cycles", "sim cycles", "cycles")
            .col("cycle_err_pct", "cycle err %", "est")
            .col("traffic_err_pct", "traffic err %", "est");
        for (const auto &s : survivors) {
            f.row({.dataset = spec.name,
                   .engine = engineName,
                   .extra = {{"label", s.estimate.label}}})
                .add(report::textCell(s.estimate.label))
                .add(report::bytesValue(s.estimate.sramBytes))
                .add(report::count(s.estimate.cycles, "cycles"))
                .add(report::count(s.simulated.totalCycles, "cycles"))
                .add(report::real(100.0 * s.cycleError, 2, "est"))
                .add(report::real(100.0 * s.trafficError, 2, "est"));
        }

        // --- chips=: analytical multi-chip scale-out points. ----------
        // Every chip count is priced without link co-simulation: the
        // shard plan's cut structure gives the exact halo bytes and
        // costmodel::estimateLinkTraffic the link-time roofline; chip
        // compute scales the analytical single-chip estimate.
        if (chipKeys.sharded()) {
            gcn::RunOptions estOpt;
            estOpt.usePartitioning = true;
            const auto basePlan = gcn::buildPhasePlan(w, estOpt);
            costmodel::AnalyticalCostModel baseModel(basePlan);
            core::GrowSim probe(driver::growDefaultConfig());
            const auto baseEst = baseModel.estimate(probe.mapping());

            auto sc = rep.table("scaleout_est",
                                "Analytical multi-chip scale-out");
            sc.col("chips", "chips")
                .col("cut_arcs", "cut arcs", "arcs")
                .col("halo_bytes", "halo bytes", "link-bytes")
                .col("est_halo_cycles", "est halo cycles", "cycles")
                .col("est_cycles", "est cycles", "cycles");
            for (uint32_t chips : chipKeys.chips) {
                const auto &adj = w.adjacencyPartitioned();
                const auto &clustering = w.relabel().clustering;
                const auto shard =
                    scaleout::buildShardPlan(adj, clustering, chips);
                const auto haloPlan = scaleout::buildHaloPlan(adj, shard);
                gcn::RunOptions shardOpt;
                shardOpt.usePartitioning = true;
                shardOpt.chips = chips;
                const auto plan = gcn::buildPhasePlan(w, shardOpt);
                const auto linkEst = costmodel::estimateLinkTraffic(
                    plan, shard, haloPlan, chipKeys.link);
                // First-order strong scaling: per-chip compute is the
                // single-chip estimate over the chip count (balanced
                // shards), plus the serialised halo steps.
                const Cycle estCycles =
                    baseEst.totalCycles / chips + linkEst.haloCycles;
                sc.row({.dataset = spec.name,
                        .engine = engineName,
                        .extra = {{"label",
                                   "chips/" + std::to_string(chips)}}})
                    .add(report::count(chips))
                    .add(report::count(shard.cutArcs, "arcs"))
                    .add(report::count(linkEst.totalBytes, "link-bytes"))
                    .add(report::count(linkEst.haloCycles, "cycles"))
                    .add(report::count(estCycles, "cycles"));
            }
        }
    }

    report::emitReport(rep, format, args.get("out", ""));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(argc, argv, run);
}
