/**
 * @file
 * Multi-chip strong scaling: the Table I datasets sharded across 1, 2,
 * 4 and 8 chips joined by inter-chip links (src/scaleout/), every
 * chip count through scaleout::runInference. chips=1 runs the identity
 * shard, which folds exactly like the single-chip runner
 * (Scaleout.OneChipTopologyReproducesSingleChipRunner checks every
 * engine and model). Its results carry link and shard data that a
 * SweepJob cannot, so the chip counts run serially here and reach the
 * profile=1 tables through recordInference() as (dataset,
 * "<engine>@chips/<n>").
 *
 * Extra keys on top of the universal set:
 *   chips=1                chip counts to evaluate, in order (e.g.
 *                          chips=1,2,4,8; each in [1, 64]): values > 1
 *                          shard the workload's partition clusters
 *                          across that many chips joined by inter-chip
 *                          links
 *   link_gbps=64           inter-chip link bandwidth per direction
 *                          (GB/s); needs a chips= value > 1
 *   link_ns=500            inter-chip link latency (ns); needs a
 *                          chips= value > 1
 *   engine=grow            engine configuration key (must consume the
 *                          partitioning for chips > 1)
 *   cluster_nodes=256      target nodes per partition cluster. The
 *                          default sizing derives clusters from the
 *                          HDN cache and leaves the small Table I
 *                          graphs as a single cluster, which cannot
 *                          shard; the smaller default here gives every
 *                          dataset enough clusters for 8 chips.
 *
 * Per-link byte counters come from the canonical egress link devices
 * and are exact (cut-edge boundary vertices x feature bytes); their
 * unit is "link-bytes" so report_diff gates them at zero tolerance.
 */
#include "common.hpp"

#include "scaleout/runner.hpp"

using namespace grow;
using namespace grow::bench;

GROW_BENCH_MAIN("scaleout")
{
    BenchContext ctx(argc, argv, "mini", "all",
                     {"chips", "link_gbps", "link_ns", "engine",
                      "cluster_nodes"});
    const auto [chipCounts, link] = scaleout::parseChipKeys(ctx.args());

    const std::string engineKey = ctx.args().get("engine", "grow");
    const int64_t clusterNodes =
        ctx.args().getInt("cluster_nodes", 256);
    if (clusterNodes < 1)
        fatal("cluster_nodes must be >= 1, got " +
              std::to_string(clusterNodes));

    ctx.banner("Multi-chip strong scaling (" + engineKey + ")");

    auto t = ctx.table("scaleout_scaling", "Strong scaling");
    t.col("dataset", "dataset")
        .col("chips", "chips")
        .col("cycles", "cycles", "cycles")
        .col("speedup", "speedup", "x")
        .col("halo_cycles", "halo cycles", "cycles")
        .col("traffic", "DRAM traffic", "bytes")
        .col("halo_bytes", "halo bytes", "link-bytes")
        .col("cut_arcs", "cut arcs", "arcs");

    struct LinkRow
    {
        std::string dataset;
        uint32_t chips = 0;
        uint32_t link = 0;
        Bytes egressBytes = 0;
        Cycle busyCycles = 0;
    };
    std::vector<LinkRow> linkRows;

    for (const auto &spec : ctx.specs()) {
        // The bench's own cluster sizing (see header comment); the
        // bundle is cached per partition plan, so this never collides
        // with other benches' artefacts.
        gcn::WorkloadConfig wc;
        wc.tier = ctx.tier();
        wc.model = ctx.model();
        wc.plan.targetClusterSize = static_cast<uint32_t>(clusterNodes);
        const auto &w = ctx.workload(spec, wc);

        Cycle baseCycles = 0;
        for (uint32_t chips : chipCounts) {
            const auto topo = scaleout::EngineTopology(engineKey)
                                  .withChips(chips)
                                  .withLink(link);
            const auto sr =
                scaleout::runInference(topo, w, ctx.runOptions());
            const gcn::InferenceResult &merged = sr.merged;
            // A single-chip topology has no links.
            for (uint32_t link = 0; chips > 1 && link < chips; ++link)
                linkRows.push_back({spec.name, chips, link,
                                    sr.links.egressBytes[link],
                                    sr.links.egressBusyCycles[link]});
            if (baseCycles == 0)
                baseCycles = merged.totalCycles;
            const double speedup =
                merged.totalCycles == 0
                    ? 0.0
                    : static_cast<double>(baseCycles) /
                          static_cast<double>(merged.totalCycles);
            const std::string label =
                "chips/" + std::to_string(chips);
            t.row({.dataset = spec.name,
                   .engine = engineKey,
                   .extra = {{"label", label}}})
                .add(report::textCell(spec.name))
                .add(report::count(chips))
                .add(report::count(merged.totalCycles, "cycles"))
                .add(report::real(speedup, 3, "x"))
                .add(report::count(merged.haloCycles, "cycles"))
                .add(report::bytesValue(merged.totalTrafficBytes()))
                .add(report::count(sr.links.totalBytes, "link-bytes"))
                .add(report::count(sr.shard.cutArcs, "arcs"));
            ctx.recordInference(spec.name, engineKey + "@" + label,
                                merged);
        }
    }

    if (!linkRows.empty()) {
        auto lt = ctx.table("scaleout_links", "Per-link egress traffic");
        lt.col("dataset", "dataset")
            .col("chips", "chips")
            .col("link", "link")
            .col("egress_bytes", "egress bytes", "link-bytes")
            .col("busy_cycles", "busy cycles", "cycles");
        for (const auto &r : linkRows) {
            lt.row({.dataset = r.dataset,
                    .engine = engineKey,
                    .extra = {{"label", "chips/" +
                                            std::to_string(r.chips) +
                                            "/link/" +
                                            std::to_string(r.link)}}})
                .add(report::textCell(r.dataset))
                .add(report::count(r.chips))
                .add(report::count(r.link))
                .add(report::count(r.egressBytes, "link-bytes"))
                .add(report::count(r.busyCycles, "cycles"));
        }
    }
    return 0;
}
