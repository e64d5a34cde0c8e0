/**
 * @file
 * Model zoo study (Sec. VIII "GROW applicability for advanced
 * aggregation functions"): lower every ModelKind -- vanilla GCN,
 * SAGEConv mean/pool over sampled neighbourhoods, GIN with folded
 * epsilon, GAT with SDDMM attention scores -- onto the PhasePlan
 * abstraction and run GROW against the baseline engines on the
 * Table I datasets. The per-model tables report cycles, DRAM traffic,
 * HDN-cache behaviour and energy (including the Sec. VIII extra-unit
 * energy), and the summary table rolls up geomean speedups plus the
 * area overhead each model's extra hardware costs on GROW.
 *
 * Extra arguments beside the common ones (common.hpp):
 *   engines=grow,gcnax          engine keys to compare (first is the
 *                               speedup numerator's denominator)
 *   models=gcn,sage-mean,...    ModelKind subset (default: all)
 *   fanout=10                   SAGEConv neighbour-sampling fanout
 */
#include <deque>
#include <map>

#include "common.hpp"
#include "gcn/aggregators.hpp"
#include "gcn/model.hpp"
#include "util/logging.hpp"

using namespace grow;
using namespace grow::bench;

GROW_BENCH_MAIN("model_zoo")
{
    BenchContext ctx(argc, argv, /*default_scale=*/"tiny", "all",
                     {"engines", "models", "fanout"});
    ctx.banner("Model zoo: GNN layer types on the GROW pipeline");

    const auto engineKeys =
        ctx.args().getList("engines", {"grow", "gcnax"});
    if (engineKeys.size() < 2)
        fatal("model zoo needs >= 2 engine keys (engines=grow,gcnax)");
    std::vector<gcn::ModelKind> models;
    if (ctx.args().has("models")) {
        for (const auto &tok : ctx.args().getList("models", {}))
            models.push_back(gcn::modelKindFromString(tok));
    } else if (ctx.args().has("model")) {
        // The common per-bench knob narrows the zoo to one model.
        models = {ctx.model()};
    } else {
        models = gcn::allModelKinds();
    }
    const int64_t fanout = ctx.args().getInt("fanout", 10, 1, 1024);

    // Build every (model, dataset) workload up front through the shared
    // cache (a deque: jobs borrow stable addresses). Every model shares
    // one graph-artefact bundle per dataset; the SAGEConv models draw
    // their sampled adjacency with the layer data.
    std::deque<gcn::GcnWorkload> workloads;
    std::vector<driver::SweepJob> jobs;
    for (gcn::ModelKind model : models) {
        for (const auto &spec : ctx.specs()) {
            gcn::WorkloadConfig wc;
            wc.tier = ctx.tier();
            wc.model = model;
            wc.sageFanout = static_cast<uint32_t>(fanout);
            const auto &w = workloads.emplace_back(ctx.workload(spec, wc));
            for (const auto &engine : engineKeys) {
                jobs.push_back(
                    driver::makeEngineJob(engine, w, ctx.runOptions()));
                jobs.back().label =
                    engine + "@" + gcn::modelKindName(model);
            }
        }
    }
    // Model-major, then dataset, then engine key.
    const auto results = ctx.sweep(jobs);
    size_t next = 0;

    std::map<std::string, std::vector<double>> speedups;
    for (gcn::ModelKind model : models) {
        const char *modelName = gcn::modelKindName(model);
        const auto &support =
            gcn::aggregatorSupport(gcn::modelAggregator(model));
        auto t = ctx.table(
            std::string("model_zoo_") + modelName,
            std::string("model ") + modelName +
                (support.extraHardware.empty()
                     ? ""
                     : " (extra unit: " + support.extraHardware + ")"));
        t.col("dataset", "dataset");
        for (const auto &engine : engineKeys)
            t.col(engine + "_cycles", engine + " cycles", "cycles");
        t.col("speedup", "speedup")
            .col("hit_rate", "hit rate")
            .col("dram_traffic", "DRAM traffic", "bytes")
            .col("energy_uj", "energy (uJ)", "uJ")
            .col("aux_energy_uj", "aux energy (uJ)", "uJ");

        for (const auto &spec : ctx.specs()) {
            const auto *r = &results[next];
            next += engineKeys.size();
            const auto &lead = r[0];
            // Speedup of the lead engine over the second key (the
            // headline baseline).
            double speedup = static_cast<double>(r[1].totalCycles) /
                             static_cast<double>(lead.totalCycles);
            speedups[modelName].push_back(speedup);

            auto row = t.row({.dataset = spec.name,
                              .engine = engineKeys.front(),
                              .model = modelName});
            row.add(report::textCell(spec.name));
            for (size_t e = 0; e < engineKeys.size(); ++e)
                row.add(report::count(r[e].totalCycles, "cycles"));
            row.add(report::ratio(speedup))
                .add(report::fraction(lead.cacheHitRate()))
                .add(report::bytesValue(lead.totalTrafficBytes()))
                .add(report::real(lead.energy.total() / 1e6, 1, "uJ"))
                .add(report::real(lead.energy.auxPj / 1e6, 3, "uJ"));
        }
    }

    auto s = ctx.table("model_zoo_summary",
                       "Sec. VIII summary (" + engineKeys[0] + " vs " +
                           engineKeys[1] + ")");
    s.col("model", "model")
        .col("phases_per_layer", "phases/layer", "count")
        .col("geomean_speedup", "geomean speedup")
        .col("extra_hardware", "extra hardware")
        .col("area_65nm", "area @65nm (mm^2)", "mm^2")
        .col("area_overhead", "area overhead");
    for (gcn::ModelKind model : models) {
        const char *modelName = gcn::modelKindName(model);
        const auto &support =
            gcn::aggregatorSupport(gcn::modelAggregator(model));
        auto area = gcn::growAreaWithAggregator(
            gcn::modelAggregator(model));
        s.row({.engine = engineKeys.front(), .model = modelName})
            .add(report::textCell(modelName))
            .add(report::count(gcn::modelPhasesPerLayer(model)))
            .add(report::ratio(geomean(speedups[modelName])))
            .add(report::textCell(support.extraHardware.empty()
                                      ? "-"
                                      : support.extraHardware))
            .add(report::real(area.total(), 3))
            .add(report::fraction(support.areaOverhead));
    }
    return 0;
}
