/**
 * @file
 * Quickstart: build a dataset, preprocess it the GROW way, run N-layer
 * GCN inference on GROW and GCNAX, and print the headline comparison.
 *
 * Usage: quickstart [dataset=cora] [scale=mini] [functional=1]
 *                   [layers=2]
 */
#include <iostream>

#include "gcn/runner.hpp"
#include "gcn/workload.hpp"
#include "accel/gcnax.hpp"
#include "core/grow.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

using namespace grow;

namespace {

int
run(int argc, char **argv)
{
    CliArgs args(argc, argv);
    args.requireKnown({"dataset", "scale", "functional", "layers"});
    const auto &spec = graph::datasetByName(args.get("dataset", "cora"));
    auto tier = graph::tierFromString(args.get("scale", "mini"));
    const bool functional = args.getBool("functional", true);
    const auto layers = static_cast<uint32_t>(args.getInt("layers", 2, 1, 64));

    // 1. Build the workload: synthetic graph matched to Table I,
    //    normalized adjacency, METIS-like partitioning, HDN lists.
    gcn::WorkloadConfig wc;
    wc.tier = tier;
    wc.numLayers = layers;
    wc.functionalData = functional;
    auto workload = gcn::buildWorkload(spec, wc);
    std::cout << "dataset " << spec.name << " @" << graph::tierName(tier)
              << ": " << fmtCount(workload.nodes()) << " nodes, "
              << fmtCount(workload.graphView().numArcs()) << " arcs, "
              << workload.relabel().clustering.numClusters()
              << " clusters\n";

    // 2. Run GROW (with its graph-partitioning preprocessing).
    gcn::RunOptions opt;
    opt.sim.functional = functional;
    opt.usePartitioning = true;
    core::GrowSim grow((core::GrowConfig()));
    auto growRes = gcn::runInference(grow, workload, opt);

    // 3. Run the GCNAX baseline (no preprocessing, Table II).
    gcn::RunOptions optBase = opt;
    optBase.usePartitioning = false;
    accel::GcnaxSim gcnax((accel::GcnaxConfig()));
    auto gcnaxRes = gcn::runInference(gcnax, workload, optBase);

    // 4. Report.
    TextTable t("GROW vs GCNAX -- " + std::to_string(layers) +
                "-layer GCN inference (" + std::string(spec.name) + ")");
    t.setHeader({"engine", "cycles", "DRAM traffic", "energy (uJ)",
                 "HDN hit rate"});
    for (const auto *r : {&growRes, &gcnaxRes}) {
        t.addRow({r->engine, fmtCount(r->totalCycles),
                  fmtBytes(r->totalTrafficBytes()),
                  fmtDouble(r->energy.total() / 1e6, 1),
                  r->engine == "grow" ? fmtPercent(r->cacheHitRate())
                                      : "-"});
    }
    t.print();

    double speedup = static_cast<double>(gcnaxRes.totalCycles) /
                     static_cast<double>(growRes.totalCycles);
    double trafficRatio =
        static_cast<double>(gcnaxRes.totalTrafficBytes()) /
        static_cast<double>(growRes.totalTrafficBytes());
    std::cout << "speedup " << fmtRatio(speedup) << ", traffic reduction "
              << fmtRatio(trafficRatio) << "\n";
    if (functional)
        std::cout << "functional outputs verified against reference "
                     "SpMM.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(argc, argv, run);
}
