/**
 * @file
 * Domain scenario: GCN inference over a synthetic social network.
 *
 * This example exercises the public API end to end *without* the
 * built-in dataset registry: it models a social platform with strongly
 * clustered friend circles and a heavy-tailed follower distribution
 * (the workload class the paper's introduction motivates), runs the
 * full GROW preprocessing pipeline by hand, and reports per-phase
 * latency, traffic and Fig. 22-style energy.
 *
 * Usage: social_network_inference [users=60000] [avgdeg=24]
 *        [circles=80] [features=128] [hidden=64] [pes=4]
 *
 * Only layer 1's phases are simulated, so the output width is hidden=.
 *
 * Every key is range-checked before the graph is built.
 */
#include <iostream>

#include "accel/gcnax.hpp"
#include "core/grow.hpp"
#include "energy/energy_model.hpp"
#include "graph/generators.hpp"
#include "graph/normalize.hpp"
#include "partition/hdn_select.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel.hpp"
#include "sparse/convert.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

using namespace grow;

namespace {

int
run(int argc, char **argv)
{
    CliArgs args(argc, argv);
    args.requireKnown(
        {"users", "avgdeg", "circles", "features", "hidden", "pes"});
    const auto users =
        static_cast<uint32_t>(args.getInt("users", 60000, 2, 1 << 22));
    const double avgdeg = args.getDouble("avgdeg", 24.0);
    if (!(avgdeg > 0.0 && avgdeg <= 1024.0))
        fatal("avgdeg=" + args.get("avgdeg", "") +
              " is out of range (0, 1024]");
    const auto circles =
        static_cast<uint32_t>(args.getInt("circles", 80, 1, users));
    const auto features =
        static_cast<uint32_t>(args.getInt("features", 128, 1, 8192));
    const auto hidden =
        static_cast<uint32_t>(args.getInt("hidden", 64, 1, 4096));
    const auto pes = static_cast<uint32_t>(args.getInt("pes", 4, 1, 64));

    // --- 1. The social graph: clustered, heavy-tailed. ---------------
    graph::DcSbmParams gp;
    gp.nodes = users;
    gp.avgDegree = avgdeg;
    gp.communities = circles;
    gp.intraFraction = 0.85; // friend circles are tight
    gp.powerLawAlpha = 2.1;  // influencers exist
    gp.seed = 2026;
    auto g = graph::generateDcSbm(gp);
    std::cout << "social graph: " << fmtCount(g.numNodes()) << " users, "
              << fmtCount(g.numEdges()) << " friendships (avg degree "
              << fmtDouble(g.avgDegree(), 1) << ")\n";

    // --- 2. GROW's offline preprocessing (Sec. V-C). ------------------
    partition::PartitionConfig pc;
    pc.numParts = std::max(2u, users / 1024);
    auto parts = partition::MultilevelPartitioner(pc).partition(g);
    auto quality = partition::evaluatePartition(g, parts);
    auto relabel = partition::relabelByPartition(users, parts);
    auto rg = g.relabeled(relabel.newToOld);
    auto hdnLists = partition::selectHdnPerCluster(
        rg, relabel.clustering, 4096);
    std::cout << "partitioned into "
              << relabel.clustering.numClusters() << " clusters ("
              << fmtPercent(quality.intraArcFraction)
              << " of edges intra-cluster, balance "
              << fmtDouble(quality.balance, 2) << ")\n";

    auto A = graph::normalizedAdjacency(rg, true);
    Rng rng(99);
    auto X = sparse::randomCsr(users, features, 0.35, rng);

    // --- 3. Inference phases on GROW vs GCNAX. ------------------------
    core::GrowConfig growCfg;
    growCfg.numPes = pes;
    core::GrowSim grow(growCfg);
    accel::GcnaxSim gcnax((accel::GcnaxConfig()));
    energy::EnergyParams energyParams;

    struct Row
    {
        std::string name;
        accel::PhaseResult r;
    };
    std::vector<Row> rows;

    auto runPhase = [&](accel::AcceleratorSim &engine,
                        const sparse::CsrMatrix &lhs, uint32_t n,
                        bool onChip, bool preprocessed,
                        const std::string &label) {
        accel::SpDeGemmProblem p;
        p.lhs = &lhs;
        p.rhsCols = n;
        p.rhsOnChip = onChip;
        p.phase = onChip ? accel::Phase::Combination
                         : accel::Phase::Aggregation;
        if (preprocessed && !onChip) {
            p.clustering = &relabel.clustering;
            p.hdnLists = &hdnLists;
        }
        rows.push_back({label, engine.run(p, accel::SimOptions{})});
    };

    runPhase(grow, X, hidden, true, true, "grow: X*W (combination)");
    runPhase(grow, A, hidden, false, true, "grow: A*(XW) (aggregation)");
    runPhase(gcnax, X, hidden, true, false, "gcnax: X*W (combination)");
    runPhase(gcnax, A, hidden, false, false,
             "gcnax: A*(XW) (aggregation)");

    TextTable t("layer-1 phases, " + std::to_string(pes) + " PE GROW");
    t.setHeader({"phase", "cycles", "DRAM traffic", "energy (uJ)",
                 "hit rate", "sparse BW util"});
    for (const auto &row : rows) {
        auto e = energy::computeEnergy(energyParams, row.r.activity);
        uint64_t lookups = row.r.cacheHits + row.r.cacheMisses;
        t.addRow({row.name, fmtCount(row.r.cycles),
                  fmtBytes(row.r.totalTrafficBytes()),
                  fmtDouble(e.total() / 1e6, 1),
                  lookups ? fmtPercent(double(row.r.cacheHits) / lookups)
                          : "-",
                  fmtPercent(row.r.sparseBandwidthUtil())});
    }
    t.print();

    double speedup =
        static_cast<double>(rows[3].r.cycles) /
        static_cast<double>(rows[1].r.cycles);
    std::cout << "aggregation speedup vs GCNAX: " << fmtRatio(speedup)
              << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(argc, argv, run);
}
