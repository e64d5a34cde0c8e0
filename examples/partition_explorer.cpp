/**
 * @file
 * Preprocessing explorer: how much does each preprocessing strategy
 * contribute to GROW's locality?
 *
 * Compares four adjacency layouts on one dataset:
 *   original      no preprocessing (GROW w/o G.P: global HDN list)
 *   degree-sort   vertex reordering by degree (Zhang & Li, Sec. III)
 *   random        random balanced clusters (sanity floor)
 *   multilevel    the METIS-like partitioner GROW uses (Sec. V-C)
 *
 * Usage: partition_explorer [dataset=yelp] [scale=mini]
 */
#include <iostream>

#include "core/grow.hpp"
#include "gcn/workload.hpp"
#include "graph/normalize.hpp"
#include "partition/degree_reorder.hpp"
#include "partition/hdn_select.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

using namespace grow;

namespace {

struct Layout
{
    std::string name;
    sparse::CsrMatrix adjacency;
    partition::RelabelResult relabel;
    std::vector<std::vector<NodeId>> hdnLists;
    double intraFraction = 0.0;
};

Layout
makeLayout(const std::string &name, const graph::Graph &g,
           const sparse::CsrMatrix &A,
           const partition::PartitionResult *parts)
{
    Layout l;
    l.name = name;
    if (parts == nullptr) {
        l.relabel = partition::identityRelabel(g.numNodes());
        l.adjacency = A;
        l.intraFraction = 1.0;
    } else {
        l.relabel = partition::relabelByPartition(g.numNodes(), *parts);
        l.adjacency = A.permutedSymmetric(l.relabel.newToOld);
        l.intraFraction =
            partition::evaluatePartition(g, *parts).intraArcFraction;
    }
    auto rg = g.relabeled(l.relabel.newToOld);
    l.hdnLists = partition::selectHdnPerCluster(
        rg, l.relabel.clustering, 4096);
    return l;
}

int
run(int argc, char **argv)
{
    CliArgs args(argc, argv);
    args.requireKnown({"dataset", "scale"});
    const auto &spec = graph::datasetByName(args.get("dataset", "yelp"));
    auto tier = graph::tierFromString(args.get("scale", "mini"));

    gcn::WorkloadConfig wc;
    wc.tier = tier;
    wc.plan.buildPartitioning = false;
    auto w = gcn::buildWorkload(spec, wc);
    const auto &g = w.graph();
    const auto &A = w.adjacency();
    const uint32_t hidden = w.shape().hidden;
    std::cout << "dataset " << spec.name << ": " << fmtCount(g.numNodes())
              << " nodes, " << fmtCount(g.numArcs()) << " arcs\n";

    const uint32_t k = std::max(
        2u, g.numNodes() /
                std::max(64u, static_cast<uint32_t>(
                                  (512u * 1024u) / (hidden * 8u))));

    std::vector<Layout> layouts;
    layouts.push_back(makeLayout("original (global HDN)", g, A, nullptr));
    {
        // Degree-sorted reorder, then contiguous equal clusters.
        auto reorder = partition::degreeSortRelabel(g);
        auto rg = g.relabeled(reorder.newToOld);
        auto contiguous =
            partition::contiguousPartition(g.numNodes(), k);
        Layout l = makeLayout("degree-sort + ranges", rg,
                              A.permutedSymmetric(reorder.newToOld),
                              &contiguous);
        layouts.push_back(std::move(l));
    }
    {
        auto random = partition::randomPartition(g.numNodes(), k, 7);
        layouts.push_back(makeLayout("random clusters", g, A, &random));
    }
    {
        partition::PartitionConfig pc;
        pc.numParts = k;
        auto parts = partition::MultilevelPartitioner(pc).partition(g);
        layouts.push_back(
            makeLayout("multilevel (GROW)", g, A, &parts));
    }

    TextTable t("HDN locality by preprocessing strategy (" + spec.name +
                ", " + std::to_string(k) + " clusters)");
    t.setHeader({"layout", "intra-cluster arcs", "HDN hit rate",
                 "aggregation cycles", "DRAM traffic"});
    for (auto &l : layouts) {
        accel::SpDeGemmProblem p;
        p.lhs = &l.adjacency;
        p.rhsCols = hidden;
        if (l.relabel.clustering.numClusters() > 1) {
            p.clustering = &l.relabel.clustering;
            p.hdnLists = &l.hdnLists;
        }
        core::GrowSim sim((core::GrowConfig()));
        auto r = sim.run(p, accel::SimOptions{});
        double hitRate =
            static_cast<double>(r.cacheHits) /
            static_cast<double>(r.cacheHits + r.cacheMisses);
        t.addRow({l.name,
                  l.relabel.clustering.numClusters() > 1
                      ? fmtPercent(l.intraFraction)
                      : "-",
                  fmtPercent(hitRate), fmtCount(r.cycles),
                  fmtBytes(r.totalTrafficBytes())});
    }
    t.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(argc, argv, run);
}
