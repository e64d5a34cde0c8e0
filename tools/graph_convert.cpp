/**
 * @file
 * graph_convert: produce, inspect and verify .growcsr binary graphs
 * (the out-of-core ingestion format of graph/file_graph.hpp).
 *
 * Three modes, selected by which keys are given:
 *
 *   Convert edge-list / COO text to binary CSR:
 *     graph_convert in=<edges.txt> out=<graph.growcsr>
 *                   [name=<dataset>] [scale=<tier>] [nodes=<min>]
 *     Lines are `u v` (or `u v w`, weight ignored); '#'/'%' comments
 *     and blank lines are skipped. The graph is undirected, self loops
 *     dropped, duplicates merged -- identical to Graph::fromEdges.
 *     name= copies the synthesis/shape metadata (feature densities,
 *     GCN shape) of a registry dataset into the file so benches can
 *     build full workloads on it; omitted, a neutral template named
 *     after the output file is used. nodes= (at most 2^32 - 1) forces
 *     at least that many nodes (trailing isolated nodes); the other
 *     two modes reject it.
 *
 *   Export a synthesized registry dataset to binary CSR:
 *     graph_convert dataset=<name> scale=<tier> out=<graph.growcsr>
 *     The written file replays the in-memory dataset bit for bit when
 *     loaded via `dataset=file:<path>` (CI diffs the two).
 *
 *   Verify an existing file:
 *     graph_convert verify=<graph.growcsr>
 *     Re-checks header, checksum, the spec fields (densities in
 *     [0, 1], widths of at least 1) and full structure (sorted rows,
 *     symmetry, no self loops); exits non-zero on any mismatch.
 */
#include <filesystem>
#include <iostream>

#include "graph/datasets.hpp"
#include "graph/file_graph.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

using namespace grow;

namespace {

int
verifyFile(const std::string &path)
{
    auto g = graph::MappedCsrGraph::open(path);
    if (!g) {
        std::cerr << "FAIL: " << path
                  << " is missing, truncated, corrupt, from a stale "
                     "format version, or has a row that is unsorted, "
                     "loops or names a node out of range\n";
        return 1;
    }
    if (const std::string why = graph::specFieldError(g->spec());
        !why.empty()) {
        std::cerr << "FAIL: " << path << ": " << why << "\n";
        return 1;
    }
    if (!g->validateStructure()) {
        std::cerr << "FAIL: " << path
                  << " passed the checksum but is not symmetric\n";
        return 1;
    }
    std::cout << "OK: " << path << "\n  dataset   " << g->spec().name
              << "\n  tier      " << graph::tierName(g->tier())
              << "\n  nodes     " << g->numNodes() << "\n  arcs      "
              << g->numArcs() << "\n  checksum  " << std::hex
              << g->checksum() << std::dec << "\n";
    return 0;
}

int
exportDataset(const CliArgs &args)
{
    const std::string out = args.get("out", "");
    if (out.empty())
        fatal("dataset= mode needs out=<file.growcsr>");
    const auto &spec = graph::datasetByName(args.get("dataset", ""));
    const auto tier =
        graph::tierFromString(args.get("scale", "mini"));
    auto inst = graph::buildDataset(spec, tier);
    if (!graph::writeCsrFile(out, spec, tier, inst.graph.view()))
        fatal("cannot write " + out);
    std::cout << "wrote " << out << ": " << spec.name << " @ "
              << graph::tierName(tier) << ", " << inst.graph.numNodes()
              << " nodes, " << inst.graph.numArcs() << " arcs\n";
    return 0;
}

int
convertText(const CliArgs &args)
{
    const auto hint =
        static_cast<uint32_t>(args.getInt("nodes", 0, 0, kInvalidNode));
    const std::string in = args.get("in", "");
    const std::string out = args.get("out", "");
    if (out.empty())
        fatal("in= mode needs out=<file.growcsr>");
    graph::DatasetSpec tmpl;
    if (args.has("name")) {
        tmpl = graph::datasetByName(args.get("name", ""));
    } else {
        // Neutral template: identity from the output file name, GCN
        // shape/densities that let workload construction proceed.
        tmpl.name = std::filesystem::path(out).stem().string();
        tmpl.x0Density = 1.0;
        tmpl.x1Density = 0.5;
        tmpl.gcn = {128, 128, 16};
    }
    const auto tier =
        graph::tierFromString(args.get("scale", "full"));
    auto stats = graph::convertEdgeListFile(in, out, tmpl, tier, hint);
    std::cout << "wrote " << out << ": " << tmpl.name << " @ "
              << graph::tierName(tier) << "\n  nodes          "
              << stats.nodes << "\n  arcs           " << stats.arcs
              << "\n  text edges     " << stats.textEdges
              << "\n  self loops     " << stats.selfLoops
              << "\n  duplicate arcs " << stats.duplicateArcs << "\n";
    return 0;
}

int
run(int argc, char **argv)
{
    CliArgs args(argc, argv);
    args.requireKnown(
        {"in", "out", "name", "nodes", "dataset", "scale", "verify"});
    if (args.has("nodes") && (args.has("verify") || args.has("dataset")))
        fatal("nodes= applies to in= edge-list conversion only");
    if (args.has("verify"))
        return verifyFile(args.get("verify", ""));
    if (args.has("dataset"))
        return exportDataset(args);
    if (args.has("in"))
        return convertText(args);
    fatal("pass in=<edges.txt> out=<file.growcsr>, dataset=<name> "
          "scale=<tier> out=<file.growcsr>, or verify=<file.growcsr>");
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(argc, argv, run);
}
