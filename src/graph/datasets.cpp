#include "graph/datasets.hpp"

#include <algorithm>
#include <map>
#include <mutex>

#include "graph/file_graph.hpp"
#include "util/binfile.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace grow::graph {

namespace {

/**
 * Process-wide registry of file-backed datasets, keyed by the dataset
 * name embedded in the .growcsr header. The registry keeps the mmap
 * alive for the process lifetime; bundles built from it share the same
 * mapping by shared_ptr.
 */
struct FileDatasetEntry
{
    DatasetSpec spec;
    std::shared_ptr<const MappedCsrGraph> graph;
};

std::mutex &
fileRegistryMutex()
{
    static std::mutex mu;
    return mu;
}

std::map<std::string, FileDatasetEntry> &
fileRegistry()
{
    static std::map<std::string, FileDatasetEntry> registry;
    return registry;
}

} // namespace

ScaleTier
tierFromString(const std::string &s)
{
    std::string t = toLower(s);
    if (t == "full")
        return ScaleTier::Full;
    if (t == "mini")
        return ScaleTier::Mini;
    if (t == "tiny")
        return ScaleTier::Tiny;
    if (t == "unit")
        return ScaleTier::Unit;
    fatal("unknown scale tier: " + s);
}

const char *
tierName(ScaleTier tier)
{
    switch (tier) {
      case ScaleTier::Full: return "full";
      case ScaleTier::Mini: return "mini";
      case ScaleTier::Tiny: return "tiny";
      case ScaleTier::Unit: return "unit";
    }
    return "?";
}

void
encodeSpecFields(util::BinWriter &w, const DatasetSpec &spec)
{
    w.str(spec.name);
    w.pod(spec.paperNodes);
    w.pod(spec.paperArcs);
    w.pod(spec.paperAvgDegree);
    w.pod(spec.paperDensityA);
    w.pod(spec.x0Density);
    w.pod(spec.x1Density);
    w.pod(spec.gcn.inFeatures);
    w.pod(spec.gcn.hidden);
    w.pod(spec.gcn.classes);
    w.pod(spec.powerLawAlpha);
    w.pod(spec.intraFraction);
    w.pod(spec.seed);
    w.pod(spec.miniNodeDiv);
    w.pod(spec.tinyNodeDiv);
    w.pod(spec.miniDegreeDiv);
    w.pod(spec.tinyDegreeDiv);
}

bool
decodeSpecFields(util::BinReader &r, DatasetSpec &spec)
{
    return r.str(spec.name) && r.pod(spec.paperNodes) &&
           r.pod(spec.paperArcs) && r.pod(spec.paperAvgDegree) &&
           r.pod(spec.paperDensityA) && r.pod(spec.x0Density) &&
           r.pod(spec.x1Density) && r.pod(spec.gcn.inFeatures) &&
           r.pod(spec.gcn.hidden) && r.pod(spec.gcn.classes) &&
           r.pod(spec.powerLawAlpha) && r.pod(spec.intraFraction) &&
           r.pod(spec.seed) && r.pod(spec.miniNodeDiv) &&
           r.pod(spec.tinyNodeDiv) && r.pod(spec.miniDegreeDiv) &&
           r.pod(spec.tinyDegreeDiv);
}

std::string
specFieldError(const DatasetSpec &spec)
{
    const std::pair<const char *, double> densities[] = {
        {"paperDensityA", spec.paperDensityA},
        {"x0Density", spec.x0Density},
        {"x1Density", spec.x1Density}};
    for (const auto &[field, value] : densities)
        if (!(value >= 0.0 && value <= 1.0)) // NaN fails both
            return field + ("=" + std::to_string(value)) +
                   " is not a density in [0, 1]";
    const std::pair<const char *, uint32_t> counts[] = {
        {"gcn.inFeatures", spec.gcn.inFeatures},
        {"gcn.hidden", spec.gcn.hidden},
        {"gcn.classes", spec.gcn.classes},
        {"miniNodeDiv", spec.miniNodeDiv},
        {"tinyNodeDiv", spec.tinyNodeDiv}};
    for (const auto &[field, value] : counts)
        if (value == 0)
            return std::string(field) + "=0 must be at least 1";
    return {};
}

const std::vector<DatasetSpec> &
allDatasets()
{
    // Structure columns transcribed from Table I. Power-law exponents
    // and intra-community fractions are synthesis choices (see
    // DESIGN.md): heavier tails for the social/e-commerce graphs,
    // strong community structure everywhere (Fig. 14 shows dense
    // diagonal blocks for all four large graphs).
    static const std::vector<DatasetSpec> datasets = {
        //  name      nodes     arcs        deg   densA     x0      x1
        {"cora", 2708, 13264, 4.90, 1.81e-3, 0.0127, 0.780,
         {1433, 16, 7}, 2.70, 0.85, 101, 1, 1, 1.0, 1.0},
        {"citeseer", 3327, 12431, 3.74, 1.12e-3, 0.0085, 0.891,
         {3703, 16, 6}, 2.90, 0.85, 102, 1, 1, 1.0, 1.0},
        {"pubmed", 19717, 108365, 5.50, 2.79e-4, 0.100, 0.776,
         {500, 16, 3}, 2.60, 0.85, 103, 1, 2, 1.0, 1.0},
        {"flickr", 89250, 989006, 11.1, 1.24e-4, 0.464, 0.772,
         {500, 64, 7}, 2.20, 0.85, 104, 2, 8, 1.0, 1.0},
        {"reddit", 232965, 114848857, 493.0, 2.12e-3, 1.000, 0.639,
         {602, 64, 41}, 2.00, 0.75, 105, 16, 64, 4.0, 8.0},
        {"yelp", 716847, 13954819, 19.5, 2.72e-5, 1.000, 0.772,
         {300, 64, 100}, 2.30, 0.85, 106, 16, 64, 2.0, 4.0},
        {"pokec", 1632803, 46236731, 28.3, 1.73e-5, 0.399, 0.772,
         {60, 64, 48}, 2.50, 0.80, 107, 16, 64, 2.0, 4.0},
        {"amazon", 2449029, 126167309, 51.5, 2.10e-5, 0.990, 0.772,
         {100, 64, 47}, 2.20, 0.85, 108, 16, 64, 2.0, 4.0},
    };
    return datasets;
}

const DatasetSpec &
datasetByName(const std::string &name)
{
    std::string n = toLower(name);
    {
        std::lock_guard<std::mutex> lock(fileRegistryMutex());
        auto it = fileRegistry().find(n);
        if (it != fileRegistry().end())
            return it->second.spec;
    }
    for (const auto &d : allDatasets())
        if (d.name == n)
            return d;
    fatal("unknown dataset: " + name);
}

const DatasetSpec &
registerFileDataset(const std::string &path)
{
    auto mapped = MappedCsrGraph::open(path);
    if (!mapped)
        fatal("dataset file unusable (missing, truncated, corrupt, "
              "stale format, or a row that is unsorted, loops or names "
              "a node out of range): " + path);
    DatasetSpec spec = mapped->spec();
    if (const std::string why = specFieldError(spec); !why.empty())
        fatal("dataset file " + path + ": " + why);
    std::lock_guard<std::mutex> lock(fileRegistryMutex());
    auto it = fileRegistry().find(spec.name);
    if (it != fileRegistry().end()) {
        if (it->second.spec.sourceChecksum != spec.sourceChecksum)
            fatal("dataset name collision: '" + spec.name +
                  "' already registered from " +
                  it->second.spec.sourceFile +
                  " with different content than " + path);
        return it->second.spec;
    }
    // Copy the key out first: `spec.name` and `std::move(spec)` are
    // indeterminately sequenced as emplace arguments.
    const std::string name = spec.name;
    auto ins = fileRegistry()
                   .emplace(name, FileDatasetEntry{std::move(spec),
                                                   std::move(mapped)})
                   .first;
    return ins->second.spec;
}

std::shared_ptr<const MappedCsrGraph>
fileDatasetGraph(const DatasetSpec &spec)
{
    if (!spec.isFileBacked())
        return nullptr;
    std::lock_guard<std::mutex> lock(fileRegistryMutex());
    auto it = fileRegistry().find(spec.name);
    GROW_ASSERT(it != fileRegistry().end() &&
                    it->second.spec.sourceChecksum == spec.sourceChecksum,
                "file-backed spec '" + spec.name +
                    "' is not in the file dataset registry");
    return it->second.graph;
}

std::vector<DatasetSpec>
datasetsByNames(const std::vector<std::string> &names)
{
    std::vector<DatasetSpec> out;
    for (const auto &n : names) {
        if (toLower(n) == "all") {
            out = allDatasets();
            return out;
        }
        if (toLower(n).rfind("file:", 0) == 0) {
            out.push_back(registerFileDataset(n.substr(5)));
            continue;
        }
        out.push_back(datasetByName(n));
    }
    return out;
}

uint32_t
scaledNodes(const DatasetSpec &spec, ScaleTier tier)
{
    switch (tier) {
      case ScaleTier::Full:
        return spec.paperNodes;
      case ScaleTier::Mini:
        return std::max(64u, spec.paperNodes / spec.miniNodeDiv);
      case ScaleTier::Tiny:
        return std::max(64u, spec.paperNodes / spec.tinyNodeDiv);
      case ScaleTier::Unit:
        return std::min(spec.paperNodes, 800u);
    }
    return spec.paperNodes;
}

double
scaledAvgDegree(const DatasetSpec &spec, ScaleTier tier)
{
    double deg = spec.paperAvgDegree;
    if (tier == ScaleTier::Mini)
        deg /= spec.miniDegreeDiv;
    if (tier == ScaleTier::Tiny)
        deg /= spec.tinyDegreeDiv;
    if (tier == ScaleTier::Unit)
        deg = std::min(deg, 16.0);
    // Degree cannot exceed the node count.
    double n = scaledNodes(spec, tier);
    return std::min(deg, n / 2.0);
}

uint32_t
plantedCommunities(uint32_t nodes)
{
    // Target ~700-node communities: matches "thousands of clusters" for
    // million-node graphs (Sec. V-C) when extrapolated to full scale.
    return std::max(2u, nodes / 700u);
}

DatasetInstance
buildDataset(const DatasetSpec &spec, ScaleTier tier)
{
    DatasetInstance inst;
    inst.spec = &datasetByName(spec.name);
    inst.tier = tier;

    if (spec.isFileBacked()) {
        // Materialize a heap copy of the mapped file; callers that can
        // stream straight off the mmap use fileDatasetGraph() instead.
        auto mapped = fileDatasetGraph(spec);
        CsrView v = mapped->view();
        inst.graph = Graph::fromAdjacency(
            {v.offsets.begin(), v.offsets.end()},
            {v.adjacency.begin(), v.adjacency.end()});
        return inst;
    }

    DcSbmParams p;
    p.nodes = scaledNodes(spec, tier);
    p.avgDegree = scaledAvgDegree(spec, tier);
    p.powerLawAlpha = spec.powerLawAlpha;
    p.communities = plantedCommunities(p.nodes);
    p.intraFraction = spec.intraFraction;
    p.maxWeightFraction = 0.10;
    p.seed = spec.seed * 7919 + static_cast<uint64_t>(tier);
    inst.graph = generateDcSbm(p, inst.plantedCommunity);
    return inst;
}

} // namespace grow::graph
