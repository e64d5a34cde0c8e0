/**
 * @file
 * Registry of the paper's eight evaluation datasets (Table I).
 *
 * Each DatasetSpec records the published structure (node count, arc
 * count, feature densities, GCN layer shape) plus the synthesis
 * parameters used to generate a structurally equivalent DC-SBM graph.
 *
 * Scale tiers: because a full-scale Amazon (2.4M nodes, 126M arcs) makes
 * every sweep bench run for hours, large graphs can be instantiated at
 * reduced node counts with the average degree preserved:
 *  - Full: exactly the paper's node counts.
 *  - Mini: the default for headline benches; large graphs / 16.
 *  - Tiny: for multi-point sweeps; large graphs / 64 (Reddit also
 *    reduces degree 4x to keep density plausible).
 *  - Unit: a few hundred nodes, for unit/integration tests.
 * The relative ordering of datasets and all qualitative behaviours
 * (power law, community structure, hypersparse adjacency tiles) are
 * preserved; EXPERIMENTS.md quantifies the effect of the rescaling.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace grow::util {
class BinReader;
class BinWriter;
} // namespace grow::util

namespace grow::graph {

/** Evaluation scale for a dataset instantiation. */
enum class ScaleTier { Full, Mini, Tiny, Unit };

/** Parse "full"/"mini"/"tiny"/"unit" (case-insensitive). */
ScaleTier tierFromString(const std::string &s);

/** Human-readable tier name. */
const char *tierName(ScaleTier tier);

/** GCN layer dimensions from Table I ("Feature length F0-H-C"). */
struct GcnShape
{
    uint32_t inFeatures = 0; ///< F0: input feature length
    uint32_t hidden = 0;     ///< H: hidden feature length
    uint32_t classes = 0;    ///< C: output classes
};

/** One evaluation dataset: published structure + synthesis parameters. */
struct DatasetSpec
{
    std::string name;

    // Published structure (Table I).
    uint32_t paperNodes = 0;
    uint64_t paperArcs = 0;      ///< "# of Edges" row (directed arcs)
    double paperAvgDegree = 0.0;
    double paperDensityA = 0.0;
    double x0Density = 0.0;      ///< input feature matrix density
    double x1Density = 0.0;      ///< post-layer-1 feature density
    GcnShape gcn;

    // Synthesis parameters.
    double powerLawAlpha = 2.3;
    double intraFraction = 0.85;
    uint64_t seed = 1;

    // Scale-tier node/degree divisors.
    uint32_t miniNodeDiv = 1;
    uint32_t tinyNodeDiv = 1;
    double miniDegreeDiv = 1.0;
    double tinyDegreeDiv = 1.0;

    /**
     * File-backed datasets (`dataset=file:<path>`): the graph is
     * mmap-loaded from a .growcsr file (graph/file_graph.hpp) instead
     * of synthesized, and the payload checksum joins every cache key
     * derived from this spec so two files never alias. Empty/0 for
     * the synthesized registry datasets.
     */
    std::string sourceFile;
    uint64_t sourceChecksum = 0;
    ScaleTier sourceTier = ScaleTier::Full;

    /** Whether the graph comes from a .growcsr file. */
    bool isFileBacked() const { return !sourceFile.empty(); }
};

/**
 * The one on-disk encoding of a spec: the name and the 16 published
 * structure, GCN shape, synthesis and scale-divisor fields, in
 * declaration order. A .growcsr file stores it followed by the tier;
 * the artefact cache's spec fingerprint hashes it followed by
 * sourceChecksum. Changing it changes the bytes of both formats, so
 * both format versions must be bumped with it.
 */
void encodeSpecFields(util::BinWriter &w, const DatasetSpec &spec);

/** Decode encodeSpecFields()'s fields into @p spec; false on underrun. */
bool decodeSpecFields(util::BinReader &r, DatasetSpec &spec);

/**
 * Why the decoded fields of @p spec cannot drive a workload, naming
 * the field, or empty when they can: the three densities must be
 * finite and in [0, 1], the GCN widths and the node divisors at least
 * 1. A .growcsr file carries these fields, so registerFileDataset()
 * and `graph_convert verify=` check every file with this.
 */
std::string specFieldError(const DatasetSpec &spec);

/** The eight datasets of Table I, ordered by node count. */
const std::vector<DatasetSpec> &allDatasets();

/**
 * Lookup by (case-insensitive) name; fatal() when unknown. File
 * datasets registered via registerFileDataset() are consulted first,
 * so a registered file *shadows* the builtin of the same name for the
 * rest of the process -- exactly what lets a converted Table I graph
 * replay its in-memory twin bit for bit.
 */
const DatasetSpec &datasetByName(const std::string &name);

/**
 * Resolve a list of names ("all" expands to every dataset). A
 * `file:<path>` entry opens the .growcsr file at <path> and registers
 * it under the dataset name embedded in its header.
 */
std::vector<DatasetSpec> datasetsByNames(const std::vector<std::string> &names);

class MappedCsrGraph;

/**
 * Open the .growcsr file at @p path (fatal() when unreadable, corrupt
 * or carrying a spec field specFieldError() rejects -- a named file
 * that cannot be used is a configuration error) and register it in
 * the process-wide file dataset registry
 * under its embedded dataset name. Re-registering the same content is
 * idempotent; two different files claiming one name fatal(). The
 * returned spec carries sourceFile/sourceChecksum/sourceTier.
 */
const DatasetSpec &registerFileDataset(const std::string &path);

/**
 * The mapped graph backing a file-backed @p spec (registered earlier);
 * null for synthesized specs.
 */
std::shared_ptr<const MappedCsrGraph>
fileDatasetGraph(const DatasetSpec &spec);

/** Node count of @p spec at @p tier. */
uint32_t scaledNodes(const DatasetSpec &spec, ScaleTier tier);

/** Average degree of @p spec at @p tier. */
double scaledAvgDegree(const DatasetSpec &spec, ScaleTier tier);

/**
 * Number of planted communities at a given node count (targets the
 * cluster granularity GROW's partitioning preprocessing aims for).
 */
uint32_t plantedCommunities(uint32_t nodes);

/** A generated dataset: graph + provenance. */
struct DatasetInstance
{
    const DatasetSpec *spec = nullptr;
    ScaleTier tier = ScaleTier::Mini;
    Graph graph;
    /** Ground-truth community per node (for generator tests only). */
    std::vector<uint32_t> plantedCommunity;

    uint32_t nodes() const { return graph.numNodes(); }
};

/** Synthesise @p spec at @p tier (deterministic per spec.seed). */
DatasetInstance buildDataset(const DatasetSpec &spec, ScaleTier tier);

} // namespace grow::graph
