/**
 * @file
 * Out-of-core graph ingestion: the .growcsr binary interchange format
 * and the mmap-backed MappedCsrGraph.
 *
 * Every workload used to be synthesized in RAM; real power-law graphs
 * (the regime GROW targets, Sec. V) are far bigger than the synthetic
 * tiers. This file provides the ingestion path:
 *
 *  - A versioned, checksummed binary CSR file format in the same
 *    container as the WorkloadCache artefact cache (magic, format
 *    version, payload, trailing FNV-1a checksum -- util/binfile.hpp),
 *    carrying the DatasetSpec fields graph::encodeSpecFields() writes,
 *    so a converted graph replays the exact feature densities / GCN
 *    shape / seeds of its source dataset.
 *  - writeCsrFile(): streaming writer (atomic temp+rename) from any
 *    CsrView; the one writer of the format.
 *  - convertEdgeListFile(): two-pass out-of-core text converter.
 *    Edge-list / COO text is scanned once to count degrees, scattered
 *    through a temporary mmap-backed arc file (the OS pages it, not
 *    the heap), per-row sorted and deduplicated in place, compacted
 *    to the final offsets, then handed to writeCsrFile() as a view of
 *    the mapping. Host RAM stays O(nodes), never O(edges).
 *  - MappedCsrGraph: read-only mmap of a .growcsr file exposing the
 *    graph::CsrView accessor surface, so partitioning and simulation
 *    stream graphs larger than RAM straight off the page cache.
 *    Selected end to end via `dataset=file:<path>`.
 *
 * A truncated, corrupted, stale-version or foreign file is never
 * trusted: open() verifies the header, the structural bounds and the
 * payload checksum, and returns null on any mismatch.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "graph/datasets.hpp"
#include "graph/graph.hpp"

namespace grow::graph {

/** File magic identifying a GROW binary CSR graph. */
inline constexpr char kCsrFileMagic[8] = {'G', 'R', 'O', 'W',
                                          'C', 'S', 'R', 'F'};

/**
 * On-disk CSR format version. Bump whenever the serialized layout or
 * the semantics of any field change: stale files must be rejected at
 * open, never reinterpreted.
 */
inline constexpr uint32_t kCsrFileFormatVersion = 1;

/**
 * Serialize @p g with @p spec's identity/synthesis metadata to @p path
 * (atomic via temp+rename). @p tier records the scale the graph was
 * instantiated at, so benches can sanity-check `scale=` against the
 * file. Returns false (after logging) when the file cannot be written.
 */
bool writeCsrFile(const std::string &path, const DatasetSpec &spec,
                  ScaleTier tier, const CsrView &g);

/** Outcome counters of one edge-list conversion. */
struct ConvertStats
{
    uint32_t nodes = 0;
    uint64_t arcs = 0;           ///< directed arcs in the output
    uint64_t textEdges = 0;      ///< edge lines parsed
    uint64_t selfLoops = 0;      ///< dropped (u, u) lines
    uint64_t duplicateArcs = 0;  ///< dropped repeated adjacency entries
};

/**
 * Convert whitespace-separated edge-list / COO text at @p text_path
 * into a .growcsr file at @p out_path. Lines are `u v` or `u v w` (the
 * weight is ignored -- GROW operates on binary adjacency structure);
 * `#` and `%` comment lines and blank lines are skipped. The graph is
 * undirected: every line contributes both (u,v) and (v,u) adjacency
 * entries; self loops are dropped and duplicate edges deduplicated,
 * matching Graph::fromEdges exactly (round trips are bit-identical).
 *
 * Out-of-core by construction: the text is streamed twice, arcs are
 * scattered through a temporary mmap-backed file next to @p out_path,
 * and the compacted mapping is written out by writeCsrFile(). Host
 * heap usage is O(nodes), never O(edges).
 *
 * @p spec_template supplies the dataset identity (name, GCN shape,
 * feature densities, seeds) stored in the file; its structural fields
 * (node/arc counts, degrees) are overwritten with the measured values.
 * @p nodes_hint forces at least that many nodes (isolated tail nodes
 * included); the maximum endpoint + 1 is used when larger. fatal() on
 * unparsable text or when the output cannot be written.
 */
ConvertStats convertEdgeListFile(const std::string &text_path,
                                 const std::string &out_path,
                                 const DatasetSpec &spec_template,
                                 ScaleTier tier,
                                 uint32_t nodes_hint = 0);

/**
 * Read-only mmap view of a .growcsr file. The offsets/adjacency arrays
 * are used in place -- opening a 100 GB graph costs two pages plus two
 * sequential passes, the checksum and a per-row check -- and the
 * kernel pages adjacency in and out on demand, which is what lets the
 * build pipeline and simulator stream graphs larger than RAM.
 *
 * Instances are immutable and shared by shared_ptr (the file dataset
 * registry and every GraphArtifacts bundle built from it hold one).
 */
class MappedCsrGraph
{
  public:
    /**
     * Map @p path. Returns null -- never throws, never returns partial
     * data -- when the file is missing, truncated, corrupted (checksum
     * mismatch), from another format version, or structurally invalid
     * (non-monotone offsets, or a row that is not strictly ascending,
     * holds a self loop or names a node out of range). Symmetry is
     * checked only by validateStructure().
     */
    static std::shared_ptr<const MappedCsrGraph>
    open(const std::string &path);

    ~MappedCsrGraph();

    MappedCsrGraph(const MappedCsrGraph &) = delete;
    MappedCsrGraph &operator=(const MappedCsrGraph &) = delete;

    /** Dataset identity embedded at conversion time. sourceFile /
     *  sourceChecksum are filled in, so WorkloadCache keys derived
     *  from this spec include the file content identity. */
    const DatasetSpec &spec() const { return spec_; }

    /** Scale tier recorded when the file was written. */
    ScaleTier tier() const { return tier_; }

    /** The accessor surface the build pipeline consumes. */
    CsrView view() const { return {{offsets_, numNodes_ + 1ull},
                                   {adjacency_, numArcs_}}; }

    uint32_t numNodes() const { return numNodes_; }
    uint64_t numArcs() const { return numArcs_; }

    /** Payload checksum: the content identity used in cache keys. */
    uint64_t checksum() const { return checksum_; }

    const std::string &path() const { return path_; }

    /**
     * Full structural validation (sorted rows, symmetry, no self
     * loops) -- O(arcs log degree), touches every page; meant for
     * tests and `graph_convert verify=`, not the open path.
     */
    bool validateStructure() const;

  private:
    MappedCsrGraph() = default;

    std::string path_;
    void *map_ = nullptr;
    uint64_t mapBytes_ = 0;
    const uint64_t *offsets_ = nullptr;
    const NodeId *adjacency_ = nullptr;
    uint32_t numNodes_ = 0;
    uint64_t numArcs_ = 0;
    uint64_t checksum_ = 0;
    ScaleTier tier_ = ScaleTier::Full;
    DatasetSpec spec_;
};

} // namespace grow::graph
