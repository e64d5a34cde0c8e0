#include "graph/file_graph.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <vector>

#include "util/binfile.hpp"
#include "util/logging.hpp"

namespace grow::graph {

namespace {

namespace fs = std::filesystem;

/**
 * .growcsr layout inside the util/binfile.hpp container (magic
 * "GROWCSRF", kCsrFileFormatVersion, one reserved u32 of header pad):
 *
 *   [16] spec block: graph::encodeSpecFields + u32 tier
 *   [..] u32       numNodes
 *   [..] u64       numArcs
 *   [..] zero pad to the next 8-byte-aligned *file* offset
 *   [..] u64[n+1]  offsets      (8-aligned, used in place via mmap)
 *   [..] u32[arcs] adjacency    (NodeId)
 */
constexpr size_t kHeaderPad = sizeof(uint32_t);

/** RAII mmap of a whole file (read-only or read-write). */
struct FileMap
{
    void *addr = nullptr;
    size_t bytes = 0;
    int fd = -1;

    bool
    open(const std::string &path, bool writable)
    {
        fd = ::open(path.c_str(), writable ? O_RDWR : O_RDONLY);
        if (fd < 0)
            return false;
        struct stat st;
        if (::fstat(fd, &st) != 0 || st.st_size < 0) {
            close();
            return false;
        }
        bytes = static_cast<size_t>(st.st_size);
        if (bytes == 0)
            return true; // empty mapping is legal for us (addr null)
        addr = ::mmap(nullptr, bytes,
                      writable ? (PROT_READ | PROT_WRITE) : PROT_READ,
                      writable ? MAP_SHARED : MAP_PRIVATE, fd, 0);
        if (addr == MAP_FAILED) {
            addr = nullptr;
            close();
            return false;
        }
        return true;
    }

    void
    close()
    {
        if (addr != nullptr)
            ::munmap(addr, bytes);
        if (fd >= 0)
            ::close(fd);
        addr = nullptr;
        bytes = 0;
        fd = -1;
    }

    ~FileMap() { close(); }
};

/** One parsed edge line. */
struct EdgeLine
{
    uint64_t u = 0;
    uint64_t v = 0;
    bool isEdge = false; ///< false: comment/blank line
};

/**
 * Parse one text line: `u v` or `u v w`, '#'/'%' comments, blank lines.
 * fatal() on anything else -- silently skipping garbage would corrupt
 * the graph.
 */
EdgeLine
parseLine(const std::string &line, uint64_t line_no,
          const std::string &text_path)
{
    EdgeLine e;
    const char *p = line.c_str();
    while (*p == ' ' || *p == '\t' || *p == '\r')
        ++p;
    if (*p == '\0' || *p == '#' || *p == '%')
        return e;
    char *end = nullptr;
    errno = 0;
    e.u = std::strtoull(p, &end, 10);
    if (end == p || errno != 0)
        fatal(text_path + ":" + std::to_string(line_no) +
              ": expected `u v [w]` edge line");
    p = end;
    while (*p == ' ' || *p == '\t' || *p == ',')
        ++p;
    errno = 0;
    e.v = std::strtoull(p, &end, 10);
    if (end == p || errno != 0)
        fatal(text_path + ":" + std::to_string(line_no) +
              ": expected `u v [w]` edge line");
    // Anything after the second endpoint (an optional weight) is
    // ignored; GROW operates on binary adjacency structure.
    e.isEdge = true;
    return e;
}

} // namespace

bool
writeCsrFile(const std::string &path, const DatasetSpec &spec,
             ScaleTier tier, const CsrView &g)
{
    GROW_ASSERT(g.offsets.size() ==
                    static_cast<size_t>(g.numNodes()) + 1,
                "CSR view with inconsistent offsets");
    util::BinWriter head;
    encodeSpecFields(head, spec);
    head.pod(static_cast<uint32_t>(tier));
    head.pod(g.numNodes());
    head.pod(g.numArcs());
    return util::writeBinFile(
        path, kCsrFileMagic, kCsrFileFormatVersion, kHeaderPad,
        [&](util::PayloadSink &out) {
            out.put(head.bytes().data(), head.bytes().size());
            out.padTo8();
            out.put(g.offsets.data(), g.offsets.size() * sizeof(uint64_t));
            out.put(g.adjacency.data(),
                    g.adjacency.size() * sizeof(NodeId));
        });
}

ConvertStats
convertEdgeListFile(const std::string &text_path,
                    const std::string &out_path,
                    const DatasetSpec &spec_template, ScaleTier tier,
                    uint32_t nodes_hint)
{
    ConvertStats stats;

    // ---- Pass 1: count raw degrees (self loops excluded, duplicates
    // still included) and find the node-id range. Host RAM: O(nodes).
    std::vector<uint64_t> rawDegree;
    uint64_t maxNode = 0;
    bool sawEdge = false;
    {
        std::ifstream in(text_path);
        if (!in)
            fatal("cannot open edge list: " + text_path);
        std::string line;
        uint64_t lineNo = 0;
        while (std::getline(in, line)) {
            ++lineNo;
            EdgeLine e = parseLine(line, lineNo, text_path);
            if (!e.isEdge)
                continue;
            ++stats.textEdges;
            if (e.u == e.v) {
                ++stats.selfLoops;
                continue;
            }
            uint64_t hi = std::max(e.u, e.v);
            if (hi >= kInvalidNode)
                fatal(text_path + ":" + std::to_string(lineNo) +
                      ": node id " + std::to_string(hi) +
                      " exceeds the 32-bit node-id range");
            maxNode = std::max(maxNode, hi);
            sawEdge = true;
            if (hi >= rawDegree.size())
                rawDegree.resize(hi + 1, 0);
            ++rawDegree[e.u];
            ++rawDegree[e.v];
        }
    }
    uint32_t nodes = sawEdge ? static_cast<uint32_t>(maxNode) + 1 : 0;
    nodes = std::max(nodes, nodes_hint);
    rawDegree.resize(nodes, 0);
    stats.nodes = nodes;

    // Raw (pre-dedup) CSR offsets; doubles as the scatter cursor base.
    std::vector<uint64_t> rawOffset(static_cast<size_t>(nodes) + 1, 0);
    for (uint32_t v = 0; v < nodes; ++v)
        rawOffset[v + 1] = rawOffset[v] + rawDegree[v];
    const uint64_t rawArcs = rawOffset[nodes];

    // ---- Pass 2: scatter both arc directions into a temporary
    // mmap-backed file next to the output. The OS pages the arc pool;
    // the heap never holds it.
    fs::path tmpArcs(out_path);
    tmpArcs += ".arcs.tmp";
    FileMap arcMap;
    if (rawArcs > 0) {
        {
            std::ofstream touch(tmpArcs, std::ios::binary |
                                             std::ios::trunc);
            if (!touch)
                fatal("cannot create scatter file: " + tmpArcs.string());
        }
        std::error_code ec;
        fs::resize_file(tmpArcs, rawArcs * sizeof(NodeId), ec);
        if (ec)
            fatal("cannot size scatter file " + tmpArcs.string() + ": " +
                  ec.message());
        if (!arcMap.open(tmpArcs.string(), /*writable=*/true))
            fatal("cannot map scatter file: " + tmpArcs.string());
    }
    NodeId *arcs = static_cast<NodeId *>(arcMap.addr);
    {
        std::vector<uint64_t> cursor(rawOffset.begin(),
                                     rawOffset.end() - 1);
        std::ifstream in(text_path);
        if (!in)
            fatal("cannot reopen edge list: " + text_path);
        std::string line;
        uint64_t lineNo = 0;
        while (std::getline(in, line)) {
            ++lineNo;
            EdgeLine e = parseLine(line, lineNo, text_path);
            if (!e.isEdge || e.u == e.v)
                continue;
            arcs[cursor[e.u]++] = static_cast<NodeId>(e.v);
            arcs[cursor[e.v]++] = static_cast<NodeId>(e.u);
        }
    }

    // ---- Per-row sort + dedup in place (matches Graph::fromEdges
    // semantics exactly), then move each row's kept prefix down to its
    // final offset. finalOffset[v] <= rawOffset[v] and rows move in
    // order, so a row only ever lands on bytes already consumed.
    std::vector<uint64_t> finalOffset(static_cast<size_t>(nodes) + 1, 0);
    for (uint32_t v = 0; v < nodes; ++v) {
        NodeId *begin = arcs + rawOffset[v];
        NodeId *end = arcs + rawOffset[v + 1];
        std::sort(begin, end);
        NodeId *kept = std::unique(begin, end);
        stats.duplicateArcs += static_cast<uint64_t>(end - kept);
        NodeId *dest = arcs + finalOffset[v];
        if (dest != begin)
            std::copy(begin, kept, dest);
        finalOffset[v + 1] =
            finalOffset[v] + static_cast<uint64_t>(kept - begin);
    }
    stats.arcs = finalOffset[nodes];

    DatasetSpec spec = spec_template;
    // Structural fields reflect the measured graph, not whatever the
    // template claimed.
    spec.paperNodes = nodes;
    spec.paperArcs = stats.arcs;
    spec.paperAvgDegree =
        nodes == 0 ? 0.0
                   : static_cast<double>(stats.arcs) /
                         static_cast<double>(nodes);
    spec.paperDensityA =
        nodes == 0 ? 0.0
                   : static_cast<double>(stats.arcs) /
                         (static_cast<double>(nodes) *
                          static_cast<double>(nodes));
    const CsrView compacted{{finalOffset.data(), finalOffset.size()},
                            {arcs, stats.arcs}};
    const bool written = writeCsrFile(out_path, spec, tier, compacted);
    arcMap.close();
    std::error_code ec;
    fs::remove(tmpArcs, ec);
    if (!written)
        fatal("cannot write " + out_path);
    return stats;
}

std::shared_ptr<const MappedCsrGraph>
MappedCsrGraph::open(const std::string &path)
{
    auto map = std::make_unique<FileMap>();
    if (!map->open(path, /*writable=*/false))
        return nullptr;
    const char *base = static_cast<const char *>(map->addr);
    const auto payload =
        util::checkBinFile(base, map->bytes, kCsrFileMagic,
                           kCsrFileFormatVersion, kHeaderPad);
    if (!payload)
        return nullptr;

    util::BinReader r(base, payload->begin, payload->end);
    DatasetSpec spec;
    uint32_t tierRaw = 0;
    uint32_t nodes = 0;
    uint64_t arcs = 0;
    if (!decodeSpecFields(r, spec) || !r.pod(tierRaw) || !r.pod(nodes) ||
        !r.pod(arcs))
        return nullptr;
    if (spec.name.empty() ||
        tierRaw > static_cast<uint32_t>(ScaleTier::Unit))
        return nullptr;
    const auto tier = static_cast<ScaleTier>(tierRaw);
    if (r.pos() % 8 != 0 && !r.skip(8 - r.pos() % 8))
        return nullptr;

    const uint64_t offsetsBytes =
        (static_cast<uint64_t>(nodes) + 1) * sizeof(uint64_t);
    const uint64_t adjBytes = arcs * sizeof(NodeId);
    if (payload->end - r.pos() != offsetsBytes + adjBytes)
        return nullptr; // truncated or trailing bytes: not ours
    const uint64_t *offsets =
        reinterpret_cast<const uint64_t *>(base + r.pos());
    const NodeId *adjacency =
        reinterpret_cast<const NodeId *>(base + r.pos() + offsetsBytes);

    // Structural bounds: monotone offsets bracketing exactly the
    // adjacency array, and rows that are strictly ascending, hold no
    // self loop and name only existing nodes (the build stages index
    // per-node arrays with them unchecked and rely on sorted rows).
    // Symmetry costs a search per arc and is left to
    // validateStructure() -- the checksum already rules out
    // corruption, this rules out a well-formed file describing an
    // impossible CSR.
    if (offsets[0] != 0 || offsets[nodes] != arcs)
        return nullptr;
    for (uint32_t v = 0; v < nodes; ++v) {
        if (offsets[v] > offsets[v + 1])
            return nullptr;
        for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
            const NodeId w = adjacency[i];
            if (w >= nodes || w == v ||
                (i > offsets[v] && w <= adjacency[i - 1]))
                return nullptr;
        }
    }

    auto g = std::shared_ptr<MappedCsrGraph>(new MappedCsrGraph());
    g->path_ = path;
    g->map_ = map->addr;
    g->mapBytes_ = map->bytes;
    // Mapping ownership moves to g; the fd is no longer needed (the
    // mapping keeps the file alive).
    map->addr = nullptr;
    map->bytes = 0;
    g->offsets_ = offsets;
    g->adjacency_ = adjacency;
    g->numNodes_ = nodes;
    g->numArcs_ = arcs;
    g->checksum_ = payload->checksum;
    g->tier_ = tier;
    spec.sourceFile = path;
    spec.sourceChecksum = payload->checksum;
    spec.sourceTier = tier;
    g->spec_ = std::move(spec);
    return g;
}

MappedCsrGraph::~MappedCsrGraph()
{
    if (map_ != nullptr)
        ::munmap(map_, mapBytes_);
}

bool
MappedCsrGraph::validateStructure() const
{
    const CsrView v = view();
    for (NodeId u = 0; u < numNodes_; ++u) {
        auto nbrs = v.neighbors(u);
        NodeId prev = kInvalidNode;
        for (NodeId w : nbrs) {
            if (w >= numNodes_ || w == u)
                return false;
            if (prev != kInvalidNode && w <= prev)
                return false; // unsorted or duplicate
            prev = w;
            // Symmetry: u must appear in w's sorted list.
            auto back = v.neighbors(w);
            if (!std::binary_search(back.begin(), back.end(), u))
                return false;
        }
    }
    return true;
}

} // namespace grow::graph
