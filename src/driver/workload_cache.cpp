#include "driver/workload_cache.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/binfile.hpp"
#include "util/logging.hpp"

namespace grow::driver {

namespace {

namespace fs = std::filesystem;

/** File magic: identifies a GROW artefact cache file. */
constexpr char kMagic[8] = {'G', 'R', 'O', 'W', 'A', 'R', 'T', 'C'};

void
putCsr(util::BinWriter &w, const sparse::CsrMatrix &m)
{
    w.pod(m.rows());
    w.pod(m.cols());
    w.vec(m.rowPtr());
    w.vec(m.colIdx());
    w.vec(m.values());
}

bool
getCsr(util::BinReader &r, sparse::CsrMatrix &out)
{
    uint32_t rows = 0, cols = 0;
    std::vector<uint64_t> rowPtr;
    std::vector<NodeId> colIdx;
    std::vector<double> values;
    if (!r.pod(rows) || !r.pod(cols) || !r.vec(rowPtr) || !r.vec(colIdx) ||
        !r.vec(values))
        return false;
    // fromRaw validates structure and panics on inconsistency; the
    // caller treats any throw as a failed load.
    out = sparse::CsrMatrix::fromRaw(rows, cols, std::move(rowPtr),
                                     std::move(colIdx), std::move(values));
    return true;
}

std::string
tierToken(graph::ScaleTier tier)
{
    return graph::tierName(tier);
}

/**
 * Fingerprint of every DatasetSpec field that feeds synthesis or the
 * workload shape. Stored in the cache payload so that editing the
 * dataset registry (a seed, a degree divisor, the GCN shape, ...)
 * invalidates old files just like a format bump would -- the
 * key/version header alone cannot see data-table edits.
 */
uint64_t
specFingerprint(const graph::DatasetSpec &spec)
{
    util::BinWriter w;
    graph::encodeSpecFields(w, spec);
    // File-backed datasets: the payload checksum of the .growcsr the
    // spec was decoded from (0 for synthesized specs). Re-converting
    // the file invalidates artefacts just like a registry edit would.
    w.pod(spec.sourceChecksum);
    return util::fnv1a(w.bytes().data(), w.bytes().size());
}

} // namespace

ArtifactKey
ArtifactKey::of(const graph::DatasetSpec &spec, graph::ScaleTier tier,
                const gcn::PartitionPlan &plan)
{
    ArtifactKey k;
    k.dataset = spec.name;
    k.tier = tier;
    k.plan = plan;
    k.fileChecksum = spec.sourceChecksum;
    return k;
}

std::string
ArtifactKey::fingerprint() const
{
    std::ostringstream oss;
    oss << dataset << '-' << tierToken(tier) << "-p"
        << (plan.buildPartitioning ? 1 : 0) << "-c"
        << plan.targetClusterSize << "-h" << plan.hdnTopN;
    if (fileChecksum != 0)
        oss << "-f" << std::hex << fileChecksum;
    return oss.str();
}

bool
ArtifactKey::operator<(const ArtifactKey &o) const
{
    auto tie = [](const ArtifactKey &k) {
        return std::make_tuple(k.dataset, static_cast<int>(k.tier),
                               k.plan.buildPartitioning,
                               k.plan.targetClusterSize, k.plan.hdnTopN,
                               k.fileChecksum);
    };
    return tie(*this) < tie(o);
}

bool
saveArtifacts(const std::string &path, const gcn::GraphArtifacts &a)
{
    GROW_ASSERT(a.spec != nullptr, "artefacts without a dataset spec");
    util::BinWriter w;
    w.str(a.spec->name);
    w.pod(specFingerprint(*a.spec));
    w.pod(static_cast<uint32_t>(a.tier));
    w.pod(static_cast<uint8_t>(a.plan.buildPartitioning));
    w.pod(a.plan.targetClusterSize);
    w.pod(a.plan.hdnTopN);
    w.pod(a.maxClusterNodes);
    w.pod(static_cast<uint8_t>(a.hasPartitioning));
    w.pod(static_cast<uint8_t>(a.fileBacked()));
    // v4: a file-backed bundle's graph stays in its .growcsr file
    // (re-mapped at load); only heap bundles serialize the arrays.
    if (!a.fileBacked()) {
        w.vec(a.graph.offsets());
        w.vec(a.graph.adjacency());
    }
    putCsr(w, a.adjacency);
    if (a.hasPartitioning) {
        putCsr(w, a.adjacencyPartitioned);
        w.vec(a.relabel.newToOld);
        w.vec(a.relabel.clustering.clusterStart);
        w.pod(static_cast<uint64_t>(a.hdnLists.size()));
        for (const auto &list : a.hdnLists)
            w.vec(list);
    }

    return util::writeBinFile(path, kMagic, kArtifactFormatVersion, 0,
                              [&](util::PayloadSink &out) {
                                  out.put(w.bytes().data(),
                                          w.bytes().size());
                              });
}

std::shared_ptr<const gcn::GraphArtifacts>
loadArtifacts(const std::string &path, const ArtifactKey &expected)
{
    // One sized read into one buffer; the container check and the
    // reader both work on it in place (artefact files can be large,
    // and tripling the footprint on the warm-start path would defeat
    // the cache).
    std::string raw;
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        if (!in)
            return nullptr;
        const auto size = in.tellg();
        if (size < 0)
            return nullptr;
        raw.resize(static_cast<size_t>(size));
        in.seekg(0);
        in.read(raw.data(), size);
        if (!in)
            return nullptr;
    }
    const auto payload = util::checkBinFile(
        raw.data(), raw.size(), kMagic, kArtifactFormatVersion, 0);
    if (!payload)
        return nullptr;

    try {
        util::BinReader r(raw.data(), payload->begin, payload->end);
        auto a = std::make_shared<gcn::GraphArtifacts>();

        std::string dataset;
        uint64_t fingerprint = 0;
        uint32_t tier = 0;
        uint8_t buildPartitioning = 0;
        if (!r.str(dataset) || !r.pod(fingerprint) || !r.pod(tier) ||
            !r.pod(buildPartitioning) ||
            !r.pod(a->plan.targetClusterSize) || !r.pod(a->plan.hdnTopN) ||
            !r.pod(a->maxClusterNodes))
            return nullptr;
        a->plan.buildPartitioning = buildPartitioning != 0;
        a->tier = static_cast<graph::ScaleTier>(tier);
        if (dataset != expected.dataset || a->tier != expected.tier ||
            a->plan.buildPartitioning != expected.plan.buildPartitioning ||
            a->plan.targetClusterSize !=
                expected.plan.targetClusterSize ||
            a->plan.hdnTopN != expected.plan.hdnTopN)
            return nullptr;
        a->spec = &graph::datasetByName(dataset);
        // The registry's spec may have been edited since the file was
        // written; stale synthesis parameters must rebuild. For
        // file-backed datasets the fingerprint covers the .growcsr
        // payload checksum, so a re-converted file rebuilds too.
        if (fingerprint != specFingerprint(*a->spec))
            return nullptr;
        if (a->spec->sourceChecksum != expected.fileChecksum)
            return nullptr;

        uint8_t hasPartitioning = 0;
        uint8_t fileBacked = 0;
        if (!r.pod(hasPartitioning) || !r.pod(fileBacked))
            return nullptr;
        a->hasPartitioning = hasPartitioning != 0;
        if (a->hasPartitioning != a->plan.buildPartitioning)
            return nullptr;
        if ((fileBacked != 0) != a->spec->isFileBacked())
            return nullptr;

        if (fileBacked != 0) {
            // The graph never left its .growcsr: re-attach the mapped
            // instance held by the file-dataset registry.
            a->mapped = graph::fileDatasetGraph(*a->spec);
            if (a->mapped == nullptr)
                return nullptr;
        } else {
            std::vector<uint64_t> offsets;
            std::vector<NodeId> neighbors;
            if (!r.vec(offsets) || !r.vec(neighbors))
                return nullptr;
            a->graph = graph::Graph::fromAdjacency(std::move(offsets),
                                                   std::move(neighbors));
        }
        if (!getCsr(r, a->adjacency))
            return nullptr;
        if (a->hasPartitioning) {
            uint64_t numLists = 0;
            if (!getCsr(r, a->adjacencyPartitioned) ||
                !r.vec(a->relabel.newToOld) ||
                !r.vec(a->relabel.clustering.clusterStart) ||
                !r.pod(numLists))
                return nullptr;
            a->hdnLists.resize(numLists);
            for (auto &list : a->hdnLists)
                if (!r.vec(list))
                    return nullptr;
        }
        if (!r.done())
            return nullptr; // trailing bytes: not a file we wrote
        if (a->adjacency.rows() != a->graphView().numNodes())
            return nullptr;
        return a;
    } catch (const std::exception &e) {
        logWarn("artifact cache load failed for " + path + ": " +
                e.what());
        return nullptr;
    }
}

WorkloadCache::WorkloadCache(std::string disk_dir) : dir_(std::move(disk_dir))
{
}

std::string
WorkloadCache::pathFor(const ArtifactKey &key) const
{
    return (fs::path(dir_) / (key.fingerprint() + ".growart")).string();
}

std::shared_ptr<const gcn::GraphArtifacts>
WorkloadCache::artifacts(const graph::DatasetSpec &spec,
                         graph::ScaleTier tier,
                         const gcn::PartitionPlan &plan)
{
    const ArtifactKey key = ArtifactKey::of(spec, tier, plan);
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = mem_.find(key);
        if (it != mem_.end()) {
            ++stats_.memoryHits;
            return it->second;
        }
    }

    // Build / load outside the lock: synthesis can take seconds and
    // independent keys should not serialize on each other.
    std::shared_ptr<const gcn::GraphArtifacts> built;
    bool fromDisk = false;
    bool diskFailed = false;
    if (!dir_.empty()) {
        const std::string path = pathFor(key);
        built = loadArtifacts(path, key);
        if (built)
            fromDisk = true;
        else if (fs::exists(fs::path(path)))
            diskFailed = true; // present but unusable: rebuild
    }
    if (!built) {
        uint32_t threads = 1;
        {
            std::lock_guard<std::mutex> lock(mu_);
            threads = buildThreads_;
        }
        built = gcn::buildGraphArtifacts(spec, tier, plan, threads);
    }

    bool stored = false;
    if (!dir_.empty() && !fromDisk)
        stored = saveArtifacts(pathFor(key), *built);

    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = mem_.try_emplace(key, built);
    if (!inserted) {
        // Another thread built the same key first; adopt its bundle so
        // every consumer shares one instance.
        ++stats_.memoryHits;
        return it->second;
    }
    if (!fromDisk && built->buildProfile.valid)
        buildLog_.emplace_back(spec.name, built->buildProfile);
    if (fromDisk)
        ++stats_.diskLoads;
    else
        ++stats_.builds;
    if (diskFailed)
        ++stats_.diskFailures;
    if (stored)
        ++stats_.diskStores;
    return built;
}

gcn::GcnWorkload
WorkloadCache::workload(const graph::DatasetSpec &spec,
                        const gcn::WorkloadConfig &config)
{
    return gcn::buildLayerData(
        artifacts(spec, config.tier, config.plan), config);
}

WorkloadCache::Stats
WorkloadCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

WorkloadCache::Snapshot
WorkloadCache::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Snapshot s;
    s.counters = stats_;
    s.entries = mem_.size();
    return s;
}

std::vector<std::pair<std::string, gcn::GraphArtifacts::BuildProfile>>
WorkloadCache::buildLog() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return buildLog_;
}

void
WorkloadCache::setBuildThreads(uint32_t threads)
{
    std::lock_guard<std::mutex> lock(mu_);
    buildThreads_ = threads == 0 ? 1 : threads;
}

} // namespace grow::driver
