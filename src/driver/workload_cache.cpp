#include "driver/workload_cache.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/checksum.hpp"
#include "util/logging.hpp"

namespace grow::driver {

namespace {

namespace fs = std::filesystem;

/** File magic: identifies a GROW artefact cache file. */
constexpr char kMagic[8] = {'G', 'R', 'O', 'W', 'A', 'R', 'T', 'C'};

/** FNV-1a 64-bit over a byte range; cheap and order-sensitive. */
uint64_t
checksum(const char *data, size_t size)
{
    return util::fnv1a(data, size);
}

/** Append-only little encoder over a byte buffer. */
class Writer
{
  public:
    template <typename T>
    void
    pod(T v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const char *p = reinterpret_cast<const char *>(&v);
        buf_.append(p, sizeof(T));
    }

    void
    str(const std::string &s)
    {
        pod(static_cast<uint32_t>(s.size()));
        buf_.append(s);
    }

    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        pod(static_cast<uint64_t>(v.size()));
        buf_.append(reinterpret_cast<const char *>(v.data()),
                    v.size() * sizeof(T));
    }

    void
    csr(const sparse::CsrMatrix &m)
    {
        pod(m.rows());
        pod(m.cols());
        vec(m.rowPtr());
        vec(m.colIdx());
        vec(m.values());
    }

    const std::string &bytes() const { return buf_; }

  private:
    std::string buf_;
};

/**
 * Bounds-checked decoder over a sub-range of a borrowed buffer (no
 * payload copy). Every accessor returns false on underrun so a
 * truncated file degrades to a failed load, never an out-of-bounds
 * read.
 */
class Reader
{
  public:
    Reader(const std::string &bytes, size_t begin, size_t end)
        : buf_(bytes), pos_(begin), end_(end)
    {
    }

    template <typename T>
    bool
    pod(T &out)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (pos_ + sizeof(T) > end_)
            return false;
        std::memcpy(&out, buf_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return true;
    }

    bool
    str(std::string &out)
    {
        uint32_t len = 0;
        if (!pod(len) || pos_ + len > end_)
            return false;
        out.assign(buf_.data() + pos_, len);
        pos_ += len;
        return true;
    }

    template <typename T>
    bool
    vec(std::vector<T> &out)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        uint64_t n = 0;
        if (!pod(n))
            return false;
        // Reject sizes the remaining bytes cannot possibly hold before
        // allocating (a corrupt length must not trigger a bad_alloc).
        if (n > (end_ - pos_) / sizeof(T))
            return false;
        out.resize(n);
        std::memcpy(out.data(), buf_.data() + pos_, n * sizeof(T));
        pos_ += n * sizeof(T);
        return true;
    }

    bool
    csr(sparse::CsrMatrix &out)
    {
        uint32_t rows = 0, cols = 0;
        std::vector<uint64_t> rowPtr;
        std::vector<NodeId> colIdx;
        std::vector<double> values;
        if (!pod(rows) || !pod(cols) || !vec(rowPtr) || !vec(colIdx) ||
            !vec(values))
            return false;
        // fromRaw validates structure and panics on inconsistency; the
        // caller treats any throw as a failed load.
        out = sparse::CsrMatrix::fromRaw(rows, cols, std::move(rowPtr),
                                         std::move(colIdx),
                                         std::move(values));
        return true;
    }

    bool done() const { return pos_ == end_; }

  private:
    const std::string &buf_;
    size_t pos_ = 0;
    size_t end_ = 0;
};

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
    Writer w;
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
    // File-backed datasets: the payload checksum of the .growcsr the
    // spec was decoded from (0 for synthesized specs). Re-converting
    // the file invalidates artefacts just like a registry edit would.
    w.pod(spec.sourceChecksum);
    return checksum(w.bytes().data(), w.bytes().size());
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
    Writer w;
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
    w.csr(a.adjacency);
    if (a.hasPartitioning) {
        w.csr(a.adjacencyPartitioned);
        w.vec(a.relabel.newToOld);
        w.vec(a.relabel.clustering.clusterStart);
        w.pod(static_cast<uint64_t>(a.hdnLists.size()));
        for (const auto &list : a.hdnLists)
            w.vec(list);
    }

    try {
        fs::path target(path);
        if (target.has_parent_path())
            fs::create_directories(target.parent_path());
        // Atomic publish: write a sibling temp file, then rename. A
        // crashed or concurrent writer can never leave a torn file
        // under the final name.
        fs::path tmp = target;
        tmp += ".tmp";
        {
            std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
            if (!out)
                return false;
            out.write(kMagic, sizeof(kMagic));
            uint32_t version = kArtifactFormatVersion;
            out.write(reinterpret_cast<const char *>(&version),
                      sizeof(version));
            out.write(w.bytes().data(),
                      static_cast<std::streamsize>(w.bytes().size()));
            uint64_t sum = checksum(w.bytes().data(), w.bytes().size());
            out.write(reinterpret_cast<const char *>(&sum), sizeof(sum));
            if (!out)
                return false;
        }
        fs::rename(tmp, target);
        return true;
    } catch (const std::exception &e) {
        logWarn("artifact cache store failed for " + path + ": " +
                e.what());
        return false;
    }
}

std::shared_ptr<const gcn::GraphArtifacts>
loadArtifacts(const std::string &path, const ArtifactKey &expected)
{
    // One sized read into one buffer; the checksum and the Reader both
    // work on it in place (artefact files can be large, and tripling
    // the footprint on the warm-start path would defeat the cache).
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
    const size_t headerSize = sizeof(kMagic) + sizeof(uint32_t);
    if (raw.size() < headerSize + sizeof(uint64_t))
        return nullptr;
    if (std::memcmp(raw.data(), kMagic, sizeof(kMagic)) != 0)
        return nullptr;
    uint32_t version = 0;
    std::memcpy(&version, raw.data() + sizeof(kMagic), sizeof(version));
    if (version != kArtifactFormatVersion)
        return nullptr; // stale format: rebuild, don't guess
    uint64_t storedSum = 0;
    std::memcpy(&storedSum, raw.data() + raw.size() - sizeof(storedSum),
                sizeof(storedSum));
    const size_t payloadEnd = raw.size() - sizeof(storedSum);
    if (checksum(raw.data() + headerSize, payloadEnd - headerSize) !=
        storedSum)
        return nullptr;

    try {
        Reader r(raw, headerSize, payloadEnd);
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
        if (!r.csr(a->adjacency))
            return nullptr;
        if (a->hasPartitioning) {
            uint64_t numLists = 0;
            if (!r.csr(a->adjacencyPartitioned) ||
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

uint64_t
artifactFootprintBytes(const gcn::GraphArtifacts &a)
{
    auto vecBytes = [](size_t n, size_t elem) -> uint64_t {
        return sizeof(uint64_t) + static_cast<uint64_t>(n) * elem;
    };
    auto csrBytes = [&](const sparse::CsrMatrix &m) -> uint64_t {
        return 2 * sizeof(uint32_t) +
               vecBytes(m.rowPtr().size(), sizeof(uint64_t)) +
               vecBytes(m.colIdx().size(), sizeof(NodeId)) +
               vecBytes(m.values().size(), sizeof(double));
    };
    uint64_t bytes = 0;
    // A mapped graph contributes nothing: its pages are reclaimable
    // page cache, not process heap. That is the whole point of the
    // out-of-core path -- a graph over the byte budget still runs.
    if (!a.fileBacked()) {
        bytes += vecBytes(a.graph.offsets().size(), sizeof(uint64_t));
        bytes += vecBytes(a.graph.adjacency().size(), sizeof(NodeId));
    }
    bytes += csrBytes(a.adjacency);
    if (a.hasPartitioning) {
        bytes += csrBytes(a.adjacencyPartitioned);
        bytes += vecBytes(a.relabel.newToOld.size(), sizeof(NodeId));
        bytes += vecBytes(a.relabel.clustering.clusterStart.size(),
                          sizeof(uint32_t));
        bytes += sizeof(uint64_t);
        for (const auto &list : a.hdnLists)
            bytes += vecBytes(list.size(), sizeof(NodeId));
    }
    return bytes;
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
            lru_.splice(lru_.begin(), lru_, it->second.pos);
            return it->second.bundle;
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
    auto [it, inserted] = mem_.try_emplace(key);
    if (!inserted) {
        // Another thread built the same key first; adopt its bundle so
        // every consumer shares one instance.
        ++stats_.memoryHits;
        lru_.splice(lru_.begin(), lru_, it->second.pos);
        return it->second.bundle;
    }
    it->second.bundle = built;
    lru_.push_front(key);
    it->second.pos = lru_.begin();
    it->second.bytes = artifactFootprintBytes(*built);
    totalBytes_ += it->second.bytes;
    if (!fromDisk && built->buildProfile.valid)
        buildLog_.emplace_back(spec.name, built->buildProfile);
    enforceCapLocked();
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
    s.bytes = totalBytes_;
    s.byteCap = byteCap_;
    return s;
}

std::vector<std::pair<std::string, gcn::GraphArtifacts::BuildProfile>>
WorkloadCache::buildLog() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return buildLog_;
}

void
WorkloadCache::clearMemory()
{
    std::lock_guard<std::mutex> lock(mu_);
    mem_.clear();
    lru_.clear();
    totalBytes_ = 0;
}

void
WorkloadCache::setMemoryByteCap(uint64_t max_bytes)
{
    std::lock_guard<std::mutex> lock(mu_);
    byteCap_ = max_bytes;
    enforceCapLocked();
}

uint64_t
WorkloadCache::memoryByteCap() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return byteCap_;
}

uint64_t
WorkloadCache::memoryBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return totalBytes_;
}

void
WorkloadCache::setBuildThreads(uint32_t threads)
{
    std::lock_guard<std::mutex> lock(mu_);
    buildThreads_ = threads == 0 ? 1 : threads;
}

size_t
WorkloadCache::memoryEntries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return mem_.size();
}

void
WorkloadCache::enforceCapLocked()
{
    // Evict LRU-first, but always retain the most recently used entry
    // so one over-budget bundle still runs.
    while (byteCap_ != 0 && totalBytes_ > byteCap_ && mem_.size() > 1) {
        auto it = mem_.find(lru_.back());
        totalBytes_ -= it->second.bytes;
        mem_.erase(it);
        lru_.pop_back();
        ++stats_.evictionsByBytes;
    }
}

} // namespace grow::driver
