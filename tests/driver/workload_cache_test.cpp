/**
 * @file
 * WorkloadCache: graph artefacts must be built exactly once per
 * (dataset, tier, partition plan) and shared across depths; the
 * on-disk layer must round-trip bit-identically and *never* trust a
 * corrupted or stale file.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "driver/workload_cache.hpp"

namespace grow::driver {
namespace {

namespace fs = std::filesystem;

gcn::WorkloadConfig
unitConfig(uint32_t layers = 2)
{
    gcn::WorkloadConfig c;
    c.tier = graph::ScaleTier::Unit;
    c.numLayers = layers;
    return c;
}

/** A scratch directory unique to the current test. */
std::string
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("growcache_" + name);
    fs::remove_all(dir);
    return dir.string();
}

void
expectArtifactsIdentical(const gcn::GraphArtifacts &a,
                         const gcn::GraphArtifacts &b)
{
    ASSERT_NE(a.spec, nullptr);
    ASSERT_NE(b.spec, nullptr);
    EXPECT_EQ(a.spec->name, b.spec->name);
    EXPECT_EQ(a.tier, b.tier);
    EXPECT_EQ(a.maxClusterNodes, b.maxClusterNodes);
    EXPECT_EQ(a.graph.offsets(), b.graph.offsets());
    EXPECT_EQ(a.graph.adjacency(), b.graph.adjacency());
    EXPECT_EQ(a.adjacency.rowPtr(), b.adjacency.rowPtr());
    EXPECT_EQ(a.adjacency.colIdx(), b.adjacency.colIdx());
    EXPECT_EQ(a.adjacency.values(), b.adjacency.values());
    ASSERT_EQ(a.hasPartitioning, b.hasPartitioning);
    if (a.hasPartitioning) {
        EXPECT_EQ(a.relabel.newToOld, b.relabel.newToOld);
        EXPECT_EQ(a.relabel.clustering.clusterStart,
                  b.relabel.clustering.clusterStart);
        EXPECT_EQ(a.hdnLists, b.hdnLists);
        EXPECT_EQ(a.adjacencyPartitioned.rowPtr(),
                  b.adjacencyPartitioned.rowPtr());
        EXPECT_EQ(a.adjacencyPartitioned.colIdx(),
                  b.adjacencyPartitioned.colIdx());
        EXPECT_EQ(a.adjacencyPartitioned.values(),
                  b.adjacencyPartitioned.values());
    }
}

void
expectCsrIdentical(const sparse::CsrMatrix &a, const sparse::CsrMatrix &b)
{
    EXPECT_EQ(a.rowPtr(), b.rowPtr());
    EXPECT_EQ(a.colIdx(), b.colIdx());
    EXPECT_EQ(a.values(), b.values());
}

TEST(WorkloadCache, DepthSweepBuildsArtifactsOncePerDataset)
{
    // The acceptance probe: depths 1-4 over two datasets must run
    // graph synthesis + partitioning exactly once per dataset.
    WorkloadCache cache;
    std::vector<gcn::GcnWorkload> workloads;
    for (const char *name : {"cora", "citeseer"})
        for (uint32_t depth = 1; depth <= 4; ++depth)
            workloads.push_back(cache.workload(
                graph::datasetByName(name), unitConfig(depth)));
    EXPECT_EQ(cache.stats().builds, 2u);
    EXPECT_EQ(cache.stats().memoryHits, 6u);
    EXPECT_EQ(cache.stats().diskLoads, 0u);
    // All depths of one dataset share one bundle instance.
    for (int i = 1; i < 4; ++i) {
        EXPECT_EQ(workloads[0].artifacts.get(), workloads[i].artifacts.get());
        EXPECT_EQ(workloads[4].artifacts.get(),
                  workloads[4 + i].artifacts.get());
    }
    EXPECT_NE(workloads[0].artifacts.get(), workloads[4].artifacts.get());
}

/** unitConfig() with feature values kept (functionalData). */
gcn::WorkloadConfig
functionalUnitConfig(uint32_t layers = 2)
{
    gcn::WorkloadConfig c = unitConfig(layers);
    c.functionalData = true;
    return c;
}

TEST(WorkloadCache, CachedWorkloadMatchesDirectBuild)
{
    WorkloadCache cache;
    const auto &spec = graph::datasetByName("cora");
    auto cached = cache.workload(spec, unitConfig(3));
    auto direct = gcn::buildWorkload(spec, unitConfig(3));
    expectArtifactsIdentical(*cached.artifacts, *direct.artifacts);
    ASSERT_EQ(cached.features.size(), direct.features.size());
    for (size_t i = 0; i < cached.features.size(); ++i)
        EXPECT_EQ(cached.features[i].colIdx(), direct.features[i].colIdx());
    // Feature values exist only under functionalData.
    auto cachedValued = cache.workload(spec, functionalUnitConfig(3));
    auto directValued = gcn::buildWorkload(spec, functionalUnitConfig(3));
    ASSERT_EQ(cachedValued.features.size(), directValued.features.size());
    for (size_t i = 0; i < cachedValued.features.size(); ++i) {
        ASSERT_TRUE(cachedValued.features[i].hasValues());
        EXPECT_EQ(cachedValued.features[i].values(),
                  directValued.features[i].values());
    }
}

TEST(WorkloadCache, DistinctPartitionPlansGetDistinctArtifacts)
{
    WorkloadCache cache;
    const auto &spec = graph::datasetByName("cora");
    auto a = cache.artifacts(spec, graph::ScaleTier::Unit, {});
    gcn::PartitionPlan smaller;
    smaller.targetClusterSize = 128;
    auto b = cache.artifacts(spec, graph::ScaleTier::Unit, smaller);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.stats().builds, 2u);
    EXPECT_EQ(b->maxClusterNodes, 128u);
}

TEST(WorkloadCache, DiskRoundTripIsBitIdentical)
{
    const std::string dir = scratchDir("roundtrip");
    const auto &spec = graph::datasetByName("citeseer");
    WorkloadCache cold(dir);
    auto built = cold.artifacts(spec, graph::ScaleTier::Unit, {});
    EXPECT_EQ(cold.stats().builds, 1u);
    EXPECT_EQ(cold.stats().diskStores, 1u);

    // A second cache over the same directory loads instead of building.
    WorkloadCache warm(dir);
    auto loaded = warm.artifacts(spec, graph::ScaleTier::Unit, {});
    EXPECT_EQ(warm.stats().builds, 0u);
    EXPECT_EQ(warm.stats().diskLoads, 1u);
    expectArtifactsIdentical(*built, *loaded);

    // And the workloads layered on top are bit-identical too.
    auto a = cold.workload(spec, unitConfig());
    auto b = warm.workload(spec, unitConfig());
    EXPECT_EQ(a.x(0).colIdx(), b.x(0).colIdx());
    auto av = cold.workload(spec, functionalUnitConfig());
    auto bv = warm.workload(spec, functionalUnitConfig());
    ASSERT_TRUE(av.x(0).hasValues());
    EXPECT_EQ(av.x(0).values(), bv.x(0).values());
    fs::remove_all(dir);
}

TEST(WorkloadCache, SaveLoadFunctionsRoundTrip)
{
    const std::string dir = scratchDir("saveload");
    const auto &spec = graph::datasetByName("cora");
    auto key = ArtifactKey::of(spec, graph::ScaleTier::Unit, {});
    auto built = gcn::buildGraphArtifacts(spec, graph::ScaleTier::Unit);
    const std::string path = dir + "/cora.growart";
    ASSERT_TRUE(saveArtifacts(path, *built));
    auto loaded = loadArtifacts(path, key);
    ASSERT_NE(loaded, nullptr);
    expectArtifactsIdentical(*built, *loaded);
    fs::remove_all(dir);
}

TEST(WorkloadCache, LoadRejectsWrongKey)
{
    const std::string dir = scratchDir("wrongkey");
    const auto &spec = graph::datasetByName("cora");
    auto built = gcn::buildGraphArtifacts(spec, graph::ScaleTier::Unit);
    const std::string path = dir + "/cora.growart";
    ASSERT_TRUE(saveArtifacts(path, *built));

    auto other = ArtifactKey::of(graph::datasetByName("citeseer"),
                                 graph::ScaleTier::Unit, {});
    EXPECT_EQ(loadArtifacts(path, other), nullptr);
    auto wrongTier = ArtifactKey::of(spec, graph::ScaleTier::Tiny, {});
    EXPECT_EQ(loadArtifacts(path, wrongTier), nullptr);
    fs::remove_all(dir);
}

TEST(WorkloadCache, CorruptedFileFallsBackToRebuild)
{
    const std::string dir = scratchDir("corrupt");
    const auto &spec = graph::datasetByName("cora");
    {
        WorkloadCache cache(dir);
        cache.artifacts(spec, graph::ScaleTier::Unit, {});
    }
    const auto key = ArtifactKey::of(spec, graph::ScaleTier::Unit, {});
    const std::string path =
        (fs::path(dir) / (key.fingerprint() + ".growart")).string();
    ASSERT_TRUE(fs::exists(path));

    // Flip a payload byte: the checksum must catch it.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(64);
        char c = 0;
        f.seekg(64);
        f.get(c);
        f.seekp(64);
        f.put(static_cast<char>(c ^ 0x5a));
    }
    EXPECT_EQ(loadArtifacts(path, key), nullptr);

    // The cache rebuilds (and counts the bad file) instead of crashing.
    WorkloadCache cache(dir);
    auto rebuilt = cache.artifacts(spec, graph::ScaleTier::Unit, {});
    ASSERT_NE(rebuilt, nullptr);
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().diskLoads, 0u);
    EXPECT_EQ(cache.stats().diskFailures, 1u);
    fs::remove_all(dir);
}

TEST(WorkloadCache, TruncatedAndGarbageFilesAreRejected)
{
    const std::string dir = scratchDir("truncate");
    const auto &spec = graph::datasetByName("cora");
    const auto key = ArtifactKey::of(spec, graph::ScaleTier::Unit, {});
    auto built = gcn::buildGraphArtifacts(spec, graph::ScaleTier::Unit);
    const std::string path = dir + "/t.growart";
    ASSERT_TRUE(saveArtifacts(path, *built));

    // Truncate to half: length checks / checksum must reject it.
    const auto full = fs::file_size(path);
    fs::resize_file(path, full / 2);
    EXPECT_EQ(loadArtifacts(path, key), nullptr);

    // Pure garbage without even the magic.
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << "this is not an artefact file";
    }
    EXPECT_EQ(loadArtifacts(path, key), nullptr);

    // Missing file.
    EXPECT_EQ(loadArtifacts(dir + "/absent.growart", key), nullptr);
    fs::remove_all(dir);
}

TEST(WorkloadCache, StaleFormatVersionIsRejected)
{
    const std::string dir = scratchDir("stale");
    const auto &spec = graph::datasetByName("cora");
    const auto key = ArtifactKey::of(spec, graph::ScaleTier::Unit, {});
    auto built = gcn::buildGraphArtifacts(spec, graph::ScaleTier::Unit);
    const std::string path = dir + "/v.growart";
    ASSERT_TRUE(saveArtifacts(path, *built));

    // Bump the version field (bytes 8..11, after the 8-byte magic).
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        uint32_t stale = kArtifactFormatVersion + 1;
        f.seekp(8);
        f.write(reinterpret_cast<const char *>(&stale), sizeof(stale));
    }
    EXPECT_EQ(loadArtifacts(path, key), nullptr);
    fs::remove_all(dir);
}

TEST(WorkloadCache, StaleDatasetSpecIsRejected)
{
    // The payload stores a fingerprint of the dataset's synthesis
    // parameters; a file written under an edited registry entry must
    // miss. Simulate the edit by patching the stored fingerprint and
    // re-sealing the checksum, so only the fingerprint comparison can
    // reject the file.
    const std::string dir = scratchDir("specstale");
    const auto &spec = graph::datasetByName("cora");
    const auto key = ArtifactKey::of(spec, graph::ScaleTier::Unit, {});
    auto built = gcn::buildGraphArtifacts(spec, graph::ScaleTier::Unit);
    const std::string path = dir + "/s.growart";
    ASSERT_TRUE(saveArtifacts(path, *built));

    std::string raw;
    {
        std::ifstream f(path, std::ios::binary);
        std::ostringstream oss;
        oss << f.rdbuf();
        raw = oss.str();
    }
    // Layout: 8B magic + 4B version | payload | 8B FNV-1a checksum.
    // The payload starts with the name (4B length + bytes) followed by
    // the 8-byte spec fingerprint.
    const size_t header = 12;
    const size_t fpOffset = header + 4 + spec.name.size();
    raw[fpOffset] ^= 0x5a;
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = header; i < raw.size() - 8; ++i) {
        h ^= static_cast<unsigned char>(raw[i]);
        h *= 0x100000001b3ULL;
    }
    std::memcpy(raw.data() + raw.size() - 8, &h, 8);
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << raw;
    }
    EXPECT_EQ(loadArtifacts(path, key), nullptr);
    fs::remove_all(dir);
}

TEST(WorkloadCache, SageWorkloadFromWarmCacheMatchesFreshBuild)
{
    // The SAGEConv fanout-k operand is layer data drawn from the graph
    // of the cached bundle: a sage-mean workload layered on a bundle
    // loaded from disk must match a fresh one-shot build bit for bit.
    const std::string dir = scratchDir("sage_warm");
    const auto &spec = graph::datasetByName("cora");
    gcn::WorkloadConfig sage = unitConfig();
    sage.model = gcn::ModelKind::SageMean;
    sage.sageFanout = 5;
    {
        WorkloadCache cold(dir);
        cold.workload(spec, sage);
    }
    WorkloadCache warm(dir);
    const auto cached = warm.workload(spec, sage);
    EXPECT_EQ(warm.stats().builds, 0u);
    EXPECT_EQ(warm.stats().diskLoads, 1u);

    const auto direct = gcn::buildWorkload(spec, sage);
    ASSERT_TRUE(cached.hasSampling());
    EXPECT_EQ(cached.sageFanout, 5u);
    expectArtifactsIdentical(*cached.artifacts, *direct.artifacts);
    expectCsrIdentical(cached.adjacencySampled(), direct.adjacencySampled());
    expectCsrIdentical(cached.adjacencySampledPartitioned(),
                       direct.adjacencySampledPartitioned());
    fs::remove_all(dir);
}

TEST(WorkloadCache, EveryModelSharesOneBundlePerPlan)
{
    // Model operands are layer data: GCN, both fanouts of sage-mean
    // and GIN all layer onto one bundle, stored as one file.
    const std::string dir = scratchDir("models_share");
    const auto &spec = graph::datasetByName("cora");
    WorkloadCache cache(dir);
    std::vector<gcn::GcnWorkload> workloads;
    for (gcn::ModelKind model : gcn::allModelKinds()) {
        for (uint32_t fanout : {3u, 10u}) {
            gcn::WorkloadConfig c = unitConfig();
            c.model = model;
            c.sageFanout = fanout;
            workloads.push_back(cache.workload(spec, c));
            EXPECT_EQ(workloads.back().hasSampling(),
                      gcn::modelUsesSampling(model));
        }
    }
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().diskStores, 1u);
    EXPECT_EQ(cache.snapshot().entries, 1u);
    for (const auto &w : workloads)
        EXPECT_EQ(w.artifacts.get(), workloads.front().artifacts.get());
    size_t files = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        files += entry.path().extension() == ".growart" ? 1 : 0;
    EXPECT_EQ(files, 1u);
    fs::remove_all(dir);
}

TEST(WorkloadCache, FingerprintDistinguishesKeys)
{
    const auto &spec = graph::datasetByName("cora");
    auto base = ArtifactKey::of(spec, graph::ScaleTier::Unit, {});
    auto tiny = ArtifactKey::of(spec, graph::ScaleTier::Tiny, {});
    gcn::PartitionPlan plan;
    plan.targetClusterSize = 99;
    auto sized = ArtifactKey::of(spec, graph::ScaleTier::Unit, plan);
    EXPECT_NE(base.fingerprint(), tiny.fingerprint());
    EXPECT_NE(base.fingerprint(), sized.fingerprint());
    EXPECT_FALSE(base < base);
    EXPECT_TRUE(base < tiny || tiny < base);
}

/** Write spec's unit-tier graph as a .growcsr and register it. */
const graph::DatasetSpec &
registerUnitFile(const std::string &dir, const std::string &source,
                 const std::string &name)
{
    graph::DatasetSpec tmpl = graph::datasetByName(source);
    tmpl.name = name;
    // Synthesize from the *registered* spec (buildDataset resolves the
    // name through the registry); the renamed spec only labels the
    // file. The graph is identical -- synthesis never reads the name.
    auto inst = graph::buildDataset(graph::datasetByName(source),
                                    graph::ScaleTier::Unit);
    const std::string path = dir + "/" + name + ".growcsr";
    fs::create_directories(dir);
    if (!graph::writeCsrFile(path, tmpl, graph::ScaleTier::Unit,
                             inst.graph.view()))
        throw std::runtime_error("writeCsrFile failed");
    return graph::registerFileDataset(path);
}

TEST(WorkloadCache, FileBackedBundleRoundTripsWithoutGraphPayload)
{
    const std::string dir = scratchDir("filebacked");
    const auto &spec =
        registerUnitFile(dir, "cora", "cachetest_cora_file");
    ASSERT_TRUE(spec.isFileBacked());

    WorkloadCache cold(dir + "/cache");
    auto built =
        cold.artifacts(spec, graph::ScaleTier::Unit, {});
    ASSERT_TRUE(built->fileBacked());
    EXPECT_EQ(built->graph.numNodes(), 0u); // graph stays on disk

    // The key carries the file checksum.
    const auto key = ArtifactKey::of(spec, graph::ScaleTier::Unit, {});
    EXPECT_EQ(key.fileChecksum, spec.sourceChecksum);
    EXPECT_NE(key.fingerprint().find("-f"), std::string::npos);

    // The artefact file of a file-backed bundle omits the graph
    // arrays: it must be smaller than the file of the equivalent
    // heap bundle (same graph, same plan) by exactly that payload.
    const auto artBytes = fs::file_size(
        fs::path(dir + "/cache") / (key.fingerprint() + ".growart"));
    auto heapBuilt = gcn::buildGraphArtifacts(
        graph::datasetByName("cora"), graph::ScaleTier::Unit);
    const std::string heapPath = dir + "/heap.growart";
    ASSERT_TRUE(saveArtifacts(heapPath, *heapBuilt));
    const auto graphArrayBytes =
        (heapBuilt->graph.offsets().size() * sizeof(uint64_t)) +
        (heapBuilt->graph.adjacency().size() * sizeof(NodeId));
    EXPECT_LE(artBytes + graphArrayBytes, fs::file_size(heapPath));

    // A warm cache loads the bundle and re-attaches the mapped graph.
    WorkloadCache warm(dir + "/cache");
    auto loaded = warm.artifacts(spec, graph::ScaleTier::Unit, {});
    EXPECT_EQ(warm.stats().builds, 0u);
    EXPECT_EQ(warm.stats().diskLoads, 1u);
    ASSERT_TRUE(loaded->fileBacked());
    EXPECT_EQ(loaded->graphView().numNodes(),
              built->graphView().numNodes());
    EXPECT_EQ(loaded->adjacency.rowPtr(), built->adjacency.rowPtr());
    EXPECT_EQ(loaded->adjacency.values(), built->adjacency.values());
    EXPECT_EQ(loaded->relabel.newToOld, built->relabel.newToOld);
    fs::remove_all(dir);
}

TEST(WorkloadCache, FileBackedBuildMatchesSynthesizedBuild)
{
    // A Table I dataset exported to .growcsr and rebuilt through the
    // file path must produce the exact artefacts of the in-memory
    // build: same adjacency, same partitioning, same HDN lists.
    const std::string dir = scratchDir("filematch");
    const auto &spec =
        registerUnitFile(dir, "citeseer", "cachetest_cite_file");
    auto fromFile = gcn::buildGraphArtifacts(
        spec, graph::ScaleTier::Unit, {}, 4);
    auto synthesized = gcn::buildGraphArtifacts(
        graph::datasetByName("citeseer"), graph::ScaleTier::Unit, {}, 1);
    EXPECT_EQ(fromFile->adjacency.rowPtr(),
              synthesized->adjacency.rowPtr());
    EXPECT_EQ(fromFile->adjacency.colIdx(),
              synthesized->adjacency.colIdx());
    EXPECT_EQ(fromFile->adjacency.values(),
              synthesized->adjacency.values());
    EXPECT_EQ(fromFile->relabel.newToOld,
              synthesized->relabel.newToOld);
    EXPECT_EQ(fromFile->hdnLists, synthesized->hdnLists);
    EXPECT_EQ(fromFile->adjacencyPartitioned.colIdx(),
              synthesized->adjacencyPartitioned.colIdx());
    fs::remove_all(dir);
}

TEST(WorkloadCache, SnapshotIsCoherentAndCountsReuses)
{
    WorkloadCache cache;
    const auto &cora = graph::datasetByName("cora");
    const auto &citeseer = graph::datasetByName("citeseer");
    cache.workload(cora, unitConfig());
    cache.workload(cora, unitConfig(3)); // same artefacts, new depth
    cache.workload(citeseer, unitConfig());

    const WorkloadCache::Snapshot snap = cache.snapshot();
    EXPECT_EQ(snap.counters.builds, 2u);
    EXPECT_EQ(snap.counters.memoryHits, 1u);
    EXPECT_EQ(snap.reuses(), 1u);
    EXPECT_EQ(snap.entries, 2u);
}

TEST(WorkloadCache, SnapshotSafeUnderConcurrentLookups)
{
    // Hammer the cache from several threads while snapshotting from
    // another: every snapshot must be internally consistent (tsan/
    // helgrind would flag races; the arithmetic below flags torn
    // counter sets even without them).
    WorkloadCache cache;
    const auto &cora = graph::datasetByName("cora");
    const auto &citeseer = graph::datasetByName("citeseer");
    std::atomic<bool> done{false};
    std::atomic<uint64_t> lookups{0};

    std::vector<std::thread> workers;
    for (int w = 0; w < 3; ++w)
        workers.emplace_back([&, w] {
            for (int i = 0; i < 20; ++i) {
                cache.workload(w % 2 ? cora : citeseer,
                               unitConfig(2 + (i % 3)));
                lookups.fetch_add(1);
            }
        });
    std::thread snapshotter([&] {
        while (!done.load()) {
            const WorkloadCache::Snapshot snap = cache.snapshot();
            // Builds + hits + disk loads can never exceed observed
            // lookups (torn reads would break this invariant).
            EXPECT_LE(snap.counters.builds + snap.reuses(),
                      lookups.load() + 3); // in-flight lookups slack
            EXPECT_EQ(snap.entries, snap.counters.builds);
            EXPECT_LE(snap.entries, 2u);
        }
    });
    for (auto &t : workers)
        t.join();
    done.store(true);
    snapshotter.join();

    const WorkloadCache::Snapshot final = cache.snapshot();
    EXPECT_EQ(final.counters.builds, 2u);
    EXPECT_EQ(final.counters.builds + final.counters.memoryHits, 60u);
    EXPECT_EQ(final.entries, 2u);
}

TEST(WorkloadCache, FileBackedBuildRejectsTierMismatch)
{
    const std::string dir = scratchDir("filetier");
    const auto &spec =
        registerUnitFile(dir, "cora", "cachetest_tier_file");
    // The file records unit tier; any other scale= is a config error.
    EXPECT_THROW(gcn::buildGraphArtifacts(spec, graph::ScaleTier::Mini),
                 std::runtime_error);
    fs::remove_all(dir);
}

} // namespace
} // namespace grow::driver
