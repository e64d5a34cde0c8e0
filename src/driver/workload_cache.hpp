/**
 * @file
 * Shared workload construction cache.
 *
 * Graph synthesis + partitioning dominates sweep start-up, yet every
 * model/depth/config of a sweep needs the *same* graph-level artefacts
 * (gcn::GraphArtifacts). The cache makes that sharing explicit, at two
 * levels:
 *
 *  - In memory: artefact bundles are memoised per (dataset, tier,
 *    partition plan) key, so a model x depth sweep over d datasets
 *    runs synthesis + partitioning exactly d times. Model operands
 *    (SAGEConv's sampled adjacency, GIN's A + (1+eps)I) are layer data,
 *    built per workload, and never cached.
 *  - On disk (optional): bundles are persisted in the util/binfile.hpp
 *    container (format-version header, payload checksum, atomic
 *    publish), so repeated bench/CI invocations skip synthesis
 *    entirely. A corrupted, truncated or stale-version file is never
 *    trusted: load returns null and the cache transparently falls
 *    back to a rebuild.
 *
 * Thread-safety: all public member functions are safe to call
 * concurrently; the returned bundles are immutable.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "gcn/workload.hpp"

namespace grow::driver {

/** Cache key: one graph-artefact bundle per distinct tuple. */
struct ArtifactKey
{
    std::string dataset;
    graph::ScaleTier tier = graph::ScaleTier::Mini;
    gcn::PartitionPlan plan;
    /**
     * Payload checksum of the backing .growcsr file for file-backed
     * datasets (0 for synthesized ones). Part of the key so replacing
     * the file behind a dataset name can never serve stale artefacts.
     */
    uint64_t fileChecksum = 0;

    /** Key for @p spec at @p tier under @p plan. */
    static ArtifactKey of(const graph::DatasetSpec &spec,
                          graph::ScaleTier tier,
                          const gcn::PartitionPlan &plan);

    /** Filesystem-safe identity, used as the on-disk file stem. */
    std::string fingerprint() const;

    bool operator<(const ArtifactKey &o) const;
};

/**
 * On-disk artefact format version. Bump whenever the serialized layout
 * *or the semantics of any serialized artefact* change (e.g. a
 * partitioning fix): stale files must miss, not poison results.
 *
 * v4: file-backed bundles (dataset=file:<path>) serialize a flag
 *     instead of the graph arrays -- the graph stays in the .growcsr
 *     file and is re-mapped at load time; the spec fingerprint covers
 *     the source-file checksum.
 * v5: the sampled adjacency left the bundle for the layer data, and
 *     the sampling fanout left the key and the payload header.
 */
inline constexpr uint32_t kArtifactFormatVersion = 5;

/**
 * Serialize @p artifacts to @p path (binary; atomic via temp+rename).
 * Returns false (after logging) when the file cannot be written.
 */
bool saveArtifacts(const std::string &path,
                   const gcn::GraphArtifacts &artifacts);

/**
 * Deserialize an artefact bundle from @p path. Returns null -- never
 * throws, never returns partial data -- when the file is missing,
 * truncated, corrupted (checksum mismatch), from another format
 * version, or describes a different key than @p expected.
 */
std::shared_ptr<const gcn::GraphArtifacts>
loadArtifacts(const std::string &path, const ArtifactKey &expected);

/**
 * Memoising construction front-end for workloads and their shared
 * graph artefacts.
 */
class WorkloadCache
{
  public:
    /** Counters exposed for tests and bench banners. */
    struct Stats
    {
        uint64_t builds = 0;       ///< artefact bundles built from scratch
        uint64_t memoryHits = 0;   ///< served from the in-memory map
        uint64_t diskLoads = 0;    ///< served from a valid disk file
        uint64_t diskStores = 0;   ///< files written after a build
        uint64_t diskFailures = 0; ///< unreadable/corrupt files skipped
    };

    /** In-memory-only cache. */
    WorkloadCache() = default;

    /**
     * Cache backed by @p disk_dir (created on first store). Pass an
     * empty string for in-memory-only behaviour.
     */
    explicit WorkloadCache(std::string disk_dir);

    /**
     * The artefact bundle of (spec, tier, plan): served from memory,
     * then disk, then built (and stored to both).
     */
    std::shared_ptr<const gcn::GraphArtifacts>
    artifacts(const graph::DatasetSpec &spec, graph::ScaleTier tier,
              const gcn::PartitionPlan &plan = {});

    /**
     * Build the workload of @p spec under @p config on top of cached
     * artefacts. The layer data (features, model operands, weights) is
     * built fresh; the graph-level bundle is shared.
     */
    gcn::GcnWorkload workload(const graph::DatasetSpec &spec,
                              const gcn::WorkloadConfig &config);

    Stats stats() const;

    /**
     * One coherent picture of the cache: counters plus the entry
     * count, read under a single lock acquisition (between separate
     * calls a concurrent lookup can insert, so stitched numbers would
     * describe no state the cache ever held).
     */
    struct Snapshot
    {
        Stats counters;
        uint64_t entries = 0; ///< bundles currently in memory

        /** Artefact lookups served without a from-scratch build. */
        uint64_t reuses() const
        {
            return counters.memoryHits + counters.diskLoads;
        }
    };

    Snapshot snapshot() const;

    /**
     * Worker threads handed to buildGraphArtifacts() on a cache miss
     * (>= 1). Never part of any cache key: builds are bit-identical
     * across thread counts.
     */
    void setBuildThreads(uint32_t threads);

    /**
     * Per-dataset build profile of every bundle this process built
     * from scratch (disk loads and memory hits record nothing), in
     * build order: the profile=1 build_phase metric family.
     */
    std::vector<std::pair<std::string, gcn::GraphArtifacts::BuildProfile>>
    buildLog() const;

  private:
    std::string pathFor(const ArtifactKey &key) const;

    mutable std::mutex mu_;
    std::string dir_;
    std::map<ArtifactKey, std::shared_ptr<const gcn::GraphArtifacts>> mem_;
    uint32_t buildThreads_ = 1;
    Stats stats_;
    std::vector<std::pair<std::string, gcn::GraphArtifacts::BuildProfile>> buildLog_;
};

} // namespace grow::driver
