/**
 * @file
 * Structured serving metrics: per-tenant latency distributions,
 * admission counters, queue-depth time series, cache snapshot -- all
 * emitted through grow::report so the serving trajectory is gated by
 * report_check/report_diff like every other metric family.
 *
 * ServeMetrics sits behind the deterministic virtual-clock loop (one
 * thread, virtual timestamps); every mutator is mutex-protected, so a
 * caller may record from several threads. Report output is
 * deterministic whenever the event sequence is: tenants emit in name
 * order, percentiles are nearest-rank on the full latency set, and
 * the queue-depth series decimates by stride doubling (a pure function
 * of the event sequence, never of wall-clock sampling).
 */
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "driver/workload_cache.hpp"
#include "report/report.hpp"
#include "serve/request.hpp"

namespace grow::serve {

/** Nearest-rank percentile of @p sorted (ascending); 0 when empty. */
double percentile(const std::vector<double> &sorted, double q);

class ServeMetrics
{
  public:
    /** Admission verdict for one push (samples the depth series). */
    void recordAdmission(Admission a, uint32_t depth_after, Micros now);

    /** Depth sample outside admission (dispatch, periodic flush). */
    void sampleQueueDepth(Micros now, uint32_t depth);

    /** Final disposition of one request (completion, rejection,
     *  expiry, execution error). */
    void recordOutcome(const RequestRecord &record);

    /** Requests whose outcome has been recorded. */
    uint64_t outcomes() const;

    /**
     * Append the serving tables to @p rep: serve_admission (counter
     * row), serve_tenants (per-tenant counts, latency percentiles and
     * served simulated work), serve_queue_depth (decimated series),
     * and -- when @p cache is non-null -- serve_cache from one
     * coherent WorkloadCache snapshot.
     */
    void fillReport(report::Report &rep,
                    const driver::WorkloadCache::Snapshot *cache) const;

  private:
    struct TenantStats
    {
        uint64_t completed = 0;
        uint64_t rejected = 0; ///< all rejection flavours
        uint64_t expired = 0;
        uint64_t errors = 0;
        /** totalMs of every completed request, arrival order. */
        std::vector<double> latenciesMs;
        double execMsSum = 0.0;
        uint64_t cycles = 0;    ///< served simulated cycles (sum)
        uint64_t dramBytes = 0; ///< served simulated traffic (sum)
    };

    struct Counters
    {
        uint64_t submitted = 0;
        uint64_t admitted = 0;
        uint64_t completed = 0;
        uint64_t rejectedQueueFull = 0;
        uint64_t rejectedBytes = 0;
        uint64_t expired = 0;
        uint64_t errors = 0;
    };

    struct DepthSample
    {
        Micros timeUs = 0;
        uint32_t depth = 0;
    };

    void sampleDepthLocked(Micros now, uint32_t depth);

    mutable std::mutex mu_;
    Counters counters_;
    std::map<std::string, TenantStats> tenants_;
    std::vector<DepthSample> depthSeries_;
    uint64_t depthEvents_ = 0;
    uint64_t depthStride_ = 1;
};

/**
 * Append the per-dataset serving table (the batched_serving example's
 * historical shape: dataset, nodes, mean cycles, mean DRAM traffic,
 * HDN hit rate, mean latency @1GHz) aggregated over the Completed
 * records of @p records, one row per dataset in first-appearance
 * order. Returns the aggregate simulated engine time in ms (the
 * `aggregate_engine_ms` record's value).
 */
double appendServedDatasetTable(report::Report &rep,
                                const std::vector<RequestRecord> &records,
                                const std::string &tableId,
                                const std::string &title);

} // namespace grow::serve
