#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "graph/datasets.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace grow::serve {

namespace {

/** Depth-series bound: past it, every second sample is dropped and
 *  the recording stride doubles (deterministic decimation). */
constexpr size_t kMaxDepthSamples = 512;

} // namespace

double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    GROW_ASSERT(q >= 0.0 && q <= 1.0, "percentile q out of [0,1]");
    // Nearest-rank: the smallest value with at least q of the mass at
    // or below it. Deterministic, no interpolation.
    const size_t n = sorted.size();
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;
    return sorted[std::min(rank, n) - 1];
}

void
ServeMetrics::recordAdmission(Admission a, uint32_t depth_after, Micros now)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++counters_.submitted;
    if (a == Admission::Admitted)
        ++counters_.admitted;
    sampleDepthLocked(now, depth_after);
}

void
ServeMetrics::sampleQueueDepth(Micros now, uint32_t depth)
{
    std::lock_guard<std::mutex> lk(mu_);
    sampleDepthLocked(now, depth);
}

void
ServeMetrics::sampleDepthLocked(Micros now, uint32_t depth)
{
    if (depthEvents_++ % depthStride_ == 0) {
        depthSeries_.push_back({now, depth});
        if (depthSeries_.size() > kMaxDepthSamples) {
            // Keep every second sample; future events thin the same
            // way via the doubled stride.
            std::vector<DepthSample> kept;
            kept.reserve(depthSeries_.size() / 2 + 1);
            for (size_t i = 0; i < depthSeries_.size(); i += 2)
                kept.push_back(depthSeries_[i]);
            depthSeries_ = std::move(kept);
            depthStride_ *= 2;
        }
    }
}

void
ServeMetrics::recordOutcome(const RequestRecord &record)
{
    std::lock_guard<std::mutex> lk(mu_);
    TenantStats &t = tenants_[record.request.tenant];
    switch (record.status) {
    case RequestStatus::Completed:
        ++counters_.completed;
        ++t.completed;
        t.latenciesMs.push_back(record.totalMs());
        t.execMsSum += record.execMs;
        t.cycles += record.digest.cycles;
        t.dramBytes += record.digest.dramBytes;
        break;
    case RequestStatus::RejectedQueueFull:
        ++counters_.rejectedQueueFull;
        ++t.rejected;
        break;
    case RequestStatus::RejectedBytes:
        ++counters_.rejectedBytes;
        ++t.rejected;
        break;
    case RequestStatus::Expired:
        ++counters_.expired;
        ++t.expired;
        break;
    case RequestStatus::Error:
        ++counters_.errors;
        ++t.errors;
        break;
    }
}

uint64_t
ServeMetrics::outcomes() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return counters_.completed + counters_.rejectedQueueFull +
           counters_.rejectedBytes + counters_.expired + counters_.errors;
}

void
ServeMetrics::fillReport(report::Report &rep,
                         const driver::WorkloadCache::Snapshot *cache) const
{
    Counters counters;
    std::map<std::string, TenantStats> tenants;
    std::vector<DepthSample> depth;
    {
        std::lock_guard<std::mutex> lk(mu_);
        counters = counters_;
        tenants = tenants_;
        depth = depthSeries_;
    }

    {
        auto t = rep.table("serve_admission", "admission control");
        t.col("submitted", "submitted", "count")
            .col("admitted", "admitted", "count")
            .col("completed", "completed", "count")
            .col("rejected_queue_full", "rej. queue", "count")
            .col("rejected_byte_budget", "rej. bytes", "count")
            .col("expired", "expired", "count")
            .col("errors", "errors", "count");
        t.row({})
            .add(report::count(counters.submitted))
            .add(report::count(counters.admitted))
            .add(report::count(counters.completed))
            .add(report::count(counters.rejectedQueueFull))
            .add(report::count(counters.rejectedBytes))
            .add(report::count(counters.expired))
            .add(report::count(counters.errors));
    }

    if (!tenants.empty()) {
        auto t = rep.table("serve_tenants",
                           "per-tenant serving latency");
        t.col("tenant", "tenant")
            .col("requests", "requests", "count")
            .col("completed", "completed", "count")
            .col("rejected", "rejected", "count")
            .col("expired", "expired", "count")
            .col("mean_ms", "mean", "ms")
            .col("p50_ms", "p50", "ms")
            .col("p95_ms", "p95", "ms")
            .col("p99_ms", "p99", "ms")
            .col("served_cycles", "served cycles", "cycles")
            .col("served_dram_bytes", "served DRAM", "bytes");
        for (const auto &[name, stats] : tenants) {
            std::vector<double> sorted = stats.latenciesMs;
            std::sort(sorted.begin(), sorted.end());
            double mean = 0.0;
            for (double v : sorted)
                mean += v;
            if (!sorted.empty())
                mean /= static_cast<double>(sorted.size());
            const uint64_t requests = stats.completed + stats.rejected +
                                      stats.expired + stats.errors;
            auto ms = [](double v) {
                return report::real(v, 3, "ms");
            };
            t.row({.extra = {{"tenant", name}}})
                .add(report::textCell(name))
                .add(report::count(requests))
                .add(report::count(stats.completed))
                .add(report::count(stats.rejected))
                .add(report::count(stats.expired))
                .add(ms(mean))
                .add(ms(percentile(sorted, 0.50)))
                .add(ms(percentile(sorted, 0.95)))
                .add(ms(percentile(sorted, 0.99)))
                .add(report::count(stats.cycles, "cycles"))
                .add(report::bytesValue(stats.dramBytes));
        }
    }

    if (!depth.empty()) {
        auto t = rep.table("serve_queue_depth",
                           "queue depth over time");
        t.col("time_ms", "time", "ms").col("depth", "depth", "count");
        for (size_t i = 0; i < depth.size(); ++i)
            t.row({.extra = {{"sample", std::to_string(i)}}})
                .add(report::real(millis(depth[i].timeUs), 3, "ms"))
                .add(report::count(depth[i].depth));
    }

    if (cache) {
        auto t = rep.table("serve_cache", "workload cache");
        t.col("builds", "builds", "count")
            .col("memory_hits", "memory hits", "count")
            .col("disk_loads", "disk loads", "count")
            .col("evictions_bytes", "evictions (bytes cap)", "count")
            .col("entries", "entries", "count")
            .col("footprint", "footprint", "bytes");
        t.row({})
            .add(report::count(cache->counters.builds))
            .add(report::count(cache->counters.memoryHits))
            .add(report::count(cache->counters.diskLoads))
            .add(report::count(cache->counters.evictionsByBytes))
            .add(report::count(cache->entries))
            .add(report::bytesValue(cache->bytes));
    }
}

double
appendServedDatasetTable(report::Report &rep,
                         const std::vector<RequestRecord> &records,
                         const std::string &tableId, const std::string &title)
{
    struct Agg
    {
        graph::ScaleTier tier = graph::ScaleTier::Mini;
        std::string engine;
        uint64_t requests = 0;
        double cycles = 0.0;
        double traffic = 0.0;
        double hits = 0.0;
        double lookups = 0.0;
    };
    std::vector<std::pair<std::string, Agg>> byDataset;
    double aggregateMs = 0.0;
    for (const RequestRecord &r : records) {
        if (r.status != RequestStatus::Completed)
            continue;
        Agg *agg = nullptr;
        for (auto &[name, a] : byDataset)
            if (name == r.request.dataset)
                agg = &a;
        if (!agg) {
            byDataset.push_back({r.request.dataset, {}});
            agg = &byDataset.back().second;
            agg->tier = r.request.tier;
            agg->engine = r.request.engine;
        }
        ++agg->requests;
        agg->cycles += static_cast<double>(r.digest.cycles);
        agg->traffic += static_cast<double>(r.digest.dramBytes);
        agg->hits += static_cast<double>(r.digest.cacheHits);
        agg->lookups += static_cast<double>(r.digest.cacheHits +
                                            r.digest.cacheMisses);
        aggregateMs += r.digest.simulatedMs();
    }

    auto t = rep.table(tableId, title);
    t.col("dataset", "graph")
        .col("nodes", "nodes", "count")
        .col("mean_cycles", "mean cycles", "cycles")
        .col("mean_dram_traffic", "mean DRAM traffic", "bytes")
        .col("hdn_hit_rate", "HDN hit rate")
        .col("mean_latency_ms", "mean latency @1GHz", "ms");
    for (const auto &[name, agg] : byDataset) {
        const double n = static_cast<double>(agg.requests);
        const double meanCycles = agg.cycles / n;
        t.row({.dataset = name, .engine = agg.engine})
            .add(report::textCell(name))
            .add(report::count(graph::scaledNodes(
                graph::datasetByName(name), agg.tier)))
            .add(report::count(static_cast<uint64_t>(meanCycles), "cycles"))
            .add(report::bytesValue(
                static_cast<uint64_t>(agg.traffic / n)))
            .add(agg.lookups > 0
                     ? report::fraction(agg.hits / agg.lookups)
                     : report::textCell("-"))
            .add(report::custom(meanCycles / 1e6,
                                fmtDouble(meanCycles / 1e6, 2) + " ms",
                                "ms"));
    }
    return aggregateMs;
}

} // namespace grow::serve
