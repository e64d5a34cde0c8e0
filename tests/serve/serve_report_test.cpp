/**
 * @file
 * Serving report shapes: the ServeMetrics tables (admission counters,
 * per-tenant percentiles, queue-depth series, cache snapshot), the
 * nearest-rank percentile helper and the batched_serving example's
 * per-dataset table + aggregate record.
 */
#include <gtest/gtest.h>

#include <set>

#include "driver/workload_cache.hpp"
#include "report/report.hpp"
#include "serve/metrics.hpp"

namespace grow::serve {
namespace {

RequestRecord
completedRecord(uint64_t id, const std::string &tenant, Micros totalUs,
                uint64_t cycles)
{
    RequestRecord rec;
    rec.request.id = id;
    rec.request.tenant = tenant;
    rec.request.dataset = "cora";
    rec.request.tier = graph::ScaleTier::Unit;
    rec.request.arrivalUs = 0;
    rec.dispatchUs = totalUs / 2;
    rec.completionUs = totalUs;
    rec.status = RequestStatus::Completed;
    rec.digest.cycles = cycles;
    rec.digest.dramBytes = cycles * 4;
    rec.digest.cacheHits = 3;
    rec.digest.cacheMisses = 1;
    return rec;
}

/** Records of @p rep flattened, keyed "table/metric". */
std::multiset<std::string>
recordKeys(const report::Report &rep)
{
    std::multiset<std::string> keys;
    for (const report::MetricRecord &r : rep.records())
        keys.insert(r.table + "/" + r.metric);
    return keys;
}

TEST(ServeMetricsReport, TablesAndPercentiles)
{
    ServeMetrics metrics;
    metrics.recordAdmission(Admission::Admitted, 1, 10);
    metrics.recordAdmission(Admission::QueueFull, 1, 20);
    for (int i = 1; i <= 100; ++i)
        metrics.recordOutcome(
            completedRecord(static_cast<uint64_t>(i), "t",
                            static_cast<Micros>(i) * 1000, 50));
    RequestRecord rejected;
    rejected.request.tenant = "t";
    rejected.status = RequestStatus::RejectedQueueFull;
    metrics.recordOutcome(rejected);
    EXPECT_EQ(metrics.outcomes(), 101u);

    driver::WorkloadCache cache;
    const auto snapshot = cache.snapshot();
    report::Report rep;
    metrics.fillReport(rep, &snapshot);

    const auto keys = recordKeys(rep);
    EXPECT_EQ(keys.count("serve_admission/submitted"), 1u);
    EXPECT_EQ(keys.count("serve_admission/rejected_queue_full"), 1u);
    EXPECT_EQ(keys.count("serve_tenants/p50_ms"), 1u);
    EXPECT_EQ(keys.count("serve_tenants/p95_ms"), 1u);
    EXPECT_EQ(keys.count("serve_tenants/p99_ms"), 1u);
    EXPECT_EQ(keys.count("serve_cache/footprint"), 1u);
    EXPECT_GE(keys.count("serve_queue_depth/depth"), 1u);

    // Percentiles over 1..100 ms latencies: nearest-rank is exact.
    for (const report::MetricRecord &r : rep.records()) {
        if (r.table != "serve_tenants")
            continue;
        if (r.metric == "p50_ms") {
            EXPECT_DOUBLE_EQ(r.value, 50.0);
        }
        if (r.metric == "p95_ms") {
            EXPECT_DOUBLE_EQ(r.value, 95.0);
        }
        if (r.metric == "p99_ms") {
            EXPECT_DOUBLE_EQ(r.value, 99.0);
        }
        if (r.metric == "requests") {
            EXPECT_DOUBLE_EQ(r.value, 101.0);
        }
    }
}

TEST(ServeMetricsReport, DepthSeriesDecimatesDeterministically)
{
    ServeMetrics metrics;
    for (int i = 0; i < 5000; ++i)
        metrics.sampleQueueDepth(i, static_cast<uint32_t>(i % 7));
    report::Report rep;
    metrics.fillReport(rep, nullptr);
    size_t depthRows = 0;
    for (const report::MetricRecord &r : rep.records())
        depthRows += r.table == "serve_queue_depth" &&
                     r.metric == "depth";
    EXPECT_GE(depthRows, 64u);
    EXPECT_LE(depthRows, 1024u);
}

TEST(Percentile, NearestRank)
{
    std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_DOUBLE_EQ(percentile(sorted, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(sorted, 0.50), 5.0);
    EXPECT_DOUBLE_EQ(percentile(sorted, 0.95), 10.0);
    EXPECT_DOUBLE_EQ(percentile(sorted, 1.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(percentile({42.0}, 0.99), 42.0);
}

TEST(ServedDatasetTable, HistoricalExampleShape)
{
    std::vector<RequestRecord> records;
    records.push_back(completedRecord(1, "t", 1000, 1000000));
    records.push_back(completedRecord(2, "t", 2000, 3000000));
    RequestRecord failed;
    failed.request.dataset = "cora";
    failed.status = RequestStatus::Error;
    records.push_back(failed); // must not contribute

    report::Report rep;
    const double aggregateMs =
        appendServedDatasetTable(rep, records, "batched_serving", "t");
    // 4M simulated cycles at 1 GHz.
    EXPECT_DOUBLE_EQ(aggregateMs, 4.0);

    const auto keys = recordKeys(rep);
    for (const char *metric :
         {"nodes", "mean_cycles", "mean_dram_traffic", "hdn_hit_rate",
          "mean_latency_ms"})
        EXPECT_EQ(keys.count(std::string("batched_serving/") + metric),
                  1u)
            << metric;

    for (const report::MetricRecord &r : rep.records()) {
        if (r.metric == "mean_cycles") {
            EXPECT_DOUBLE_EQ(r.value, 2000000.0);
        }
        if (r.metric == "hdn_hit_rate") {
            EXPECT_DOUBLE_EQ(r.value, 0.75);
        }
        if (r.metric == "mean_latency_ms") {
            EXPECT_DOUBLE_EQ(r.value, 2.0);
        }
        if (r.metric == "nodes") {
            EXPECT_EQ(r.dims.dataset, "cora");
        }
    }
}

} // namespace
} // namespace grow::serve
