/**
 * @file
 * Batched multi-graph serving -- now a thin client of the serving
 * subsystem (src/serve/).
 *
 * Historically this example hand-rolled its own batch dispatch over
 * the SweepDriver; the serving layer has since become a first-class
 * subsystem (serve::Executor + the virtual-clock loop behind
 * tools/grow_serve), so the example now *is* what a serving consumer
 * writes: build the request batch, replay it through runVirtualServe,
 * and aggregate the records. Several requests per graph (fresh
 * feature seeds stand in for fresh user inputs) share each graph's
 * expensive preprocessing through the WorkloadCache; with cachedir=
 * the artefacts persist across runs.
 *
 * The report keeps the historical shape: the `batched_serving` table
 * (dataset, nodes, mean cycles, mean DRAM traffic, HDN hit rate, mean
 * latency @1GHz) plus the `aggregate_engine_ms` record -- both now
 * produced by serve::appendServedDatasetTable, which
 * tests/serve/serve_report_test.cpp locks down.
 *
 * For seeded multi-tenant schedules with admission control, deadlines
 * and fair share, see tools/grow_serve.
 *
 * Usage: batched_serving [datasets=cora,citeseer,pubmed] [scale=unit]
 *                        [engine=grow] [requests=4] [threads=1]
 *                        [cachedir=] [format=table|json|csv] [out=path]
 */
#include <string>
#include <vector>

#include "driver/workload_cache.hpp"
#include "graph/datasets.hpp"
#include "report/report.hpp"
#include "report/sinks.hpp"
#include "serve/executor.hpp"
#include "serve/metrics.hpp"
#include "serve/virtual_serve.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "util/work_pool.hpp"

using namespace grow;

namespace {

int
run(int argc, char **argv)
{
    CliArgs args(argc, argv);
    args.requireKnown({"datasets", "scale", "engine", "requests",
                       "threads", "cachedir", "format", "out"});
    auto specs = graph::datasetsByNames(
        args.getList("datasets", {"cora", "citeseer", "pubmed"}));
    auto tier = graph::tierFromString(args.get("scale", "unit"));
    const std::string engineKey = args.get("engine", "grow");
    const int64_t requests = args.getInt("requests", 4, 1, 4096);
    const uint32_t threads =
        util::checkedThreadCount(args.getInt("threads", 1));
    const std::string format = args.get("format", "table");
    report::makeSink(format); // reject bad formats before simulating

    driver::WorkloadCache cache(args.get("cachedir", ""));
    serve::Executor executor(cache, specs, threads);

    // ---- The batch as a serving schedule: requests x graphs, all
    // arriving at once, served back to back on one virtual engine.
    std::vector<serve::ScheduledRequest> schedule;
    uint64_t id = 0;
    for (const auto &spec : specs) {
        for (int64_t r = 0; r < requests; ++r) {
            serve::ScheduledRequest sr;
            serve::ServeRequest &req = sr.request;
            req.id = ++id;
            req.dataset = spec.name;
            req.engine = engineKey;
            req.tier = tier;
            // Each request carries its own synthetic input features;
            // the graph-level artefacts are shared through the cache.
            req.seed = 7 + static_cast<uint64_t>(r);
            schedule.push_back(std::move(sr));
        }
    }

    serve::VirtualServeConfig config;
    config.admission.maxDepth =
        static_cast<uint32_t>(schedule.size()); // batch mode: admit all
    serve::VirtualServeResult result =
        serve::runVirtualServe(schedule, &executor, config, nullptr);
    for (const serve::RequestRecord &rec : result.records)
        if (rec.status != serve::RequestStatus::Completed)
            fatal("batched_serving: request " +
                  std::to_string(rec.request.id) +
                  " failed: " + rec.error);

    report::Report rep;
    rep.meta().bench = "batched_serving";
    rep.meta().generator = "grow-example";
    rep.meta().revision = report::buildRevision();
    rep.meta().scale = graph::tierName(tier);

    auto cstats = cache.stats();
    rep.note("batch: " + std::to_string(schedule.size()) +
             " request(s) over " + std::to_string(specs.size()) +
             " graph(s) on '" + engineKey + "'");
    rep.note("preprocessing: " + std::to_string(cstats.builds) +
             " build(s), " + std::to_string(cstats.memoryHits) +
             " in-memory reuse(s), " + std::to_string(cstats.diskLoads) +
             " disk load(s)" +
             (cache.diskDir().empty()
                  ? ""
                  : " [disk cache: " + cache.diskDir() + "]"));

    const double serialMs = serve::appendServedDatasetTable(
        rep, result.records, "batched_serving",
        "batched serving (" + std::string(graph::tierName(tier)) +
            " scale, " + std::to_string(requests) + " request(s)/graph)");

    // One engine serving the whole batch serially.
    rep.note("aggregate simulated engine time: " +
             fmtDouble(serialMs, 2) + " ms (" +
             fmtDouble(serialMs / static_cast<double>(schedule.size()), 2) +
             " ms/request)");
    rep.addRecord({.bench = "batched_serving",
                   .table = "batched_serving_totals",
                   .dims = {.engine = engineKey},
                   .metric = "aggregate_engine_ms",
                   .unit = "ms",
                   .hasValue = true,
                   .value = serialMs});

    report::emitReport(rep, format, args.get("out", ""));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(argc, argv, run);
}
