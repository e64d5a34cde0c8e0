/**
 * @file
 * The GROW serving simulator: deterministic in-process replay of a
 * seeded multi-tenant request schedule on a virtual clock, through the
 * serving stack's admission queue, fair-share scheduler, executor and
 * metrics. Service time is the simulated inference latency, so
 * identical flags produce byte-identical reports -- CI gates them.
 *
 * Flags (key=value):
 *   scale=, datasets=, model=  the served universe and the schedule's
 *                          draw pools (datasets=all for the whole
 *                          registry; default cora)
 *   engines=, requests=, seed=, mean_gap_us=, tenants=name:w,...,
 *   depth=, feature_seed=, deadline_ms=   schedule knobs
 *   queue_depth=<n>        admission: max queued requests (default 64)
 *   bytebudget=<n>[K|M|G]  admission: in-flight byte budget (0 = off)
 *   default_deadline_ms=<n>  deadline applied when a request has none
 *   slots=<n>              virtual service slots (default 1)
 *   threads=<n>            phase fan-out per inference (default 1)
 *   cachedir=, memcap=     workload-cache disk layer / byte cap
 *   format=, out=          report sink (table|json|csv, default table)
 *   records_out=<path>     canonical digest records (byte-identity gate)
 */

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "driver/workload_cache.hpp"
#include "graph/datasets.hpp"
#include "report/report.hpp"
#include "report/sinks.hpp"
#include "serve/executor.hpp"
#include "serve/metrics.hpp"
#include "serve/options.hpp"
#include "serve/virtual_serve.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/work_pool.hpp"

namespace {

std::vector<grow::graph::DatasetSpec>
resolveDatasets(const std::vector<std::string> &names)
{
    if (names.size() == 1 && names[0] == "all")
        return grow::graph::allDatasets();
    std::vector<grow::graph::DatasetSpec> specs;
    for (const std::string &name : names)
        specs.push_back(grow::graph::datasetByName(name));
    return specs;
}

/**
 * Write the canonical digest-record file: one digestLine per
 * Completed record, sorted by request id so resolution order never
 * affects the bytes. CI diffs these files between `threads=` values.
 */
void
writeDigestRecords(const std::string &path,
                   const std::vector<grow::serve::RequestRecord> &records)
{
    using grow::serve::RequestRecord;
    std::vector<const RequestRecord *> completed;
    for (const RequestRecord &r : records)
        if (r.status == grow::serve::RequestStatus::Completed)
            completed.push_back(&r);
    std::sort(completed.begin(), completed.end(),
              [](const RequestRecord *a, const RequestRecord *b) {
                  return a->request.id < b->request.id;
              });
    std::ofstream out(path);
    if (!out)
        grow::fatal("cannot write records file '" + path + "'");
    for (const RequestRecord *r : completed)
        out << grow::serve::digestLine(r->request, r->digest) << "\n";
}

int
run(int argc, char **argv)
{
    using namespace grow;

    CliArgs args(argc, argv);
    std::vector<std::string> known = {"slots",  "threads", "cachedir",
                                      "memcap", "format",  "out",
                                      "records_out"};
    for (const std::string &k : serve::scheduleKeys())
        known.push_back(k);
    for (const std::string &k : serve::admissionKeys())
        known.push_back(k);
    args.requireKnown(known);

    // Every option is checked before anything is built or scheduled.
    const uint32_t threads =
        util::checkedThreadCount(args.getInt("threads", 1));
    const serve::ScheduleConfig scheduleConfig = serve::scheduleFromArgs(args);
    serve::VirtualServeConfig config;
    config.admission = serve::admissionFromArgs(args);
    config.slots = static_cast<uint32_t>(args.getInt("slots", 1, 1, 1024));

    driver::WorkloadCache cache(args.get("cachedir", ""));
    if (args.has("memcap"))
        cache.setMemoryByteCap(
            parseByteSize("memcap", args.get("memcap", "")));

    const auto specs = resolveDatasets(args.getList("datasets", {"cora"}));
    serve::Executor executor(cache, specs, threads);
    serve::ServeMetrics metrics;

    report::ReportMeta meta;
    meta.generator = "grow-serve";
    meta.bench = "serve_sim";
    meta.revision = report::buildRevision();
    meta.scale = args.get("scale", "mini");
    meta.model = args.get("model", "gcn");
    report::Report rep(meta);

    const auto schedule = serve::buildSchedule(scheduleConfig);
    const serve::VirtualServeResult result =
        serve::runVirtualServe(schedule, &executor, config, &metrics);
    rep.note("grow_serve: " + std::to_string(schedule.size()) +
             " scheduled requests, " + std::to_string(config.slots) +
             " slot(s), virtual end " + std::to_string(result.endUs) +
             " us");

    const auto snapshot = cache.snapshot();
    metrics.fillReport(rep, &snapshot);
    report::emitReport(rep, args.get("format", "table"),
                       args.get("out", ""));
    if (args.has("records_out"))
        writeDigestRecords(args.get("records_out", ""), result.records);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return grow::runMain(argc, argv, run);
}
