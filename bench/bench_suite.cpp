/**
 * @file
 * bench_suite: execute a named subset of the registered benches in one
 * process and merge their structured reports into a single document.
 * This is how the repo tracks its own perf trajectory: CI runs
 *
 *   bench_suite suite=smoke scale=mini format=json out=BENCH_GROW.json
 *
 * validates the schema (tools/report_check) and uploads the file as a
 * workflow artifact on every run, so cross-run, cross-baseline
 * comparisons (Fig. 20-style speedups, traffic, energy) are queryable
 * without parsing stdout tables.
 *
 * Every bench body is linked in (compiled with GROW_BENCH_NO_MAIN) and
 * found through bench::benchRegistry(); a report::ReportCollector
 * intercepts each bench's finished report instead of letting it print.
 * The benches share the process-scope memo of bench/common.hpp, so a
 * suite run builds each graph, its layer data and each (dataset,
 * engine) inference once; the output is byte-identical to running
 * the benches one by one.
 *
 * Usage: bench_suite [suite=smoke|paper] [benches=fig20_speedup,...]
 *                    [list=1]
 *                    [scale=...] [datasets=...] [model=...]
 *                    [cachedir=...] [format=table|json|csv] [out=path]
 *                    [threads=N] [profile=0|1]
 *
 * `benches=` overrides `suite=`; scale/datasets/model/cachedir/
 * threads/profile are forwarded verbatim to every bench
 * (per-bench defaults apply when omitted). With profile=1 every
 * bench's report carries the nondeterministic `sim-speed` family
 * (host wall-clock + rows/s), which lands in the merged
 * BENCH_GROW.json for the trajectory differ's loose-tolerance gate. `format=table` renders every report in sequence exactly as
 * the standalone binaries would; json/csv emit the merged records.
 */
#include <fstream>
#include <iostream>

#include "common.hpp"
#include "util/logging.hpp"
#include "util/work_pool.hpp"

using namespace grow;
using namespace grow::bench;

namespace {

/** Named bench subsets. "paper" is every registered bench. */
const std::map<std::string, std::vector<std::string>> &
suites()
{
    static const std::map<std::string, std::vector<std::string>> s = {
        // Cheap headline set for per-commit CI trajectory tracking:
        // dataset fidelity, the Fig. 18/20 headline comparisons and
        // the HDN hit-rate mechanism.
        {"smoke",
         {"table1_datasets", "fig03_density", "fig17_hdn_hit_rate",
          "fig18_memory_traffic", "fig20_speedup"}},
    };
    return s;
}

std::vector<std::string>
resolveBenches(const CliArgs &args)
{
    std::vector<std::string> all;
    for (const auto &[name, fn] : benchRegistry())
        all.push_back(name);
    if (args.has("benches")) {
        auto names = args.getList("benches", {});
        if (names.size() == 1 && names[0] == "all")
            return all;
        if (names.empty())
            fatal("benches= needs at least one bench name");
        return names;
    }
    const std::string suite = args.get("suite", "smoke");
    if (suite == "paper")
        return all;
    auto it = suites().find(suite);
    if (it == suites().end()) {
        std::string known = "paper";
        for (const auto &[name, benches] : suites())
            known += ", " + name;
        fatal("unknown suite '" + suite + "' (known: " + known + ")");
    }
    return it->second;
}

} // namespace

namespace {

int
suiteMain(int argc, char **argv)
{
    CliArgs args(argc, argv);
    args.requireKnown({"suite", "benches", "list", "scale", "datasets",
                       "model", "cachedir", "format", "out", "threads",
                       "profile"});
    if (args.has("threads")) // reject bad values before any bench runs
        util::checkedThreadCount(args.getInt("threads", 1));
    if (args.getBool("list", false)) {
        for (const auto &[name, fn] : benchRegistry())
            std::cout << name << "\n";
        return 0;
    }

    const std::string format = args.get("format", "table");
    report::makeSink(format); // validate before running anything
    const std::string outPath = args.get("out", "");

    // Forward everything except the suite-level keys; the per-bench
    // report is intercepted, so format/out never reach a bench.
    std::vector<std::string> forwarded;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        bool suiteOnly = false;
        for (const char *key : {"suite=", "benches=", "list=", "format=",
                                "out="})
            suiteOnly = suiteOnly || arg.rfind(key, 0) == 0;
        if (!suiteOnly)
            forwarded.push_back(arg);
    }

    const auto benches = resolveBenches(args);
    for (const auto &name : benches)
        if (!benchRegistry().count(name))
            fatal("unknown bench '" + name +
                  "' (bench_suite list=1 prints the registry)");

    report::ReportCollector collector;
    report::setActiveCollector(&collector);
    std::vector<std::string> failed;
    for (const auto &name : benches) {
        std::vector<char *> childArgv;
        childArgv.push_back(argv[0]);
        for (auto &arg : forwarded)
            childArgv.push_back(arg.data());
        const int rc = runBench(name, benchRegistry().at(name),
                                static_cast<int>(childArgv.size()),
                                childArgv.data());
        if (rc != 0)
            failed.push_back(name);
    }
    report::setActiveCollector(nullptr);

    report::Report merged;
    auto &meta = merged.meta();
    meta.bench = "bench_suite";
    meta.suite = args.has("benches") ? "custom"
                                     : args.get("suite", "smoke");
    meta.revision = report::buildRevision();
    meta.scale = args.get("scale", "");
    meta.model = args.get("model", "");
    for (const auto &rep : collector.reports())
        merged.merge(rep);

    if (format == "table") {
        // Render each bench's report in order, exactly as the
        // standalone binaries would print them.
        report::TableSink sink;
        if (outPath.empty()) {
            for (const auto &rep : collector.reports())
                sink.emit(rep, std::cout);
        } else {
            std::ofstream out(outPath, std::ios::trunc);
            if (!out)
                fatal("cannot open report output file '" + outPath + "'");
            for (const auto &rep : collector.reports())
                sink.emit(rep, out);
            if (!out)
                fatal("failed writing report output file '" + outPath +
                      "'");
        }
    } else {
        report::emitReport(merged, format, outPath);
    }

    if (!failed.empty()) {
        std::cerr << "bench_suite: " << failed.size()
                  << " bench(es) failed:";
        for (const auto &name : failed)
            std::cerr << " " << name;
        std::cerr << "\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(argc, argv, suiteMain);
}
