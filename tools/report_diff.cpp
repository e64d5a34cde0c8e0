/**
 * @file
 * report_diff: the CI perf-regression gate over two BENCH_GROW.json
 * perf-trajectory files (src/report/diff.hpp).
 *
 * Usage:
 *   report_diff base=main/BENCH_GROW.json current=build/BENCH_GROW.json
 *               [history=bench/history] [tol=0.0] [gate=cycles,bytes]
 *               [tol.<metric-or-unit>=pct ...] [max_lines=40]
 *
 * Joins the two files on the canonical (bench, table, row-dims,
 * metric) record key, prints every per-metric delta (worst first) and
 * the added/removed record summary.
 *
 * `tol.<name>=` keys are repeatable per-metric tolerance overrides
 * (name = metric name or unit; metric wins). An override also gates
 * its metric even when the unit is outside `gate=` -- e.g.
 * `tol.rows/s=0.15` gates the sim-speed family at 15% while cycles
 * stay at the tight default. An explicit `gate=` unit or a `tol.`
 * name that is no metric name or unit of either file is a usage
 * error: a typo would otherwise gate nothing.
 *
 * `history=` names the committed perf-trajectory directory
 * (bench/history/): when `base=` is absent, the lexically newest
 * *.json there becomes the baseline. No baseline at all skips the
 * gate (exit 0) -- a first run must not fail CI.
 *
 * Exit codes:
 *   0  no gated metric drifted beyond `tol` (other drift is reported
 *      but does not fail the gate), or no baseline available
 *   1  at least one gated regression
 *   2  usage error (an unmatched gate= unit or tol. name included),
 *      unreadable file, JSON parse or schema failure
 */
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "report/diff.hpp"
#include "report/json.hpp"
#include "report/report.hpp"
#include "util/cli.hpp"

using namespace grow;

namespace {

int
loadReport(const std::string &path, report::JsonValue &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "report_diff: cannot read " << path << "\n";
        return 2;
    }
    std::ostringstream oss;
    oss << in.rdbuf();
    std::string error;
    if (!report::parseJson(oss.str(), out, &error)) {
        std::cerr << "report_diff: " << path
                  << ": JSON parse error: " << error << "\n";
        return 2;
    }
    std::vector<std::string> errors;
    if (!report::validateReportJson(out, errors)) {
        std::cerr << "report_diff: " << path << ": " << errors.size()
                  << " schema violation(s):\n";
        for (const auto &msg : errors)
            std::cerr << "  - " << msg << "\n";
        return 2;
    }
    return 0;
}

/** Lexically newest *.json under @p dir, or "" when none/unreadable.
 *  History snapshots are date-prefixed, so lexical == chronological. */
std::string
newestHistoryFile(const std::string &dir)
{
    std::error_code ec;
    std::string best;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file())
            continue;
        const std::string path = entry.path().string();
        if (entry.path().extension() != ".json")
            continue;
        if (path > best)
            best = path;
    }
    return best;
}

int
run(int argc, char **argv)
{
    CliArgs args(argc, argv);
    args.requireKnown(
        {"base", "current", "history", "tol", "gate", "max_lines"},
        {"tol."});
    std::string basePath = args.get("base", "");
    const std::string currPath = args.get("current", "");
    const std::string historyDir = args.get("history", "");
    if (currPath.empty() || (basePath.empty() && historyDir.empty())) {
        std::cerr << "usage: report_diff base=<old.json> "
                     "current=<new.json> [history=<dir>] [tol=0.0] "
                     "[gate=cycles,bytes] [tol.<metric>=pct ...] "
                     "[max_lines=40]\n";
        return 2;
    }
    if (basePath.empty()) {
        basePath = newestHistoryFile(historyDir);
        if (basePath.empty()) {
            std::cout << "report_diff: no baseline in " << historyDir
                      << "; gate skipped (first run)\n";
            return 0;
        }
        std::cout << "report_diff: baseline from committed history: "
                  << basePath << "\n";
    }

    report::DiffOptions options;
    options.relTolerance = args.getDouble("tol", 0.0);
    if (options.relTolerance < 0) {
        std::cerr << "report_diff: tol must be >= 0\n";
        return 2;
    }
    options.gateUnits = args.getList("gate", {"cycles", "bytes"});
    for (const auto &[name, text] : args.withPrefix("tol.")) {
        const double tol = args.getDouble("tol." + name, 0.0);
        if (tol < 0) {
            std::cerr << "report_diff: tol." << name
                      << " must be a fraction >= 0, got '" << text
                      << "'\n";
            return 2;
        }
        options.tolOverrides[name] = tol;
    }
    const int64_t maxLines = args.getInt("max_lines", 40, 0);

    report::JsonValue base, current;
    if (int rc = loadReport(basePath, base))
        return rc;
    if (int rc = loadReport(currPath, current))
        return rc;

    std::vector<std::string> unmatched;
    if (args.has("gate"))
        for (const auto &unit : report::unmatchedNames(
                 base, current, options.gateUnits))
            unmatched.push_back("gate=" + unit);
    std::vector<std::string> overrideNames;
    for (const auto &[name, tol] : options.tolOverrides)
        overrideNames.push_back(name);
    for (const auto &name :
         report::unmatchedNames(base, current, overrideNames))
        unmatched.push_back("tol." + name);
    if (!unmatched.empty()) {
        std::cerr << "report_diff: no metric name or unit of either "
                     "report matches";
        for (const auto &what : unmatched)
            std::cerr << " " << what;
        std::cerr << "\n";
        return 2;
    }

    auto result = report::diffReports(base, current, options);
    std::cout << report::formatDiff(result, options,
                                    static_cast<size_t>(maxLines));
    if (result.joined == 0) {
        // Nothing joined means the gate compared nothing -- that
        // is a configuration problem (wrong files), not a pass.
        std::cerr << "report_diff: no records joined between "
                  << basePath << " and " << currPath << "\n";
        return 2;
    }
    return result.regressions > 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Usage errors, fatal() included, exit 2: 1 means a regression.
    return runMain(argc, argv, run, 2);
}
