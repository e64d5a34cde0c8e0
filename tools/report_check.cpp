/**
 * @file
 * report_check: schema validator for the structured report JSON
 * (src/report/json.hpp). CI runs it against BENCH_GROW.json before
 * uploading the perf-trajectory artifact, so a record missing required
 * keys -- or a report written under a different schema version --
 * fails the job instead of silently corrupting the trajectory.
 *
 * Usage: report_check in=BENCH_GROW.json [min_records=1]
 *
 * Exit 0 iff the file parses, validates against this build's
 * kReportSchemaVersion and carries at least min_records records.
 */
#include <fstream>
#include <iostream>
#include <sstream>

#include "report/json.hpp"
#include "report/report.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

using namespace grow;

namespace {

int
run(int argc, char **argv)
{
    CliArgs args(argc, argv);
    args.requireKnown({"in", "min_records"});
    const std::string path = args.get("in", "");
    if (path.empty())
        fatal("usage: report_check in=<report.json> [min_records=1]");
    const int64_t minRecords = args.getInt("min_records", 1);

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "report_check: cannot read " << path << "\n";
        return 1;
    }
    std::ostringstream oss;
    oss << in.rdbuf();

    report::JsonValue root;
    std::string error;
    if (!report::parseJson(oss.str(), root, &error)) {
        std::cerr << "report_check: " << path << ": JSON parse error: "
                  << error << "\n";
        return 1;
    }
    std::vector<std::string> errors;
    if (!report::validateReportJson(root, errors)) {
        std::cerr << "report_check: " << path << ": "
                  << errors.size() << " schema violation(s):\n";
        for (const auto &msg : errors)
            std::cerr << "  - " << msg << "\n";
        return 1;
    }
    const auto &records = root.find("records")->arr;
    if (static_cast<int64_t>(records.size()) < minRecords) {
        std::cerr << "report_check: " << path << ": only "
                  << records.size() << " record(s), expected >= "
                  << minRecords << "\n";
        return 1;
    }
    std::cout << "report_check: " << path << ": OK (schema "
              << report::kReportSchemaVersion << ", " << records.size()
              << " records, bench '" << root.find("bench")->str
              << "')\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(argc, argv, run);
}
