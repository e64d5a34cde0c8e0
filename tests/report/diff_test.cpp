/**
 * @file
 * Perf-trajectory differ: canonical record join keys, drift
 * classification against the gate units and tolerance, and the
 * added/removed record accounting CI relies on.
 */
#include <gtest/gtest.h>

#include "report/diff.hpp"
#include <cmath>
#include <sstream>

#include "report/json.hpp"
#include "report/report.hpp"
#include "report/sinks.hpp"

namespace grow::report {
namespace {

JsonValue
parse(const std::string &text)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(text, v, &error)) << error;
    return v;
}

/** A minimal schema-valid report with the given records payload. */
std::string
reportWith(const std::string &records)
{
    return R"({"schema":1,"generator":"grow-bench","bench":"t",)"
           R"("revision":"r","records":[)" +
           records + "]}";
}

const char *kRecA =
    R"({"bench":"fig20","table":"fig20","dataset":"yelp",)"
    R"("engine":"grow","metric":"cycles","unit":"cycles","value":1000})";

TEST(ReportDiff, JoinKeyCoversBenchTableDimsAndMetric)
{
    auto root = parse(reportWith(
        R"({"bench":"b","table":"t","dataset":"d","engine":"e",)"
        R"("model":"gat","depth":3,"dims":{"cap":"512"},)"
        R"("metric":"cycles","value":1})"));
    const auto &rec = root.find("records")->arr[0];
    EXPECT_EQ(recordJoinKey(rec),
              "b|t|dataset=d|engine=e|model=gat|depth=3|cap=512|cycles");
}

TEST(ReportDiff, IdenticalReportsShowNoDrift)
{
    auto base = parse(reportWith(kRecA));
    auto curr = parse(reportWith(kRecA));
    auto result = diffReports(base, curr);
    EXPECT_EQ(result.joined, 1u);
    EXPECT_TRUE(result.drifted.empty());
    EXPECT_EQ(result.regressions, 0u);
    EXPECT_TRUE(result.onlyBase.empty());
    EXPECT_TRUE(result.onlyCurrent.empty());
}

TEST(ReportDiff, GatedDriftBeyondToleranceIsARegression)
{
    auto base = parse(reportWith(kRecA));
    auto curr = parse(reportWith(
        R"({"bench":"fig20","table":"fig20","dataset":"yelp",)"
        R"("engine":"grow","metric":"cycles","unit":"cycles",)"
        R"("value":1100})"));
    DiffOptions opt;
    opt.relTolerance = 0.05;
    auto result = diffReports(base, curr, opt);
    ASSERT_EQ(result.drifted.size(), 1u);
    EXPECT_EQ(result.regressions, 1u);
    EXPECT_TRUE(result.drifted[0].regression);
    EXPECT_DOUBLE_EQ(result.drifted[0].relDelta, 0.1);
    EXPECT_DOUBLE_EQ(result.drifted[0].baseValue, 1000.0);
    EXPECT_DOUBLE_EQ(result.drifted[0].currValue, 1100.0);

    // A looser tolerance downgrades the same delta to plain drift.
    opt.relTolerance = 0.2;
    auto relaxed = diffReports(base, curr, opt);
    ASSERT_EQ(relaxed.drifted.size(), 1u);
    EXPECT_EQ(relaxed.regressions, 0u);
    EXPECT_FALSE(relaxed.drifted[0].regression);
}

TEST(ReportDiff, ImprovementsBeyondToleranceAlsoTripTheGate)
{
    // The simulator is deterministic: an "improvement" that nobody
    // made is drift too. Both directions gate.
    auto base = parse(reportWith(kRecA));
    auto curr = parse(reportWith(
        R"({"bench":"fig20","table":"fig20","dataset":"yelp",)"
        R"("engine":"grow","metric":"cycles","unit":"cycles",)"
        R"("value":800})"));
    DiffOptions opt;
    opt.relTolerance = 0.1;
    auto result = diffReports(base, curr, opt);
    EXPECT_EQ(result.regressions, 1u);
}

TEST(ReportDiff, UngatedUnitsNeverFailTheGate)
{
    auto base = parse(reportWith(
        R"({"bench":"b","table":"t","metric":"speedup","unit":"x",)"
        R"("value":2.5})"));
    auto curr = parse(reportWith(
        R"({"bench":"b","table":"t","metric":"speedup","unit":"x",)"
        R"("value":1.0})"));
    auto result = diffReports(base, curr); // gate = cycles,bytes
    ASSERT_EQ(result.drifted.size(), 1u);
    EXPECT_EQ(result.regressions, 0u);
    EXPECT_FALSE(result.drifted[0].regression);
}

TEST(ReportDiff, AddedAndRemovedRecordsAreInformational)
{
    auto base = parse(reportWith(kRecA));
    auto curr = parse(reportWith(
        std::string(kRecA) + "," +
        R"({"bench":"fig22","table":"fig22","dataset":"yelp",)"
        R"("engine":"grow","metric":"energy","unit":"uJ","value":5})"));
    auto result = diffReports(base, curr);
    EXPECT_EQ(result.joined, 1u);
    EXPECT_EQ(result.regressions, 0u);
    EXPECT_TRUE(result.onlyBase.empty());
    ASSERT_EQ(result.onlyCurrent.size(), 1u);
    EXPECT_NE(result.onlyCurrent[0].find("fig22"), std::string::npos);
}

TEST(ReportDiff, TextChangesAreReportedButNotGated)
{
    auto base = parse(reportWith(
        R"({"bench":"b","table":"t","metric":"status","text":"ok"})"));
    auto curr = parse(reportWith(
        R"({"bench":"b","table":"t","metric":"status","text":"meh"})"));
    auto result = diffReports(base, curr);
    ASSERT_EQ(result.textChanges.size(), 1u);
    EXPECT_EQ(result.textChanges[0].baseText, "ok");
    EXPECT_EQ(result.textChanges[0].currText, "meh");
    EXPECT_EQ(result.regressions, 0u);
}

TEST(ReportDiff, GatedMetricLosingItsNumericValueTripsTheGate)
{
    // A bench bug that turns a gated numeric metric into a text cell
    // must not silently retire the metric from the gate.
    auto base = parse(reportWith(kRecA));
    auto curr = parse(reportWith(
        R"({"bench":"fig20","table":"fig20","dataset":"yelp",)"
        R"("engine":"grow","metric":"cycles","unit":"cycles",)"
        R"("text":"n/a"})"));
    DiffOptions opt;
    opt.relTolerance = 1e9;
    auto result = diffReports(base, curr, opt);
    ASSERT_EQ(result.textChanges.size(), 1u);
    EXPECT_EQ(result.regressions, 1u);
}

TEST(ReportDiff, ZeroBaselineDriftIsInfiniteAndGated)
{
    auto base = parse(reportWith(
        R"({"bench":"b","table":"t","metric":"stalls","unit":"cycles",)"
        R"("value":0})"));
    auto curr = parse(reportWith(
        R"({"bench":"b","table":"t","metric":"stalls","unit":"cycles",)"
        R"("value":7})"));
    DiffOptions opt;
    opt.relTolerance = 1e9; // even an absurd tolerance cannot excuse it
    auto result = diffReports(base, curr, opt);
    ASSERT_EQ(result.drifted.size(), 1u);
    EXPECT_TRUE(std::isinf(result.drifted[0].relDelta));
    EXPECT_EQ(result.regressions, 1u);
}

TEST(ReportDiff, WorstDriftSortsFirstAndFormats)
{
    auto base = parse(reportWith(
        R"({"bench":"b","table":"t","metric":"m1","unit":"cycles","value":100},)"
        R"({"bench":"b","table":"t","metric":"m2","unit":"cycles","value":100})"));
    auto curr = parse(reportWith(
        R"({"bench":"b","table":"t","metric":"m1","unit":"cycles","value":101},)"
        R"({"bench":"b","table":"t","metric":"m2","unit":"cycles","value":150})"));
    auto result = diffReports(base, curr);
    ASSERT_EQ(result.drifted.size(), 2u);
    EXPECT_NE(result.drifted[0].key.find("m2"), std::string::npos);
    auto text = formatDiff(result, DiffOptions{});
    EXPECT_NE(text.find("REGRESSION"), std::string::npos);
    EXPECT_NE(text.find("+50.000%"), std::string::npos);
    // max_lines truncation note
    auto truncated = formatDiff(result, DiffOptions{}, 1);
    EXPECT_NE(truncated.find("suppressed"), std::string::npos);
}

TEST(ReportDiff, FailureSummaryLineListsTopWorstRegressions)
{
    // On failure the last line names the worst gated regressions so a
    // CI log tail is enough to see *what* regressed -- even when the
    // per-metric detail lines were truncated by max_lines.
    std::string baseRecs, currRecs;
    for (int i = 1; i <= 5; ++i) {
        const std::string sep = i > 1 ? "," : "";
        baseRecs += sep +
                    R"({"bench":"b","table":"t","metric":"m)" +
                    std::to_string(i) +
                    R"(","unit":"cycles","value":100})";
        // m5 drifts worst (+50%), m1 least (+10%).
        currRecs += sep +
                    R"({"bench":"b","table":"t","metric":"m)" +
                    std::to_string(i) + R"(","unit":"cycles","value":)" +
                    std::to_string(100 + 10 * i) + "}";
    }
    auto result = diffReports(parse(reportWith(baseRecs)),
                              parse(reportWith(currRecs)));
    EXPECT_EQ(result.regressions, 5u);

    auto text = formatDiff(result, DiffOptions{}, 1);
    const size_t fail = text.find("report_diff: FAIL; worst drift:");
    ASSERT_NE(fail, std::string::npos);
    const std::string summary = text.substr(fail);
    // Top 3 by |relDelta|, worst first, with the remainder counted.
    EXPECT_NE(summary.find("m5"), std::string::npos);
    EXPECT_NE(summary.find("m4"), std::string::npos);
    EXPECT_NE(summary.find("m3"), std::string::npos);
    EXPECT_EQ(summary.find("m2"), std::string::npos);
    EXPECT_NE(summary.find("+50.000%"), std::string::npos);
    EXPECT_NE(summary.find("+2 more"), std::string::npos);
    EXPECT_LT(summary.find("m5"), summary.find("m4"));

    // A clean diff never emits the failure line.
    auto clean = diffReports(parse(reportWith(baseRecs)),
                             parse(reportWith(baseRecs)));
    EXPECT_EQ(formatDiff(clean, DiffOptions{}).find("FAIL"),
              std::string::npos);
}

const char *kSimSpeedBase =
    R"({"bench":"zoo","table":"sim_speed","dataset":"cora",)"
    R"("engine":"grow","metric":"rows_per_sec","unit":"rows/s",)"
    R"("value":1000})";
const char *kSimSpeedDrifted =
    R"({"bench":"zoo","table":"sim_speed","dataset":"cora",)"
    R"("engine":"grow","metric":"rows_per_sec","unit":"rows/s",)"
    R"("value":1100})";
const char *kSimSpeedSlower =
    R"({"bench":"zoo","table":"sim_speed","dataset":"cora",)"
    R"("engine":"grow","metric":"rows_per_sec","unit":"rows/s",)"
    R"("value":900})";

TEST(ReportDiff, TolOverrideGatesAUnitOutsideTheDefaultGateSet)
{
    // sim-speed units (ms, rows/s) are not in gateUnits; by default
    // their drift is informational. A tol override both sets their
    // tolerance AND opts them into the gate -- one-sided: 1000 -> 1100
    // rows/s is a speed-up, so it is drift; 1000 -> 900 regresses.
    auto base = parse(reportWith(kSimSpeedBase));
    auto faster = parse(reportWith(kSimSpeedDrifted));
    auto slower = parse(reportWith(kSimSpeedSlower));

    auto plain = diffReports(base, slower);
    ASSERT_EQ(plain.drifted.size(), 1u);
    EXPECT_EQ(plain.regressions, 0u);

    DiffOptions opt;
    opt.tolOverrides["rows/s"] = 0.05;
    auto speedUp = diffReports(base, faster, opt);
    ASSERT_EQ(speedUp.drifted.size(), 1u);
    EXPECT_EQ(speedUp.regressions, 0u);
    EXPECT_FALSE(speedUp.drifted[0].regression);
    auto gated = diffReports(base, slower, opt);
    EXPECT_EQ(gated.regressions, 1u);

    // The 10% drift passes a 15% override (the CI setting).
    opt.tolOverrides["rows/s"] = 0.15;
    auto loose = diffReports(base, slower, opt);
    ASSERT_EQ(loose.drifted.size(), 1u);
    EXPECT_EQ(loose.regressions, 0u);
}

TEST(ReportDiff, HostTimeGatesOneSidedAndModelledUnitsBothWays)
{
    auto rec = [](const char *unit, double value) {
        return std::string(R"({"bench":"b","table":"t","metric":"m",)") +
               R"("unit":")" + unit + R"(","value":)" +
               std::to_string(value) + "}";
    };
    auto regressions = [&](const char *unit, double curr) {
        DiffOptions opt;
        opt.gateUnits = {"cycles", "bytes", "est", "link-bytes"};
        opt.tolOverrides[unit] = 0.15;
        return diffReports(parse(reportWith(rec(unit, 100.0))),
                           parse(reportWith(rec(unit, curr))), opt)
            .regressions;
    };
    // ms regresses only upward.
    EXPECT_EQ(regressions("ms", 130.0), 1u);
    EXPECT_EQ(regressions("ms", 50.0), 0u);
    // Throughput units regress only downward.
    for (const char *unit : {"rows/s", "edges/s"}) {
        EXPECT_EQ(regressions(unit, 70.0), 1u) << unit;
        EXPECT_EQ(regressions(unit, 200.0), 0u) << unit;
    }
    // Modelled units stay two-sided.
    for (const char *unit : {"cycles", "bytes", "est", "link-bytes"}) {
        EXPECT_EQ(regressions(unit, 130.0), 1u) << unit;
        EXPECT_EQ(regressions(unit, 70.0), 1u) << unit;
        EXPECT_EQ(regressions(unit, 110.0), 0u) << unit;
    }
}

TEST(ReportDiff, MetricNameOverrideBeatsUnitOverride)
{
    auto base = parse(reportWith(kSimSpeedBase));
    auto curr = parse(reportWith(kSimSpeedSlower));

    DiffOptions opt;
    opt.tolOverrides["rows/s"] = 0.05;       // would gate the 10% drift
    opt.tolOverrides["rows_per_sec"] = 0.2;  // metric name wins
    auto result = diffReports(base, curr, opt);
    EXPECT_EQ(result.regressions, 0u);

    opt.tolOverrides["rows/s"] = 0.5;
    opt.tolOverrides["rows_per_sec"] = 0.05; // tight metric override
    auto tight = diffReports(base, curr, opt);
    EXPECT_EQ(tight.regressions, 1u);
}

TEST(ReportDiff, TolOverrideCanLoosenAGatedUnit)
{
    auto base = parse(reportWith(kRecA));
    auto curr = parse(reportWith(
        R"({"bench":"fig20","table":"fig20","dataset":"yelp",)"
        R"("engine":"grow","metric":"cycles","unit":"cycles",)"
        R"("value":1050})"));
    auto strict = diffReports(base, curr); // 5% > default 2%
    EXPECT_EQ(strict.regressions, 1u);

    DiffOptions opt;
    opt.tolOverrides["cycles"] = 0.1;
    auto loose = diffReports(base, curr, opt);
    ASSERT_EQ(loose.drifted.size(), 1u);
    EXPECT_EQ(loose.regressions, 0u);

    // The header advertises active overrides so a CI log shows what
    // tolerance actually applied.
    auto text = formatDiff(loose, opt);
    EXPECT_NE(text.find("override"), std::string::npos);
    EXPECT_NE(text.find("cycles=0.1"), std::string::npos);
}

TEST(ReportDiff, NamesMatchingNoMetricOrUnitAreUnmatched)
{
    // report_diff exits 2 on these: a mistyped gate unit or override
    // (gate=cylces, tol.cylces=0) would otherwise gate nothing.
    auto base = parse(reportWith(kRecA));          // cycles [cycles]
    auto curr = parse(reportWith(kSimSpeedBase));  // rows_per_sec [rows/s]
    EXPECT_EQ(unmatchedNames(base, curr,
                             {"cycles", "rows/s", "rows_per_sec", "cylces",
                              "bytes"}),
              (std::vector<std::string>{"cylces", "bytes"}));
    // Either file's names count, and nothing asked is nothing unmatched.
    EXPECT_TRUE(unmatchedNames(curr, base, {"cycles", "rows/s"}).empty());
    EXPECT_TRUE(unmatchedNames(base, curr, {}).empty());
}

TEST(ReportDiff, OverriddenMetricLosingItsValueTripsTheGate)
{
    // Mirrors GatedMetricLosingItsNumericValueTripsTheGate for a
    // metric gated only through an override.
    auto base = parse(reportWith(kSimSpeedBase));
    auto curr = parse(reportWith(
        R"({"bench":"zoo","table":"sim_speed","dataset":"cora",)"
        R"("engine":"grow","metric":"rows_per_sec","unit":"rows/s",)"
        R"("text":"n/a"})"));
    auto plain = diffReports(base, curr);
    EXPECT_EQ(plain.regressions, 0u);

    DiffOptions opt;
    opt.tolOverrides["rows/s"] = 0.15;
    auto gated = diffReports(base, curr, opt);
    EXPECT_EQ(gated.regressions, 1u);
}

/** Render @p report through the JSON sink and parse it back. */
JsonValue
roundTrip(const Report &report)
{
    std::ostringstream os;
    JsonSink().emit(report, os);
    JsonValue root = parse(os.str());
    std::vector<std::string> errors;
    EXPECT_TRUE(validateReportJson(root, errors))
        << (errors.empty() ? "" : errors.front());
    return root;
}

TEST(ReportDiff, SimSpeedRecordsSurviveTheJsonRoundTrip)
{
    // The profile=1 table as BenchContext::emitSimSpeed declares it:
    // built through the report API, rendered to JSON, validated, and
    // joined by the differ under the CI tolerance overrides.
    auto makeReport = [](double wall_ms, double rows_per_sec) {
        Report rep;
        rep.meta().bench = "model_zoo";
        rep.meta().revision = "test";
        auto t = rep.table("sim_speed", "Simulator speed");
        t.col("dataset", "dataset")
            .col("engine", "engine")
            .col("wall_ms", "wall ms", "ms")
            .col("rows_per_sec", "sim rows/s", "rows/s");
        t.row({.dataset = "cora", .engine = "grow"})
            .add(textCell("cora"))
            .add(textCell("grow"))
            .add(real(wall_ms, 3, "ms"))
            .add(real(rows_per_sec, 1, "rows/s"));
        return rep;
    };

    auto base = roundTrip(makeReport(100.0, 5000.0));
    auto curr = roundTrip(makeReport(110.0, 4545.5));

    DiffOptions opt;
    opt.tolOverrides["ms"] = 0.15;
    opt.tolOverrides["rows/s"] = 0.15;
    auto result = diffReports(base, curr, opt);
    // Identity cells (dataset, engine) are not records; both numeric
    // metrics join and the 10% drift passes the 15% override.
    EXPECT_EQ(result.joined, 2u);
    EXPECT_EQ(result.drifted.size(), 2u);
    EXPECT_EQ(result.regressions, 0u);
    EXPECT_TRUE(result.onlyBase.empty());
    EXPECT_TRUE(result.onlyCurrent.empty());

    opt.tolOverrides["ms"] = 0.05;
    auto tight = diffReports(base, curr, opt);
    EXPECT_EQ(tight.regressions, 1u);
}

} // namespace
} // namespace grow::report
