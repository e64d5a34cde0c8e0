/**
 * @file
 * Perf-trajectory differ: join two structured report files on the
 * canonical (bench, table, row-dims, metric) record key and classify
 * the per-metric deltas.
 *
 * The records of BENCH_GROW.json are keyed for exactly this join
 * (record.hpp): CI downloads the latest main-branch trajectory
 * artifact, diffs it against the current run with tools/report_diff
 * and fails when a gated metric (cycles and DRAM bytes by default)
 * drifts beyond the configured tolerance. The simulator is
 * deterministic, so any drift is a real behavioural change -- either
 * an intended optimisation (bump the baseline by merging) or a
 * regression this gate exists to catch.
 */
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "report/json.hpp"

namespace grow::report {

/** Knobs of one diff run. */
struct DiffOptions
{
    /**
     * Allowed relative drift |curr - base| / |base| of a gated metric
     * before it counts as a regression. 0 demands bit-stability. Host
     * wall-clock units gate one-sided: "ms" regresses only upward,
     * "rows/s" and "edges/s" only downward; a speed-up past the
     * tolerance is reported as drift.
     */
    double relTolerance = 0.0;
    /** Units participating in the gate (cycle counts, byte totals). */
    std::vector<std::string> gateUnits = {"cycles", "bytes"};
    /**
     * Per-metric tolerance overrides, keyed by metric name (e.g.
     * "rows_per_sec") or unit (e.g. "rows/s", "ms"). Precedence:
     * metric name > unit > relTolerance. An override also *gates* its
     * metric/unit even when the unit is outside gateUnits -- that is
     * how the nondeterministic sim-speed family (units outside the
     * default gate set) gets its own loose CI gate without loosening
     * the 2%-tight cycles/bytes gate (CLI: repeatable `tol.<name>=`).
     */
    std::map<std::string, double> tolOverrides;
};

/** One joined numeric metric whose value changed. */
struct DiffEntry
{
    std::string key; ///< canonical join key (recordJoinKey)
    std::string unit;
    double baseValue = 0.0;
    double currValue = 0.0;
    /** (curr - base) / |base|; +-inf when base == 0 and curr != 0. */
    double relDelta = 0.0;
    /** Whether the unit is gated *and* the drift exceeds tolerance in
     *  the unit's worse direction (both directions unless host time). */
    bool regression = false;
};

/** A categorical (text) metric whose rendering changed. */
struct TextChange
{
    std::string key;
    std::string baseText;
    std::string currText;
};

/** Outcome of diffing two report files. */
struct DiffResult
{
    size_t joined = 0; ///< records present in both files
    /** Numeric metrics whose value changed (regressions included). */
    std::vector<DiffEntry> drifted;
    /** Gate failures: drifted entries with .regression, plus gated
     *  metrics that gained/lost their numeric value entirely (those
     *  appear in textChanges -- a "cycles" record degrading to a text
     *  cell must not silently retire the metric from the gate). */
    size_t regressions = 0;
    std::vector<TextChange> textChanges;
    /** Join keys present in only one side (benches added/removed --
     *  informational, never a gate failure). */
    std::vector<std::string> onlyBase;
    std::vector<std::string> onlyCurrent;
};

/**
 * Canonical join key of one parsed record object:
 * "bench|table|dataset=..|engine=..|model=..|depth=..|extra..|metric".
 * Absent optional dimensions are omitted, so the key is stable across
 * files regardless of field order.
 */
std::string recordJoinKey(const JsonValue &record);

/**
 * Join @p base and @p current (validated report roots -- run
 * validateReportJson first) on recordJoinKey and classify every
 * metric. Entries come back sorted by |relDelta| descending (ties by
 * key) so the worst drift leads the report.
 */
DiffResult diffReports(const JsonValue &base, const JsonValue &current,
                       const DiffOptions &options = {});

/**
 * The entries of @p names that are neither a metric name nor a unit of
 * any record of @p base or @p current. A gate unit or tolerance
 * override among them gates nothing: report_diff rejects it, so a
 * mistyped name cannot turn a gate off silently.
 */
std::vector<std::string> unmatchedNames(const JsonValue &base,
                                        const JsonValue &current,
                                        const std::vector<std::string> &names);

/**
 * Human-readable rendering of @p result (at most @p max_lines detail
 * lines; 0 = unlimited). One line per drifted metric, then the
 * added/removed key summary.
 */
std::string formatDiff(const DiffResult &result,
                       const DiffOptions &options, size_t max_lines = 0);

} // namespace grow::report
