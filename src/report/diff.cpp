#include "report/diff.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "util/logging.hpp"

namespace grow::report {

namespace {

/** Append "|key=value" when the record carries a string @p field. */
void
appendStringDim(std::string &key, const JsonValue &record,
                const char *field)
{
    const JsonValue *v = record.find(field);
    if (v != nullptr && v->isString() && !v->str.empty())
        key += std::string("|") + field + "=" + v->str;
}

/**
 * Which way a host wall-clock unit regresses: +1 when higher is worse
 * (ms), -1 when lower is worse (rows/s, edges/s). Host time gates
 * one-sided, so a speed-up is drift, never a failure. Every other unit
 * returns 0 and gates both ways: modelled metrics (cycles, bytes, est,
 * link-bytes) are deterministic, so an unexplained improvement is a
 * behavioural change too.
 */
int
worseDirection(const std::string &unit)
{
    if (unit == "ms")
        return 1;
    if (unit == "rows/s" || unit == "edges/s")
        return -1;
    return 0;
}

/** The slice of one record the join compares. */
struct RecordView
{
    bool hasValue = false;
    double value = 0.0;
    std::string text;
    std::string unit;
    std::string metric;
};

std::map<std::string, RecordView>
indexRecords(const JsonValue &root)
{
    std::map<std::string, RecordView> index;
    const JsonValue *records = root.find("records");
    GROW_ASSERT(records != nullptr && records->isArray(),
                "diffReports needs validated report JSON");
    for (const JsonValue &r : records->arr) {
        RecordView view;
        if (const JsonValue *v = r.find("value");
            v != nullptr && v->isNumber()) {
            view.hasValue = true;
            view.value = v->number;
        }
        if (const JsonValue *t = r.find("text");
            t != nullptr && t->isString())
            view.text = t->str;
        if (const JsonValue *u = r.find("unit");
            u != nullptr && u->isString())
            view.unit = u->str;
        if (const JsonValue *m = r.find("metric");
            m != nullptr && m->isString())
            view.metric = m->str;
        // Last write wins on duplicate keys; the schema contract
        // (record.hpp) says rows must be uniquely identified, and the
        // report tests enforce it for the shipped benches.
        index[recordJoinKey(r)] = std::move(view);
    }
    return index;
}

std::string
fmtValue(double v)
{
    return jsonNumber(v);
}

std::string
fmtPercentDelta(double rel)
{
    if (std::isinf(rel))
        return rel > 0 ? "+inf%" : "-inf%";
    std::ostringstream oss;
    oss.setf(std::ios::fixed);
    oss.precision(3);
    oss << (rel >= 0 ? "+" : "") << rel * 100.0 << "%";
    return oss.str();
}

} // namespace

std::string
recordJoinKey(const JsonValue &record)
{
    std::string key;
    if (const JsonValue *b = record.find("bench");
        b != nullptr && b->isString())
        key += b->str;
    key += "|";
    if (const JsonValue *t = record.find("table");
        t != nullptr && t->isString())
        key += t->str;
    appendStringDim(key, record, "dataset");
    appendStringDim(key, record, "engine");
    appendStringDim(key, record, "model");
    if (const JsonValue *d = record.find("depth");
        d != nullptr && d->isNumber())
        key += "|depth=" + jsonNumber(d->number);
    if (const JsonValue *dims = record.find("dims");
        dims != nullptr && dims->isObject()) {
        for (const auto &[k, v] : dims->obj)
            if (v.isString())
                key += "|" + k + "=" + v.str;
    }
    key += "|";
    if (const JsonValue *m = record.find("metric");
        m != nullptr && m->isString())
        key += m->str;
    return key;
}

DiffResult
diffReports(const JsonValue &base, const JsonValue &current,
            const DiffOptions &options)
{
    auto baseIdx = indexRecords(base);
    auto currIdx = indexRecords(current);

    DiffResult out;
    auto gatedUnit = [&options](const std::string &unit) {
        return std::find(options.gateUnits.begin(),
                         options.gateUnits.end(),
                         unit) != options.gateUnits.end();
    };
    // Override precedence: metric name beats unit beats the global
    // tolerance; the presence of any override gates the record.
    auto overrideFor = [&options](const std::string &metric,
                                  const std::string &unit)
        -> const double * {
        auto it = options.tolOverrides.find(metric);
        if (it != options.tolOverrides.end())
            return &it->second;
        it = options.tolOverrides.find(unit);
        if (it != options.tolOverrides.end())
            return &it->second;
        return nullptr;
    };
    for (const auto &[key, b] : baseIdx) {
        auto it = currIdx.find(key);
        if (it == currIdx.end()) {
            out.onlyBase.push_back(key);
            continue;
        }
        const RecordView &c = it->second;
        ++out.joined;
        if (b.hasValue && c.hasValue) {
            if (b.value != c.value) {
                DiffEntry e;
                e.key = key;
                e.unit = c.unit.empty() ? b.unit : c.unit;
                e.baseValue = b.value;
                e.currValue = c.value;
                e.relDelta =
                    b.value != 0.0
                        ? (c.value - b.value) / std::fabs(b.value)
                        : (c.value > 0.0
                               ? std::numeric_limits<double>::infinity()
                               : -std::numeric_limits<
                                     double>::infinity());
                const std::string &metric =
                    c.metric.empty() ? b.metric : c.metric;
                const double *ov = overrideFor(metric, e.unit);
                const double tol =
                    ov != nullptr ? *ov : options.relTolerance;
                const int worse = worseDirection(e.unit);
                const double regress =
                    worse == 0 ? std::fabs(e.relDelta) : worse * e.relDelta;
                e.regression =
                    (ov != nullptr || gatedUnit(e.unit)) && regress > tol;
                if (e.regression)
                    ++out.regressions;
                out.drifted.push_back(std::move(e));
            }
        } else if (b.text != c.text || b.hasValue != c.hasValue) {
            out.textChanges.push_back(
                {key, b.hasValue ? fmtValue(b.value) : b.text,
                 c.hasValue ? fmtValue(c.value) : c.text});
            // A gated metric that gained or lost its numeric value is
            // a gate failure, not cosmetics: otherwise a bench bug
            // that turns "cycles" into a text cell would silently
            // retire the metric from the gate. No tolerance applies.
            if (b.hasValue != c.hasValue &&
                (gatedUnit(b.unit) || gatedUnit(c.unit) ||
                 overrideFor(b.metric, b.unit) != nullptr ||
                 overrideFor(c.metric, c.unit) != nullptr))
                ++out.regressions;
        }
    }
    for (const auto &[key, c] : currIdx) {
        (void)c;
        if (!baseIdx.count(key))
            out.onlyCurrent.push_back(key);
    }
    // Worst drift first; deterministic tie-break on the key.
    std::sort(out.drifted.begin(), out.drifted.end(),
              [](const DiffEntry &a, const DiffEntry &b) {
                  double da = std::fabs(a.relDelta);
                  double db = std::fabs(b.relDelta);
                  if (da != db)
                      return da > db;
                  return a.key < b.key;
              });
    return out;
}

std::vector<std::string>
unmatchedNames(const JsonValue &base, const JsonValue &current,
               const std::vector<std::string> &names)
{
    std::set<std::string> known;
    for (const JsonValue *root : {&base, &current}) {
        const JsonValue *records = root->find("records");
        GROW_ASSERT(records != nullptr && records->isArray(),
                    "unmatchedNames needs validated report JSON");
        for (const JsonValue &r : records->arr)
            for (const char *field : {"metric", "unit"})
                if (const JsonValue *v = r.find(field);
                    v != nullptr && v->isString())
                    known.insert(v->str);
    }
    std::vector<std::string> unmatched;
    for (const std::string &name : names)
        if (!known.count(name))
            unmatched.push_back(name);
    return unmatched;
}

std::string
formatDiff(const DiffResult &result, const DiffOptions &options,
           size_t max_lines)
{
    std::ostringstream oss;
    oss << "report_diff: " << result.joined << " metric(s) joined, "
        << result.drifted.size() << " drifted, " << result.regressions
        << " gated regression(s) beyond tol="
        << jsonNumber(options.relTolerance);
    if (!options.tolOverrides.empty()) {
        oss << " (+" << options.tolOverrides.size() << " override(s):";
        for (const auto &[name, tol] : options.tolOverrides)
            oss << " " << name << "=" << jsonNumber(tol);
        oss << ")";
    }
    oss << "\n";
    size_t lines = 0;
    auto budget = [&] {
        return max_lines == 0 || lines < max_lines;
    };
    for (const auto &e : result.drifted) {
        if (!budget()) {
            oss << "  ... (" << result.drifted.size() - lines
                << " more drifted metric(s) suppressed)\n";
            break;
        }
        oss << (e.regression ? "  REGRESSION " : "  drift      ")
            << e.key << (e.unit.empty() ? "" : " [" + e.unit + "]")
            << ": " << fmtValue(e.baseValue) << " -> "
            << fmtValue(e.currValue) << " ("
            << fmtPercentDelta(e.relDelta) << ")\n";
        ++lines;
    }
    for (const auto &t : result.textChanges) {
        if (!budget())
            break;
        oss << "  text        " << t.key << ": '" << t.baseText
            << "' -> '" << t.currText << "'\n";
        ++lines;
    }
    if (!result.onlyBase.empty())
        oss << "  " << result.onlyBase.size()
            << " record(s) only in base (first: " << result.onlyBase[0]
            << ")\n";
    if (!result.onlyCurrent.empty())
        oss << "  " << result.onlyCurrent.size()
            << " record(s) only in current (first: "
            << result.onlyCurrent[0] << ")\n";
    if (result.regressions > 0) {
        // One final greppable line for CI logs: the top worst gated
        // regressions, even when the detail lines above were truncated
        // by max_lines. `drifted` is already sorted worst-first.
        constexpr size_t kFailSummaryTop = 3;
        oss << "report_diff: FAIL; worst drift:";
        size_t shown = 0;
        for (const auto &e : result.drifted) {
            if (!e.regression)
                continue;
            oss << (shown ? ", " : " ") << e.key << " ("
                << fmtPercentDelta(e.relDelta) << ")";
            if (++shown == kFailSummaryTop)
                break;
        }
        if (result.regressions > shown)
            oss << ", +" << result.regressions - shown << " more";
        oss << "\n";
    }
    return oss.str();
}

} // namespace grow::report
