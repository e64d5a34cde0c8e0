/**
 * @file
 * Small pieces of the simulator benchmark that its self-test checks on
 * their own: order statistics, the seeded serving request stream, the
 * reference-digest file format and the metric sink that prints the
 * result line.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gcn/runner.hpp"
#include "report/json.hpp"
#include "serve/request.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace gcn = grow::gcn;
namespace graph = grow::graph;
namespace report = grow::report;
namespace serve = grow::serve;
using grow::Rng;

/**
 * Nearest-rank percentile: the smallest sample with at least @p pct
 * percent of the samples at or below it (rank ceil(pct/100 * n)).
 * Returns 0 for an empty sample.
 */
inline double
nearestRank(std::vector<double> samples, double pct)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    auto rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
    rank = std::clamp<size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

/** Median (mean of the middle pair for an even count); 0 when empty. */
inline double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/** The modelled outputs of one inference that must match a reference. */
inline serve::InferenceDigest
digestOf(const gcn::InferenceResult &r)
{
    serve::InferenceDigest d;
    d.cycles = r.totalCycles;
    d.dramBytes = r.totalTrafficBytes();
    d.macOps = r.macOps;
    d.cacheHits = r.cacheHits;
    d.cacheMisses = r.cacheMisses;
    return d;
}

inline bool
sameDigest(const serve::InferenceDigest &a, const serve::InferenceDigest &b)
{
    return a.cycles == b.cycles && a.dramBytes == b.dramBytes &&
           a.macOps == b.macOps && a.cacheHits == b.cacheHits &&
           a.cacheMisses == b.cacheMisses;
}

/** One serve_zoo request shape, before its feature seed is drawn. */
struct RequestShape
{
    std::string dataset;
    std::string model;
    std::string engine;
    uint32_t depth = 2;
};

/** serve_zoo's universe: datasets x models x engines x depths. */
inline std::vector<RequestShape>
serveShapes()
{
    std::vector<RequestShape> shapes;
    for (const char *d : {"cora", "citeseer", "pubmed"})
        for (const char *m : {"gcn", "sage-mean", "gin", "gat"})
            for (const char *e : {"grow", "gcnax"})
                for (uint32_t depth : {2u, 3u})
                    shapes.push_back({d, m, e, depth});
    return shapes;
}

/**
 * Round @p round of the seeded serve_zoo stream: every shape once, in
 * an order shuffled from (@p seed, @p round), each with a fresh
 * feature seed from the same generator. Equal arguments give an equal
 * round; the mix of shapes is the same in every round, so round times
 * compare.
 */
inline std::vector<serve::ServeRequest>
requestRound(uint64_t seed, uint64_t round)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + round + 1);
    std::vector<RequestShape> shapes = serveShapes();
    rng.shuffle(shapes);
    std::vector<serve::ServeRequest> reqs;
    reqs.reserve(shapes.size());
    for (size_t i = 0; i < shapes.size(); ++i) {
        serve::ServeRequest req;
        req.id = round * shapes.size() + i;
        req.tenant = "bench";
        req.dataset = shapes[i].dataset;
        req.model = shapes[i].model;
        req.engine = shapes[i].engine;
        req.depth = shapes[i].depth;
        req.tier = graph::ScaleTier::Mini;
        req.seed = rng.next();
        reqs.push_back(std::move(req));
    }
    return reqs;
}

/** Reference key of one serve_zoo request. */
inline std::string
requestKey(uint64_t seed, const serve::ServeRequest &req)
{
    std::ostringstream key;
    key << "seed=" << seed << ",id=" << req.id << "," << req.dataset << ","
        << req.model << "," << req.engine << ",depth=" << req.depth
        << ",fseed=" << req.seed;
    return key.str();
}

/**
 * Stored reference digests, one `key cycles dram_bytes macs hits
 * misses` line each. A missing file is an empty table.
 */
using ReferenceTable = std::map<std::string, serve::InferenceDigest>;

inline ReferenceTable
loadReferences(const std::string &path)
{
    ReferenceTable table;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key;
        serve::InferenceDigest d;
        if (fields >> key >> d.cycles >> d.dramBytes >> d.macOps >>
            d.cacheHits >> d.cacheMisses)
            table[key] = d;
    }
    return table;
}

inline bool
saveReferences(const std::string &path, const ReferenceTable &table)
{
    std::ofstream out(path, std::ios::trunc);
    out << "# key cycles dram_bytes macs hdn_hits hdn_misses\n";
    for (const auto &[key, d] : table)
        out << key << " " << d.cycles << " " << d.dramBytes << " "
            << d.macOps << " " << d.cacheHits << " " << d.cacheMisses
            << "\n";
    return static_cast<bool>(out);
}

/** Named metrics in insertion order, rendered as the result line. */
class MetricSink
{
  public:
    /** Add a metric; a non-finite value reads 0. */
    void set(const std::string &name, double value, const std::string &unit)
    {
        metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    }

    /** `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` */
    std::string resultLine(bool correct, uint64_t attempted,
                           uint64_t failed) const
    {
        std::ostringstream out;
        out << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
        for (size_t i = 0; i < metrics_.size(); ++i) {
            const auto &m = metrics_[i];
            out << (i ? ", " : "") << "\"" << report::jsonEscape(m.name)
                << "\": {\"value\": " << report::jsonNumber(m.value)
                << ", \"unit\": \"" << report::jsonEscape(m.unit) << "\"}";
        }
        out << "}}";
        return out.str();
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
};

} // namespace perfbench
