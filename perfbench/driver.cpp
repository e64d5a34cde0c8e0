/**
 * @file
 * perfbench_driver: the in-process half of the simulator benchmark.
 *
 * It runs one workload against the simulator's public API, times it
 * from the outside, checks every modelled output, and prints one JSON
 * result line as the last line of stdout (run.py builds and launches
 * it; README.md in this directory documents the workloads and
 * metrics).
 *
 *   perfbench_driver --workload grow_mini|smoke_tiny|serve_zoo
 *                    --seed N --seconds S --trace 0|1
 *                    --suite-bin PATH --ref-dir DIR --out-dir DIR
 *                    [--capture 1]
 *   perfbench_driver --selftest
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones. --capture 1 records the reference outputs of the given seed
 * into --ref-dir instead of checking against them.
 */
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/grow.hpp"
#include "driver/engine_factory.hpp"
#include "driver/workload_cache.hpp"
#include "gcn/runner.hpp"
#include "report/diff.hpp"
#include "report/json.hpp"
#include "serve/executor.hpp"
#include "util/wallclock.hpp"

extern char **environ;

using namespace grow;
using perfbench::MetricSink;
using perfbench::ReferenceTable;

namespace {

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    bool capture = false;
    bool selftest = false;
    std::string suiteBin;
    std::string refDir;
    std::string outDir;
};

/** Operation accounting plus the metrics of one run. */
struct Run
{
    Args args;
    MetricSink metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Self-checks that are not operations (trace sums, wall bound). */
    bool selfChecksOk = true;

    void op(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
    void check(bool ok, const std::string &what)
    {
        if (!ok) {
            selfChecksOk = false;
            std::cerr << "perfbench: self-check failed: " << what << "\n";
        }
    }
};

double
seconds(const util::WallClock &clock)
{
    return clock.elapsedMs() / 1000.0;
}

double
peakRssMb(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---------------------------------------------------------------------
// Per-layer accounting of traced replays.
// ---------------------------------------------------------------------

const char *
opName(gcn::PhaseOp op)
{
    switch (op) {
      case gcn::PhaseOp::Combination: return "combination";
      case gcn::PhaseOp::Aggregation: return "aggregation";
      case gcn::PhaseOp::AttentionScore: return "attention";
      case gcn::PhaseOp::HaloExchange: return "halo";
    }
    return "?";
}

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 2;

constexpr const char *kOps[] = {"combination", "aggregation", "attention"};
constexpr uint32_t kTracedLayers = 3; ///< serve_zoo's deepest model

struct LayerTrace
{
    double layerDataMs = 0.0; ///< WorkloadCache::workload on a hit
    double planMs = 0.0;      ///< gcn::buildPhasePlan
    double gcnaxMs = 0.0;     ///< accel: GCNAX run() calls
    std::map<std::string, double> coreMs;     ///< GrowSim::run per op
    std::map<std::string, double> coreLayerMs; ///< "l<k>.<op>"
    std::map<std::string, uint64_t> macs, cycles, dramBytes, hits, misses;
    uint64_t ldnStalls = 0, lhsIdStalls = 0, windowStalls = 0;

    double totalMs() const
    {
        double ms = layerDataMs + planMs + gcnaxMs;
        for (const auto &[op, v] : coreMs)
            ms += v;
        return ms;
    }
};

/**
 * Re-run one inference through the public calls gcn::runInference
 * composes -- buildPhasePlan, then AcceleratorSim::run per planned
 * phase on one engine, as executePlan's serial path does -- timing
 * each call. Returns the summed modelled outputs.
 */
serve::InferenceDigest
replayInference(accel::AcceleratorSim &engine, const gcn::GcnWorkload &wl,
                gcn::RunOptions opts, LayerTrace &tr)
{
    opts.mapping = std::make_shared<mapping::EngineMapping>(engine.mapping());
    util::WallClock planClock;
    const gcn::PhasePlan plan = gcn::buildPhasePlan(wl, opts);
    tr.planMs += planClock.elapsedMs();

    auto *grow = dynamic_cast<core::GrowSim *>(&engine);
    serve::InferenceDigest d;
    for (const gcn::PlannedPhase &step : plan) {
        util::WallClock clock;
        accel::PhaseResult r = engine.run(step.problem, opts.sim);
        const double ms = clock.elapsedMs();
        d.cycles += r.cycles;
        d.macOps += r.macOps;
        d.dramBytes += r.totalTrafficBytes();
        if (step.op != gcn::PhaseOp::Combination) {
            d.cacheHits += r.cacheHits;
            d.cacheMisses += r.cacheMisses;
        }
        if (!grow) {
            if (engine.name() == "gcnax")
                tr.gcnaxMs += ms;
            continue;
        }
        const std::string op = opName(step.op);
        tr.coreMs[op] += ms;
        tr.coreLayerMs["l" + std::to_string(step.layer) + "." + op] += ms;
        tr.macs[op] += r.macOps;
        tr.cycles[op] += r.cycles;
        tr.dramBytes[op] += r.totalTrafficBytes();
        tr.hits[op] += r.cacheHits;
        tr.misses[op] += r.cacheMisses;
        for (const core::RowEngineStats &s : grow->lastEngineStats()) {
            tr.ldnStalls += s.ldnStalls;
            tr.lhsIdStalls += s.lhsIdStalls;
            tr.windowStalls += s.windowStalls;
        }
    }
    return d;
}

/** The per-layer metric set; layers a workload bypasses read 0. */
struct LayerMetrics
{
    gcn::GraphArtifacts::BuildProfile build; ///< summed stage times
    double cacheBuilds = 0, cacheHits = 0, cacheHitRatio = 0;
    LayerTrace tr;      ///< summed over @p units passes
    double units = 1.0; ///< passes the trace sums cover
    std::map<std::string, double> benchMs; ///< bench_suite profile=1
    double untracedWallS = 0, tracedWallS = 0;
};

void
addBuild(gcn::GraphArtifacts::BuildProfile &into,
         const gcn::GraphArtifacts::BuildProfile &p)
{
    into.synthMs += p.synthMs;
    into.normalizeMs += p.normalizeMs;
    into.partitionMs += p.partitionMs;
    into.relabelMs += p.relabelMs;
    into.hdnMs += p.hdnMs;
    into.totalMs += p.totalMs;
}

void
setCacheMetrics(LayerMetrics &lm, const driver::WorkloadCache &cache)
{
    const auto snap = cache.snapshot();
    lm.build = {};
    lm.cacheBuilds = static_cast<double>(snap.counters.builds);
    lm.cacheHits = static_cast<double>(snap.reuses());
    const double lookups = lm.cacheBuilds + lm.cacheHits;
    lm.cacheHitRatio = lookups > 0 ? lm.cacheHits / lookups : 0.0;
    for (const auto &[name, p] : cache.buildLog())
        addBuild(lm.build, p);
}

void
emitLayerMetrics(Run &run, const LayerMetrics &lm)
{
    MetricSink &m = run.metrics;
    const double u = lm.units > 0 ? lm.units : 1.0;
    m.set("graph.synth_ms", lm.build.synthMs, "ms");
    m.set("graph.normalize_ms", lm.build.normalizeMs, "ms");
    m.set("partition.partition_ms", lm.build.partitionMs, "ms");
    m.set("partition.relabel_ms", lm.build.relabelMs, "ms");
    m.set("partition.hdn_ms", lm.build.hdnMs, "ms");
    m.set("driver.cache_builds", lm.cacheBuilds, "count");
    m.set("driver.cache_hits", lm.cacheHits, "count");
    m.set("driver.cache_hit_ratio", lm.cacheHitRatio, "ratio");
    const LayerTrace &tr = lm.tr;
    m.set("gcn.layer_data_ms", tr.layerDataMs / u, "ms");
    m.set("gcn.plan_ms", tr.planMs / u, "ms");
    auto get = [](const auto &map, const std::string &key) {
        auto it = map.find(key);
        return it == map.end() ? 0.0 : static_cast<double>(it->second);
    };
    for (const char *op : kOps)
        m.set(std::string("core.") + op + "_ms", get(tr.coreMs, op) / u, "ms");
    for (uint32_t l = 0; l < kTracedLayers; ++l)
        for (const char *op : kOps) {
            const std::string key = "l" + std::to_string(l) + "." + op;
            m.set("core." + key + "_ms", get(tr.coreLayerMs, key) / u, "ms");
        }
    for (const char *op : kOps) {
        const double macs = get(tr.macs, op);
        m.set(std::string("core.") + op + "_ns_per_mac",
              macs > 0 ? get(tr.coreMs, op) * 1e6 / macs : 0.0, "ns");
    }
    for (const char *op : kOps)
        m.set(std::string("core.") + op + "_cycles", get(tr.cycles, op) / u,
              "cycles");
    m.set("core.ldn_stalls", tr.ldnStalls / u, "count");
    m.set("core.lhs_id_stalls", tr.lhsIdStalls / u, "count");
    m.set("core.window_stalls", tr.windowStalls / u, "count");
    m.set("accel.gcnax_ms", tr.gcnaxMs / u, "ms");
    for (const char *op : {"aggregation", "attention"}) {
        const double h = get(tr.hits, op), mi = get(tr.misses, op);
        m.set(std::string("mem.") + op + "_hdn_hit_ratio",
              h + mi > 0 ? h / (h + mi) : 0.0, "ratio");
    }
    for (const char *op : kOps)
        m.set(std::string("mem.") + op + "_dram_bytes",
              get(tr.dramBytes, op) / u, "bytes");
    for (const char *name :
         {"bench.table1_datasets_ms", "bench.fig03_density_ms",
          "bench.fig17_hdn_hit_rate_ms", "bench.fig18_memory_traffic_ms",
          "bench.fig20_speedup_ms", "bench.build_ms", "bench.sim_ms.grow",
          "bench.sim_ms.grow-nogp", "bench.sim_ms.gcnax"})
        m.set(name, get(lm.benchMs, name), "ms");
    m.set("trace.untraced_wall_s", lm.untracedWallS, "s");
    m.set("trace.wall_s", lm.tracedWallS, "s");
    m.set("trace.overhead_s", lm.tracedWallS - lm.untracedWallS, "s");
    std::cout << "tracing overhead: " << lm.tracedWallS - lm.untracedWallS
              << " s per unit (traced " << lm.tracedWallS << " s, untraced "
              << lm.untracedWallS << " s)\n";
}

/** The op-latency end-to-end metrics shared by every workload. */
void
emitEndToEnd(Run &run, double setupS, const std::vector<double> &unitS,
             const std::vector<double> &opMs, double timedS, double macs,
             double rssMb)
{
    MetricSink &m = run.metrics;
    m.set("wall_s", perfbench::median(unitS), "s");
    m.set("setup_s", setupS, "s");
    m.set("peak_rss_mb", rssMb, "MB");
    m.set("sim_macs_per_s", timedS > 0 ? macs / timedS : 0.0, "1/s");
    m.set("req_p50_ms", perfbench::nearestRank(opMs, 50), "ms");
    m.set("req_p95_ms", perfbench::nearestRank(opMs, 95), "ms");
    m.set("req_per_s",
          timedS > 0 ? static_cast<double>(opMs.size()) / timedS : 0.0,
          "1/s");
    std::cout << "samples: " << unitS.size() << " units, " << opMs.size()
              << " operations in " << timedS << " s\n";
}

/** Whether another unit of about @p unitS fits in the time budget. */
bool
anotherUnit(size_t done, size_t minUnits, double elapsedS, double unitS,
            double budgetS)
{
    return done < minUnits || elapsedS + unitS <= budgetS;
}

/** Phase-sum invariant of one untraced InferenceResult. */
bool
phasesSumToTotals(const gcn::InferenceResult &r)
{
    uint64_t cycles = 0, macs = 0, bytes = 0;
    for (const auto &pm : r.phases) {
        cycles += pm.result.cycles;
        macs += pm.result.macOps;
        bytes += pm.result.totalTrafficBytes();
    }
    return cycles == r.totalCycles && macs == r.macOps &&
           bytes == r.totalTrafficBytes();
}

// ---------------------------------------------------------------------
// grow_mini: 2-layer GCN on GROW (partitioned), mini tier, threads=1.
// ---------------------------------------------------------------------

int
runGrowMini(Run &run)
{
    const Args &a = run.args;
    const std::vector<std::string> names = {"yelp", "reddit", "amazon"};
    const auto specs = graph::datasetsByNames(names);
    const driver::EngineSpec engine = driver::engineByKey("grow");
    gcn::WorkloadConfig wc;
    wc.tier = graph::ScaleTier::Mini;
    wc.model = gcn::ModelKind::Gcn;
    wc.numLayers = 2;
    wc.seed = a.seed;
    gcn::RunOptions opts;
    opts.usePartitioning = engine.usePartitioning;
    opts.sim.threads = 1;

    // Set-up: the artefact builds and the seeded layer data, twice on
    // fresh caches.
    std::unique_ptr<driver::WorkloadCache> cache;
    std::vector<gcn::GcnWorkload> workloads;
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        workloads.clear();
        cache = std::make_unique<driver::WorkloadCache>();
        cache->setBuildThreads(1);
        util::WallClock clock;
        for (const auto &spec : specs)
            workloads.push_back(cache->workload(spec, wc));
        setups.push_back(seconds(clock));
    }

    const std::string refPath = a.refDir + "/grow_mini.ref";
    ReferenceTable refs = a.capture ? ReferenceTable{}
                                    : perfbench::loadReferences(refPath);
    auto key = [&](const std::string &dataset) {
        return "seed=" + std::to_string(a.seed) + ",dataset=" + dataset;
    };

    auto sim = engine.make();
    std::map<std::string, serve::InferenceDigest> firstDigest;
    std::vector<double> passS, opMs;
    double macs = 0;
    const double budget = a.trace ? 0.0 : a.seconds;
    const size_t minPasses = a.trace ? 1 : 3;
    util::WallClock timed;
    while (anotherUnit(passS.size(), minPasses, seconds(timed),
                       perfbench::median(passS), budget)) {
        util::WallClock pass;
        for (size_t i = 0; i < specs.size(); ++i) {
            const graph::DatasetSpec &spec = specs[i];
            bool ok = true;
            try {
                const gcn::InferenceResult r =
                    gcn::runInference(*sim, workloads[i], opts);
                const serve::InferenceDigest d = perfbench::digestOf(r);
                macs += static_cast<double>(d.macOps);
                ok = phasesSumToTotals(r);
                auto first = firstDigest.emplace(spec.name, d).first;
                ok = ok && perfbench::sameDigest(first->second, d);
                auto ref = refs.find(key(spec.name));
                if (a.capture)
                    refs[key(spec.name)] = d;
                else if (ref != refs.end())
                    ok = ok && perfbench::sameDigest(ref->second, d);
            } catch (const std::exception &e) {
                std::cerr << "grow_mini " << spec.name << ": " << e.what()
                          << "\n";
                ok = false;
            }
            run.op(ok);
        }
        passS.push_back(seconds(pass));
        opMs.push_back(passS.back() * 1000.0);
    }
    const double timedS = seconds(timed);

    if (a.capture && !perfbench::saveReferences(refPath, refs))
        run.check(false, "cannot write " + refPath);

    if (!a.trace) {
        emitEndToEnd(run, perfbench::median(setups), passS, opMs, timedS,
                     macs, peakRssMb(RUSAGE_SELF));
        return 0;
    }

    // Traced: one layer-data build per dataset (a cache hit, timed
    // outside the pass as it is set-up here), then a replay of as many
    // passes, phase by phase.
    LayerMetrics lm;
    for (const auto &spec : specs) {
        util::WallClock clock;
        cache->workload(spec, wc);
        lm.tr.layerDataMs += clock.elapsedMs();
    }
    std::vector<double> tracedS;
    double tracedTotalMs = lm.tr.layerDataMs;
    for (size_t p = 0; p < passS.size(); ++p) {
        util::WallClock pass;
        for (size_t i = 0; i < specs.size(); ++i) {
            const std::string &name = specs[i].name;
            bool ok = false;
            try {
                const serve::InferenceDigest d =
                    replayInference(*sim, workloads[i], opts, lm.tr);
                ok = perfbench::sameDigest(d, firstDigest.at(name));
                run.check(ok, "grow_mini " + name +
                                  ": traced phase sums differ from the "
                                  "InferenceResult totals");
            } catch (const std::exception &e) {
                std::cerr << "grow_mini traced " << name << ": " << e.what()
                          << "\n";
            }
            run.op(ok);
        }
        tracedS.push_back(seconds(pass));
        tracedTotalMs += tracedS.back() * 1000.0;
    }
    lm.units = static_cast<double>(tracedS.size());
    lm.untracedWallS = perfbench::median(passS);
    lm.tracedWallS = perfbench::median(tracedS);
    run.check(lm.tr.totalMs() <= tracedTotalMs,
              "summed per-layer ms exceeds the traced wall time");
    setCacheMetrics(lm, *cache);
    emitLayerMetrics(run, lm);
    return 0;
}

// ---------------------------------------------------------------------
// serve_zoo: closed loop, one client, Executor::run on a warm cache.
// ---------------------------------------------------------------------

/** The workload config Executor::run resolves @p req under. */
gcn::WorkloadConfig
configOf(const serve::ServeRequest &req)
{
    gcn::WorkloadConfig wc;
    wc.tier = req.tier;
    wc.model = gcn::modelKindFromString(req.model);
    wc.numLayers = req.depth;
    wc.seed = req.seed;
    return wc;
}

/** A direct runInference of @p req's tuple (the consistency oracle). */
serve::InferenceDigest
directDigest(driver::WorkloadCache &cache, const serve::ServeRequest &req)
{
    const driver::EngineSpec engine = driver::engineByKey(req.engine);
    const gcn::GcnWorkload wl =
        cache.workload(graph::datasetByName(req.dataset), configOf(req));
    gcn::RunOptions opts;
    opts.usePartitioning = engine.usePartitioning;
    auto sim = engine.make();
    return perfbench::digestOf(gcn::runInference(*sim, wl, opts));
}

int
runServeZoo(Run &run)
{
    const Args &a = run.args;
    const auto specs = graph::datasetsByNames({"cora", "citeseer", "pubmed"});

    // Set-up: warm a fresh cache with one request per (dataset, model).
    std::unique_ptr<serve::Executor> executor;
    std::unique_ptr<driver::WorkloadCache> cache;
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        executor.reset();
        cache = std::make_unique<driver::WorkloadCache>();
        executor = std::make_unique<serve::Executor>(*cache, specs, 1);
        util::WallClock clock;
        for (const auto &spec : specs)
            for (const char *model : {"gcn", "sage-mean", "gin", "gat"}) {
                serve::ServeRequest req;
                req.dataset = spec.name;
                req.model = model;
                const serve::ExecResult r = executor->run(req);
                run.check(r.ok, "warm-up " + spec.name + "/" + model +
                                    ": " + r.error);
            }
        setups.push_back(seconds(clock));
    }

    const std::string refPath = a.refDir + "/serve_zoo.ref";
    ReferenceTable refs = a.capture ? ReferenceTable{}
                                    : perfbench::loadReferences(refPath);
    struct Served
    {
        serve::ServeRequest req;
        serve::InferenceDigest digest;
        bool ok = false;
        bool checked = false; ///< compared with a stored reference
    };
    std::vector<Served> served;
    std::vector<double> roundS, opMs;
    double macs = 0;
    // Untraced runs hold at least 5 rounds (240 requests), so at
    // least 10 latencies lie beyond the nearest-rank p95.
    const double budget = a.trace ? 0.0 : a.seconds;
    const size_t minRounds = a.trace ? 2 : 5;
    util::WallClock timed;
    for (uint64_t round = 0;
         anotherUnit(roundS.size(), minRounds, seconds(timed),
                     perfbench::median(roundS), budget);
         ++round) {
        util::WallClock clock;
        for (serve::ServeRequest &req : perfbench::requestRound(a.seed, round)) {
            util::WallClock reqClock;
            const serve::ExecResult r = executor->run(req);
            opMs.push_back(reqClock.elapsedMs());
            Served s{req, r.digest, r.ok, false};
            if (!r.ok)
                std::cerr << "serve_zoo request " << req.id << ": " << r.error
                          << "\n";
            macs += static_cast<double>(r.digest.macOps);
            const std::string key = perfbench::requestKey(a.seed, req);
            if (a.capture && r.ok)
                refs[key] = r.digest;
            else if (auto ref = refs.find(key); ref != refs.end()) {
                s.ok = s.ok && perfbench::sameDigest(ref->second, r.digest);
                s.checked = true;
            }
            served.push_back(std::move(s));
        }
        roundS.push_back(seconds(clock));
    }
    const double timedS = seconds(timed);

    if (a.capture && !perfbench::saveReferences(refPath, refs))
        run.check(false, "cannot write " + refPath);

    // First-round requests without a stored reference (any seed but
    // the captured one): the digest must equal a direct
    // gcn::runInference of the same tuple (untimed).
    if (!a.capture && !a.trace) {
        const size_t perRound = perfbench::serveShapes().size();
        for (size_t i = 0; i < std::min(served.size(), perRound); ++i) {
            Served &s = served[i];
            if (s.ok && !s.checked &&
                !perfbench::sameDigest(directDigest(*cache, s.req),
                                       s.digest)) {
                std::cerr << "serve_zoo request " << s.req.id
                          << ": digest differs from a direct inference\n";
                s.ok = false;
            }
        }
    }

    for (const Served &s : served)
        run.op(s.ok);
    if (!a.trace) {
        emitEndToEnd(run, perfbench::median(setups), roundS, opMs, timedS,
                     macs, peakRssMb(RUSAGE_SELF));
        return 0;
    }

    // Traced replay of the same requests through the runner's calls.
    LayerMetrics lm;
    std::vector<double> tracedS;
    double tracedTotalMs = 0;
    const size_t perRound = perfbench::serveShapes().size();
    for (size_t i = 0; i < served.size(); i += perRound) {
        util::WallClock clock;
        for (size_t j = i; j < std::min(served.size(), i + perRound); ++j) {
            const Served &s = served[j];
            bool ok = false;
            try {
                const driver::EngineSpec engine =
                    driver::engineByKey(s.req.engine);
                util::WallClock wlClock;
                const gcn::GcnWorkload wl = cache->workload(
                    graph::datasetByName(s.req.dataset), configOf(s.req));
                lm.tr.layerDataMs += wlClock.elapsedMs();
                gcn::RunOptions opts;
                opts.usePartitioning = engine.usePartitioning;
                auto sim = engine.make();
                const serve::InferenceDigest d =
                    replayInference(*sim, wl, opts, lm.tr);
                ok = perfbench::sameDigest(d, s.digest);
                run.check(ok, "serve_zoo request " +
                                  std::to_string(s.req.id) +
                                  ": traced phase sums differ from the "
                                  "served digest");
            } catch (const std::exception &e) {
                std::cerr << "serve_zoo traced " << s.req.id << ": "
                          << e.what() << "\n";
            }
            run.op(ok);
        }
        tracedS.push_back(seconds(clock));
        tracedTotalMs += tracedS.back() * 1000.0;
    }
    lm.units = static_cast<double>(tracedS.size());
    lm.untracedWallS = perfbench::median(roundS);
    lm.tracedWallS = perfbench::median(tracedS);
    run.check(lm.tr.totalMs() <= tracedTotalMs,
              "summed per-layer ms exceeds the traced wall time");
    setCacheMetrics(lm, *cache);
    emitLayerMetrics(run, lm);
    return 0;
}

// ---------------------------------------------------------------------
// smoke_tiny: `bench_suite suite=smoke scale=tiny` as one child.
// ---------------------------------------------------------------------

constexpr const char *kSmokeThreads = "threads=1";

struct ChildResult
{
    bool exitedOk = false;
    double wallS = 0.0;
    double maxRssMb = 0.0;
};

/** Spawn @p argv with stdout discarded and wait for it to end. */
ChildResult
runChild(const std::vector<std::string> &argv)
{
    std::vector<char *> cargv;
    for (const auto &s : argv)
        cargv.push_back(const_cast<char *>(s.c_str()));
    cargv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    ChildResult res;
    util::WallClock clock;
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, cargv[0], &actions, nullptr,
                               cargv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        std::cerr << "cannot start " << argv[0] << ": " << std::strerror(rc)
                  << "\n";
        return res;
    }
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    res.wallS = seconds(clock);
    res.exitedOk = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    res.maxRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return res;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** Parse and schema-check a suite report; false on any problem. */
bool
loadReport(const std::string &path, report::JsonValue &root)
{
    std::string text, error;
    if (!readFile(path, text) || !report::parseJson(text, root, &error)) {
        std::cerr << "smoke_tiny: unreadable report " << path << " " << error
                  << "\n";
        return false;
    }
    std::vector<std::string> errors;
    if (!report::validateReportJson(root, errors)) {
        std::cerr << "smoke_tiny: report fails validation ("
                  << errors.size() << " problems, first: " << errors.front()
                  << ")\n";
        return false;
    }
    return true;
}

/**
 * Zero-tolerance diff of the cycles and bytes records against the
 * reference; every gated reference record must be present.
 */
bool
matchesReference(const report::JsonValue &ref, const report::JsonValue &cur)
{
    report::DiffOptions opts;
    opts.relTolerance = 0.0;
    opts.gateUnits = {"cycles", "bytes"};
    const report::DiffResult diff = report::diffReports(ref, cur, opts);
    size_t missing = 0;
    std::set<std::string> lost(diff.onlyBase.begin(), diff.onlyBase.end());
    for (const auto &rec : ref.find("records")->arr) {
        const report::JsonValue *unit = rec.find("unit");
        if (unit && unit->isString() &&
            (unit->str == "cycles" || unit->str == "bytes") &&
            lost.count(report::recordJoinKey(rec)))
            ++missing;
    }
    if (diff.regressions || missing)
        std::cerr << "smoke_tiny: " << diff.regressions
                  << " modelled records differ, " << missing
                  << " missing\n"
                  << report::formatDiff(diff, opts, 10);
    return diff.regressions == 0 && missing == 0;
}

/** Sum the profile=1 families of one suite report into @p lm. */
void
readSuiteProfile(const report::JsonValue &root, LayerMetrics &lm)
{
    std::set<std::string> builtRows;
    for (const auto &rec : root.find("records")->arr) {
        auto text = [&](const char *k) {
            const report::JsonValue *v = rec.find(k);
            return v && v->isString() ? v->str : std::string();
        };
        const report::JsonValue *val = rec.find("value");
        if (!val || !val->isNumber())
            continue;
        const double v = val->number;
        const std::string table = text("table"), metric = text("metric");
        const std::string bench = text("bench"), engine = text("engine");
        if (table == "build_phase") {
            builtRows.insert(bench + "|" + text("dataset"));
            if (metric == "synth_ms") lm.build.synthMs += v;
            if (metric == "normalize_ms") lm.build.normalizeMs += v;
            if (metric == "partition_ms") lm.build.partitionMs += v;
            if (metric == "relabel_ms") lm.build.relabelMs += v;
            if (metric == "hdn_ms") lm.build.hdnMs += v;
            if (metric == "total_ms") lm.benchMs["bench.build_ms"] += v;
        } else if (table == "sim_speed_bench") {
            lm.benchMs["bench." + bench + "_ms"] += v;
        } else if (table == "sim_speed") {
            if (metric == "wall_ms")
                lm.benchMs["bench.sim_ms." + engine] += v;
            if (metric == "wall_ms" && engine == "gcnax")
                lm.tr.gcnaxMs += v;
            if (engine.rfind("grow", 0) == 0 && metric.size() > 3 &&
                metric.compare(metric.size() - 3, 3, "_ms") == 0 &&
                metric != "wall_ms")
                lm.tr.coreMs[metric.substr(0, metric.size() - 3)] += v;
        }
    }
    lm.cacheBuilds = static_cast<double>(builtRows.size());
}

/** Modelled MACs of one suite run, recorded beside the reference. */
double
loadSuiteMacs(const std::string &path)
{
    std::ifstream in(path);
    double macs = 0;
    in >> macs;
    return macs;
}

/**
 * Capture-time helper: the modelled MACs one suite run simulates, from
 * a profile=1 report's sim_speed rows (one row per inference a bench
 * ran) and one in-process inference per distinct (dataset, engine).
 */
double
suiteMacs(const report::JsonValue &profiled)
{
    std::map<std::pair<std::string, std::string>, uint64_t> rows;
    for (const auto &rec : profiled.find("records")->arr) {
        const report::JsonValue *table = rec.find("table");
        const report::JsonValue *metric = rec.find("metric");
        if (table && table->str == "sim_speed" && metric &&
            metric->str == "wall_ms")
            ++rows[{rec.find("dataset")->str, rec.find("engine")->str}];
    }
    driver::WorkloadCache cache;
    double macs = 0;
    for (const auto &[pair, count] : rows) {
        const driver::EngineSpec engine = driver::engineByKey(pair.second);
        gcn::WorkloadConfig wc;
        wc.tier = graph::ScaleTier::Tiny;
        const gcn::GcnWorkload wl =
            cache.workload(graph::datasetByName(pair.first), wc);
        gcn::RunOptions opts;
        opts.usePartitioning = engine.usePartitioning;
        auto sim = engine.make();
        macs += static_cast<double>(count) *
                static_cast<double>(gcn::runInference(*sim, wl, opts).macOps);
    }
    return macs;
}

int
runSmokeTiny(Run &run)
{
    const Args &a = run.args;
    std::filesystem::create_directories(a.outDir);
    const std::string out = a.outDir + "/smoke_tiny.json";
    const std::string refPath = a.refDir + "/smoke_tiny.json";
    const std::string macsPath = a.refDir + "/smoke_tiny.macs";
    auto suiteArgs = [&](bool profile) {
        return std::vector<std::string>{
            a.suiteBin, "suite=smoke", "scale=tiny", kSmokeThreads,
            std::string("profile=") + (profile ? "1" : "0"),
            "format=json", "out=" + out};
    };

    // Set-up: the suite's own start-up (process spawn + bench
    // registry), 21 times -- it takes milliseconds, so the median needs
    // many samples. The suite builds its graphs inside every run, so no
    // build lands here.
    std::vector<double> setups;
    for (int rep = 0; rep < 21; ++rep) {
        const ChildResult c = runChild({a.suiteBin, "list=1"});
        run.check(c.exitedOk, "bench_suite list=1 failed");
        setups.push_back(c.wallS);
    }
    report::JsonValue ref;
    const bool haveRef = !a.capture && loadReport(refPath, ref);
    run.check(haveRef || a.capture, "no smoke_tiny reference at " + refPath);
    const double macsPerRun = loadSuiteMacs(macsPath);
    run.check(macsPerRun > 0 || a.capture, "no suite MAC total at " + macsPath);

    std::vector<double> childS, opMs;
    double rss = 0;
    util::WallClock timed;
    const double budget = a.trace ? 0.0 : a.seconds;
    while (anotherUnit(childS.size(), 1, seconds(timed),
                       perfbench::median(childS), budget)) {
        std::filesystem::remove(out);
        const ChildResult c = runChild(suiteArgs(false));
        childS.push_back(c.wallS);
        opMs.push_back(c.wallS * 1000.0);
        rss = std::max(rss, c.maxRssMb);
        report::JsonValue cur;
        bool ok = c.exitedOk && loadReport(out, cur);
        if (a.capture && ok)
            std::filesystem::copy_file(
                out, refPath,
                std::filesystem::copy_options::overwrite_existing);
        else
            ok = ok && haveRef && matchesReference(ref, cur);
        run.op(ok);
    }
    const double timedS = seconds(timed);

    if (a.capture) {
        std::filesystem::remove(out);
        const ChildResult c = runChild(suiteArgs(true));
        report::JsonValue prof;
        run.check(c.exitedOk && loadReport(out, prof),
                  "profiled suite run failed");
        std::ofstream macsOut(macsPath, std::ios::trunc);
        macsOut << report::jsonNumber(suiteMacs(prof)) << "\n";
        return 0;
    }

    if (!a.trace) {
        emitEndToEnd(run, perfbench::median(setups), childS, opMs, timedS,
                     macsPerRun * static_cast<double>(childS.size()), rss);
        return 0;
    }

    // Traced: the same child once more with profile=1.
    LayerMetrics lm;
    std::filesystem::remove(out);
    const ChildResult c = runChild(suiteArgs(true));
    report::JsonValue prof;
    bool ok = c.exitedOk && loadReport(out, prof);
    ok = ok && haveRef && matchesReference(ref, prof);
    run.op(ok);
    if (ok)
        readSuiteProfile(prof, lm);
    lm.untracedWallS = perfbench::median(childS);
    lm.tracedWallS = c.wallS;
    double benchMs = 0;
    for (const auto &[name, ms] : lm.benchMs)
        if (name.rfind("bench.sim_ms.", 0) != 0 && name != "bench.build_ms")
            benchMs += ms;
    run.check(benchMs <= c.wallS * 1000.0,
              "summed bench ms exceeds the traced child's wall time");
    emitLayerMetrics(run, lm);
    return 0;
}

// ---------------------------------------------------------------------
// Self-test of the pieces in bench_util.hpp.
// ---------------------------------------------------------------------

int
selftest()
{
    int failures = 0;
    auto expect = [&](bool ok, const std::string &what) {
        if (!ok) {
            ++failures;
            std::cerr << "FAIL: " << what << "\n";
        }
    };
    using perfbench::nearestRank;
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(i);
    expect(nearestRank(hundred, 50) == 50, "p50 of 1..100 is 50");
    expect(nearestRank(hundred, 95) == 95, "p95 of 1..100 is 95");
    expect(nearestRank(hundred, 100) == 100, "p100 is the max");
    expect(nearestRank({7}, 95) == 7, "p95 of one sample");
    expect(nearestRank({1, 2, 3, 4}, 50) == 2, "p50 of 1..4 is 2");
    expect(nearestRank({1, 2, 3, 4, 5}, 95) == 5, "p95 of 1..5 is 5");
    expect(nearestRank({}, 50) == 0, "empty sample");
    expect(perfbench::median({3, 1, 2}) == 2, "median of 3");
    expect(perfbench::median({4, 1, 2, 3}) == 2.5, "median of 4");

    auto sig = [](const std::vector<serve::ServeRequest> &r) {
        std::string s;
        for (const auto &q : r)
            s += perfbench::requestKey(0, q) + ";";
        return s;
    };
    const auto a1 = perfbench::requestRound(5, 0);
    expect(sig(a1) == sig(perfbench::requestRound(5, 0)),
           "same seed and round give the same stream");
    expect(sig(a1) != sig(perfbench::requestRound(6, 0)),
           "another seed gives another stream");
    expect(sig(a1) != sig(perfbench::requestRound(5, 1)),
           "another round gives another stream");
    expect(a1.size() == perfbench::serveShapes().size(),
           "a round covers every shape once");
    std::set<std::string> shapes;
    for (const auto &q : a1)
        shapes.insert(q.dataset + q.model + q.engine +
                      std::to_string(q.depth));
    expect(shapes.size() == a1.size(), "shapes are distinct in a round");

    MetricSink sink;
    sink.set("wall_s", 1.5, "s");
    sink.set("bad", std::numeric_limits<double>::quiet_NaN(), "s");
    report::JsonValue line;
    expect(report::parseJson(sink.resultLine(true, 3, 1), line),
           "result line is JSON");
    const report::JsonValue *metrics = line.find("metrics");
    expect(metrics && metrics->obj.size() == 2 &&
               metrics->obj[0].second.find("value")->number == 1.5 &&
               metrics->obj[1].second.find("value")->number == 0.0,
           "metrics keep their values and a non-finite one reads 0");
    std::cout << (failures ? "selftest FAILED" : "selftest ok") << "\n";
    return failures ? 1 : 0;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--selftest") {
            a.selftest = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::cerr << "missing value for " << k << "\n";
            return false;
        }
        const std::string v = argv[++i];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::stoull(v);
        else if (k == "--seconds") a.seconds = std::stod(v);
        else if (k == "--trace") a.trace = v == "1";
        else if (k == "--capture") a.capture = v == "1";
        else if (k == "--suite-bin") a.suiteBin = v;
        else if (k == "--ref-dir") a.refDir = v;
        else if (k == "--out-dir") a.outDir = v;
        else {
            std::cerr << "unknown argument " << k << "\n";
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Run run;
    try {
        if (!parseArgs(argc, argv, run.args))
            return 2;
        if (run.args.selftest)
            return selftest();
        const std::string &w = run.args.workload;
        int rc = 2;
        if (w == "grow_mini")
            rc = runGrowMini(run);
        else if (w == "serve_zoo")
            rc = runServeZoo(run);
        else if (w == "smoke_tiny")
            rc = runSmokeTiny(run);
        else
            std::cerr << "unknown workload '" << w << "'\n";
        if (rc != 0)
            return rc;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    const bool correct = run.failed == 0 && run.selfChecksOk;
    std::cout << run.metrics.resultLine(correct, run.attempted, run.failed)
              << std::endl;
    return 0;
}
