#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <thread>

#include "util/logging.hpp"
#include "util/work_pool.hpp"

namespace grow::bench {

namespace {

std::map<std::string, BenchFn> &
mutableRegistry()
{
    static std::map<std::string, BenchFn> registry;
    return registry;
}

std::string &
mutableCurrentBench()
{
    static std::string name;
    return name;
}

/**
 * The process-scope memo every BenchContext borrows. Only the bench
 * thread touches it (sweep jobs read borrowed workloads and hand
 * their results back before it inserts them), and std::map nodes keep
 * every returned reference valid for the life of the process.
 */
struct Memo
{
    /** One artefact cache per `cachedir=` ("" = memory only). */
    std::map<std::string, driver::WorkloadCache> caches;
    std::map<WorkloadKey, gcn::GcnWorkload> workloads;
    std::map<std::pair<WorkloadKey, std::string>, gcn::InferenceResult>
        results;
};

/** Created by the first BenchContext, never at static init (so
 *  `bench_suite list=1` builds nothing), and never destroyed: freeing
 *  every cached workload at exit would only add to the process's wall
 *  time. */
Memo &
memo()
{
    static Memo *const m = new Memo;
    return *m;
}

} // namespace

WorkloadKey
WorkloadKey::of(const graph::DatasetSpec &spec,
                const gcn::WorkloadConfig &config)
{
    return {driver::ArtifactKey::of(spec, config.tier, config.plan),
            config.model,
            config.numLayers,
            config.sageFanout,
            config.ginEpsilon,
            config.functionalData,
            config.seed};
}

bool
WorkloadKey::operator<(const WorkloadKey &o) const
{
    auto tie = [](const WorkloadKey &k) {
        return std::tie(k.artifacts, k.model, k.depth, k.sageFanout,
                        k.ginEpsilon, k.functionalData, k.seed);
    };
    return tie(*this) < tie(o);
}

const std::map<std::string, BenchFn> &
benchRegistry()
{
    return mutableRegistry();
}

BenchRegistrar::BenchRegistrar(const char *name, BenchFn fn)
{
    auto [it, inserted] = mutableRegistry().emplace(name, fn);
    GROW_ASSERT(inserted,
                std::string("duplicate bench registration: ") + name);
}

const std::string &
currentBenchName()
{
    return mutableCurrentBench();
}

int
runBench(const std::string &name, BenchFn fn, int argc, char **argv)
{
    mutableCurrentBench() = name;
    int rc = 1;
    try {
        rc = fn(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "bench " << name << " failed: " << e.what() << "\n";
    }
    mutableCurrentBench().clear();
    return rc;
}

BenchContext::BenchContext(int argc, char **argv,
                           const std::string &default_scale,
                           const std::string &default_datasets,
                           const std::vector<std::string> &extra_keys)
    : args_(argc, argv)
{
    std::vector<std::string> known = {
        "scale", "datasets", "model",   "cachedir", "format",
        "out",   "threads",  "profile"};
    known.insert(known.end(), extra_keys.begin(), extra_keys.end());
    args_.requireKnown(known);

    tier_ = graph::tierFromString(args_.get("scale", default_scale));
    model_ = gcn::modelKindFromString(args_.get("model", "gcn"));
    // Default: one worker per core, like the sweeps always ran. An
    // explicit threads= bounds *every* level (sweep jobs, phase
    // fan-out, halo step); results are bit-identical either way.
    threads_ = args_.has("threads")
                   ? util::checkedThreadCount(args_.getInt("threads", 1))
                   : std::max(1u, std::thread::hardware_concurrency());
    profile_ = args_.getBool("profile", false);
    const std::string cachedir = args_.get("cachedir", "");
    cache_ = &memo().caches.try_emplace(cachedir, cachedir).first->second;
    // Cache misses build with this context's worker pool while it
    // runs; artefacts are bit-identical for every thread count (see
    // DESIGN.md).
    cache_->setBuildThreads(threads_);
    buildLogStart_ = cache_->buildLog().size();
    artifactHitsStart_ = cache_->stats().memoryHits;
    specs_ = graph::datasetsByNames(
        args_.getList("datasets", split(default_datasets, ',')));

    format_ = args_.get("format", "table");
    report::makeSink(format_); // reject bad formats before simulating
    out_ = args_.get("out", "");

    auto &meta = report_.meta();
    meta.bench = currentBenchName().empty() ? "bench" : currentBenchName();
    meta.revision = report::buildRevision();
    meta.scale = graph::tierName(tier_);
    meta.model = gcn::modelKindName(model_);
}

BenchContext::~BenchContext()
{
    try {
        if (profile_)
            emitSimSpeed();
        if (auto *collector = report::activeCollector())
            collector->add(std::move(report_));
        else
            report::emitReport(report_, format_, out_);
    } catch (const std::exception &e) {
        logError(std::string("report emission failed: ") + e.what());
    }
}

void
BenchContext::emitSimSpeed()
{
    // Every cached InferenceResult already carries its own host timing
    // (gcn::executePlan measures itself); this just declares it. The
    // values are nondeterministic, which is fine: sim-speed units
    // ("ms", "rows/s") are outside report_diff's default gate set and
    // only compare under an explicit loose tolerance override.
    const double wallMs = benchClock_.elapsedMs();
    if (!simulated_.empty()) {
        auto t = report_.table("sim_speed",
                               "Simulator speed (host wall-clock)");
        t.col("dataset", "dataset")
            .col("engine", "engine")
            .col("wall_ms", "wall ms", "ms")
            .col("combination_ms", "comb ms", "ms")
            .col("aggregation_ms", "agg ms", "ms")
            .col("attention_ms", "attn ms", "ms")
            .col("sim_rows", "sim rows", "rows")
            .col("rows_per_sec", "sim rows/s", "rows/s");
        for (const auto &[key, r] : simulated_) {
            const auto &[dataset, engine] = key;
            double comb = 0.0, agg = 0.0, attn = 0.0;
            for (const auto &pm : r.phases) {
                switch (pm.op) {
                  case gcn::PhaseOp::Combination:
                    comb += pm.hostMillis;
                    break;
                  case gcn::PhaseOp::Aggregation:
                    agg += pm.hostMillis;
                    break;
                  case gcn::PhaseOp::AttentionScore:
                    attn += pm.hostMillis;
                    break;
                  case gcn::PhaseOp::HaloExchange:
                    break;
                }
            }
            t.row({.dataset = dataset, .engine = engine})
                .add(report::textCell(dataset))
                .add(report::textCell(engine))
                .add(report::real(r.hostMillis, 3, "ms"))
                .add(report::real(comb, 3, "ms"))
                .add(report::real(agg, 3, "ms"))
                .add(report::real(attn, 3, "ms"))
                .add(report::count(r.simRows, "rows"))
                .add(report::real(
                    util::rowsPerSecond(r.simRows, r.hostMillis), 1,
                    "rows/s"));
        }

        // The same host time split by (layer, op), beside the simulated
        // cycles it bought. A table of its own, not more *_ms columns
        // of sim_speed, whose grow rows are summed per *_ms metric by
        // perfbench's smoke trace. Phases sharing a (layer, op) -- GIN's
        // two MLP combinations -- fold into one row.
        auto lt = report_.table("sim_speed_layer",
                                "Simulator speed per layer (host wall-clock)");
        lt.col("dataset", "dataset")
            .col("engine", "engine")
            .col("layer", "layer")
            .col("op", "op")
            .col("host_ms", "host ms", "ms")
            .col("cycles", "sim cycles", "cycles");
        for (const auto &[key, r] : simulated_) {
            const auto &[dataset, engine] = key;
            std::map<std::pair<uint32_t, gcn::PhaseOp>,
                     std::pair<double, Cycle>>
                split;
            for (const auto &pm : r.phases) {
                auto &[ms, cycles] = split[{pm.layer, pm.op}];
                ms += pm.hostMillis;
                cycles += pm.result.cycles;
            }
            std::map<gcn::PhaseOp, Cycle> rowCycles;
            for (const auto &[layerOp, v] : split) {
                const std::string layer = std::to_string(layerOp.first);
                const char *op = gcn::phaseOpName(layerOp.second);
                rowCycles[layerOp.second] += v.second;
                lt.row({.dataset = dataset,
                        .engine = engine,
                        .extra = {{"layer", layer}, {"op", op}}})
                    .add(report::textCell(dataset))
                    .add(report::textCell(engine))
                    .add(report::textCell(layer))
                    .add(report::textCell(op))
                    .add(report::real(v.first, 3, "ms"))
                    .add(report::count(v.second, "cycles"));
            }
            GROW_ASSERT(
                rowCycles[gcn::PhaseOp::Combination] ==
                        r.combinationCycles &&
                    rowCycles[gcn::PhaseOp::Aggregation] ==
                        r.aggregationCycles &&
                    rowCycles[gcn::PhaseOp::AttentionScore] ==
                        r.attentionCycles,
                "sim_speed_layer rows of " + dataset + " " + engine +
                    " do not sum to the inference's per-op cycles");
        }
    }
    // build_phase family: per-stage wall-clock of every bundle built
    // during this bench -- its slice of the shared cache's build log
    // (cache/disk hits record nothing). One row per dataset: a
    // sweep may build several bundle variants of one graph (one per
    // partition plan), but duplicate row keys would collide in the
    // record stream, so the first build represents the dataset.
    const auto buildLog = cache_->buildLog();
    std::map<std::string, gcn::GraphArtifacts::BuildProfile> built;
    for (size_t i = buildLogStart_; i < buildLog.size(); ++i)
        built.emplace(buildLog[i].first, buildLog[i].second);
    if (!built.empty()) {
        auto pt = report_.table("build_phase",
                                "Workload build (host wall-clock)");
        pt.col("dataset", "dataset")
            .col("threads", "threads")
            .col("synth_ms", "synth ms", "ms")
            .col("normalize_ms", "norm ms", "ms")
            .col("partition_ms", "part ms", "ms")
            .col("relabel_ms", "relabel ms", "ms")
            .col("hdn_ms", "hdn ms", "ms")
            .col("total_ms", "total ms", "ms")
            .col("edges_per_sec", "edges/s", "edges/s");
        for (const auto &[name, p] : built) {
            pt.row({.dataset = name})
                .add(report::textCell(name))
                .add(report::count(p.threads))
                .add(report::real(p.synthMs, 3, "ms"))
                .add(report::real(p.normalizeMs, 3, "ms"))
                .add(report::real(p.partitionMs, 3, "ms"))
                .add(report::real(p.relabelMs, 3, "ms"))
                .add(report::real(p.hdnMs, 3, "ms"))
                .add(report::real(p.totalMs, 3, "ms"))
                .add(report::real(p.arcsPerSec(), 1, "edges/s"));
        }
    }
    // Layer data (synthetic features, GIN operands, weights) per
    // (dataset, model, depth); repeated builds of one key sum. A table
    // of its own for the same reason as sim_speed_layer.
    if (!layerDataMs_.empty()) {
        auto dt = report_.table("layer_data", "Layer data (host wall-clock)");
        dt.col("dataset", "dataset")
            .col("model", "model")
            .col("depth", "depth")
            .col("host_ms", "host ms", "ms");
        for (const auto &[key, ms] : layerDataMs_) {
            const auto &[dataset, model, depth] = key;
            const std::string d = std::to_string(depth);
            dt.row({.dataset = dataset,
                    .extra = {{"model", model}, {"depth", d}}})
                .add(report::textCell(dataset))
                .add(report::textCell(model))
                .add(report::textCell(d))
                .add(report::real(ms, 3, "ms"));
        }
    }
    auto bt = report_.table("sim_speed_bench", "Bench wall-clock");
    bt.col("bench_wall_ms", "bench wall ms", "ms");
    bt.row({}).add(report::real(wallMs, 3, "ms"));

    // The same wall split into the context's leaf steps. A table of
    // its own: perfbench reads sim_speed_bench's wall per bench, so a
    // second bench_wall_ms there would be counted twice.
    const Ledger &l = ledger_;
    const double otherMs =
        wallMs - l.artifactsMs - l.layerDataMs - l.inferenceMs;
    GROW_ASSERT(otherMs >= 0.0,
                "host_ledger leaf steps exceed the bench wall");
    GROW_ASSERT(std::abs(l.artifactsMs + l.layerDataMs + l.inferenceMs +
                         otherMs - wallMs) <= 1e-9 * std::max(1.0, wallMs),
                "host_ledger parts do not sum to the bench wall");
    auto ht = report_.table("host_ledger", "Bench host time by step");
    ht.col("bench_wall_ms", "bench wall ms", "ms")
        .col("artifacts_ms", "artifacts ms", "ms")
        .col("layer_data_ms", "layer data ms", "ms")
        .col("inference_ms", "inference ms", "ms")
        .col("other_ms", "other ms", "ms")
        .col("artifact_hits", "artifact hits")
        .col("workload_hits", "workload hits")
        .col("inference_hits", "inference hits");
    ht.row({})
        .add(report::real(wallMs, 3, "ms"))
        .add(report::real(l.artifactsMs, 3, "ms"))
        .add(report::real(l.layerDataMs, 3, "ms"))
        .add(report::real(l.inferenceMs, 3, "ms"))
        .add(report::real(otherMs, 3, "ms"))
        .add(report::count(cache_->stats().memoryHits - artifactHitsStart_))
        .add(report::count(l.workloadHits))
        .add(report::count(l.inferenceHits));
}

void
BenchContext::banner(const std::string &what)
{
    std::string line = "\n### " + what +
                       " [scale=" + graph::tierName(tier_);
    if (model_ != gcn::ModelKind::Gcn)
        line += std::string(" model=") + gcn::modelKindName(model_);
    line += "]";
    report_.note(std::move(line));
}

gcn::WorkloadConfig
BenchContext::defaultConfig() const
{
    gcn::WorkloadConfig wc;
    wc.tier = tier_;
    wc.model = model_;
    return wc;
}

const gcn::GcnWorkload &
BenchContext::workload(const std::string &name)
{
    const auto &spec = graph::datasetByName(name);
    const gcn::WorkloadConfig wc = defaultConfig();
    auto &workloads = memo().workloads;
    WorkloadKey key = WorkloadKey::of(spec, wc);
    auto it = workloads.find(key);
    if (it != workloads.end()) {
        ++ledger_.workloadHits;
        return it->second;
    }
    return workloads.emplace(std::move(key), workload(spec, wc))
        .first->second;
}

gcn::GcnWorkload
BenchContext::workload(const graph::DatasetSpec &spec,
                       const gcn::WorkloadConfig &config)
{
    // WorkloadCache::workload() in its two steps, so each has its own
    // clock: artefact builds also report in build_phase.
    std::shared_ptr<const gcn::GraphArtifacts> artifacts;
    {
        util::ScopedTimer timer(ledger_.artifactsMs);
        artifacts = cache_->artifacts(spec, config.tier, config.plan);
    }
    util::WallClock clock;
    gcn::GcnWorkload w = gcn::buildLayerData(std::move(artifacts), config);
    const double ms = clock.elapsedMs();
    ledger_.layerDataMs += ms;
    layerDataMs_[{spec.name, gcn::modelKindName(config.model),
                  config.numLayers}] += ms;
    return w;
}

gcn::RunOptions
BenchContext::runOptions() const
{
    gcn::RunOptions base;
    base.sim.threads = threads_;
    return base;
}

std::vector<gcn::InferenceResult>
BenchContext::sweep(const std::vector<driver::SweepJob> &jobs)
{
    if (jobs.empty())
        return {};
    std::vector<driver::SweepOutcome> outcomes;
    {
        util::ScopedTimer timer(ledger_.inferenceMs);
        outcomes = driver::SweepDriver(threads_).runAll(jobs);
    }
    std::vector<gcn::InferenceResult> results;
    results.reserve(outcomes.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
        if (profile_) {
            const auto *spec = jobs[i].workload->spec();
            GROW_ASSERT(spec != nullptr, "sweep job " + jobs[i].label +
                                             " on a workload without a "
                                             "dataset");
            simulated_.emplace(std::make_pair(spec->name, jobs[i].label),
                               outcomes[i].inference);
        }
        results.push_back(std::move(outcomes[i].inference));
    }
    return results;
}

const gcn::InferenceResult &
BenchContext::inference(const std::string &dataset,
                        const std::string &engine_key)
{
    auto &results = memo().results;
    auto key = std::make_pair(
        WorkloadKey::of(graph::datasetByName(dataset), defaultConfig()),
        engine_key);
    auto it = results.find(key);
    if (it != results.end()) {
        ++ledger_.inferenceHits;
        return it->second;
    }
    auto job = driver::makeEngineJob(engine_key, workload(dataset),
                                     runOptions());
    job.label = engine_key;
    return results.emplace(std::move(key), std::move(sweep({job}).front()))
        .first->second;
}

void
BenchContext::recordInference(const std::string &dataset,
                              const std::string &engine,
                              const gcn::InferenceResult &result)
{
    ledger_.inferenceMs += result.hostMillis;
    if (profile_)
        simulated_.emplace(std::make_pair(dataset, engine), result);
}

void
BenchContext::prefetch(const std::vector<std::string> &engine_keys)
{
    // Workload construction mutates the memo; do it serially up front
    // so the sweep only reads borrowed workloads.
    auto &results = memo().results;
    std::vector<driver::SweepJob> jobs;
    std::vector<std::pair<WorkloadKey, std::string>> keys;
    for (const auto &spec : specs_) {
        const auto &w = workload(spec.name);
        const WorkloadKey wk = WorkloadKey::of(spec, defaultConfig());
        for (const auto &engineKey : engine_keys) {
            auto key = std::make_pair(wk, engineKey);
            if (results.count(key)) {
                ++ledger_.inferenceHits;
                continue;
            }
            jobs.push_back(driver::makeEngineJob(engineKey, w, runOptions()));
            jobs.back().label = engineKey;
            keys.push_back(std::move(key));
        }
    }
    auto swept = sweep(jobs);
    for (size_t i = 0; i < swept.size(); ++i)
        results.emplace(std::move(keys[i]), std::move(swept[i]));
}

} // namespace grow::bench
