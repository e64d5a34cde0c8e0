/**
 * @file
 * Shared scaffolding for the paper-reproduction bench binaries.
 *
 * Every bench accepts `key=value` arguments (unknown keys abort with
 * the accepted list):
 *   scale=mini|tiny|full|unit   dataset scale tier (per-bench default)
 *   datasets=cora,...|all       dataset subset; a `file:<path>`
 *                               element streams a pre-converted
 *                               .growcsr graph (tools/graph_convert)
 *                               through mmap instead of synthesising
 *                               (out-of-core ingestion; pass the
 *                               scale= the file was converted at)
 *   model=gcn|sage-mean|sage-pool|gin|gat
 *                               GNN layer type the workloads lower as
 *                               (default gcn, the paper's evaluation)
 *   cachedir=<path>             persist graph artefacts on disk so
 *                               repeated runs skip synthesis (optional)
 *   format=table|json|csv       report rendering (default table, the
 *                               historical human-readable output)
 *   out=<path>                  write the report to a file instead of
 *                               stdout
 *   threads=<n>                 worker parallelism (default: one per
 *                               core): bounds the inferences a sweep
 *                               runs at once, phase fan-out inside
 *                               each inference and the scale-out halo
 *                               step, all on one shared pool; results
 *                               are bit-identical for every value.
 *                               Rejects 0 and > 4x hardware
 *                               concurrency.
 *   profile=0|1                 also report the host-time tables
 *                               below (off by default: wall-clock
 *                               is nondeterministic and must never
 *                               enter golden-locked output, see
 *                               DESIGN.md "Simulator performance")
 *
 * Under `profile=1` each bench reports the host work it did itself;
 * work served by the process-scope memo (below) appears only as a hit
 * in its `host_ledger` row:
 *   sim_speed        per inference the bench simulated (sweep() jobs,
 *                    memo misses included, and recordInference()),
 *                    under the (dataset, engine) pair it was run
 *                    under: host ms split by phase op, simulated rows
 *                    per host second
 *   sim_speed_layer  the same host ms per (layer, op), beside the
 *                    simulated cycles it bought
 *   build_phase      per-stage wall-clock (synthesis, normalize,
 *                    partition, relabel, HDN) and edges/s of every
 *                    artefact bundle built during the bench, one row
 *                    per dataset
 *   layer_data       host ms of the layer data (features, model
 *                    operands, weights) the bench built, per (dataset,
 *                    model, depth)
 *   sim_speed_bench  the bench's wall time
 *   host_ledger      one row: the bench wall split into the leaf steps
 *                    of the context's entry points -- artifacts_ms
 *                    (artefact lookups and builds), layer_data_ms,
 *                    inference_ms (sweep() and recordInference())
 *                    -- plus other_ms (everything else: work that is
 *                    no inference, such as fig14's partitioner runs,
 *                    fig05's tile census and fig06's single-phase
 *                    runs), and the memo hits per kind. The parts sum
 *                    to bench_wall_ms and other_ms >= 0, both
 *                    asserted at emission.
 *
 * Process-scope memo: every BenchContext of a process borrows one
 * memo, created by the first context. It holds the artefact cache of
 * each `cachedir=`, the default workloads of workload(name) and the
 * results of inference()/prefetch(), so a suite run builds each
 * graph, its layer data and each (dataset, engine) inference once
 * (DESIGN.md "Process-scope bench memo"). Every inference a bench runs
 * goes through sweep() -- inference() and prefetch() call it on a memo
 * miss -- except bench_scaleout's, which it reports through
 * recordInference(). Only inference() and prefetch() insert results
 * into the memo: those of a bench's own sweep() calls and of
 * recordInference() never enter it.
 *
 * Bench-specific knobs (bench_scaleout's chips=, link_gbps= and
 * link_ns=, model_zoo's engines=, ...) are declared by the bench and
 * documented in its file comment.
 *
 * A bench does not print: it *declares* its banner lines and tables
 * through the structured results API (src/report/) and the selected
 * ReportSink renders everything once at exit. `format=table` output is
 * byte-identical to the historical hand-formatted tables;
 * `format=json` emits the schema-versioned record stream that
 * bench_suite merges into the BENCH_GROW.json perf trajectory.
 *
 * Bench bodies are defined with GROW_BENCH_MAIN("name"), which both
 * emits a standalone main() and registers the body in benchRegistry()
 * so bench_suite (built with GROW_BENCH_NO_MAIN) can run any subset
 * in one process. EXPERIMENTS.md records paper-vs-measured per bench.
 */
#pragma once

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "accel/gamma.hpp"
#include "accel/gcnax.hpp"
#include "accel/matraptor.hpp"
#include "core/grow.hpp"
#include "driver/sweep_driver.hpp"
#include "driver/workload_cache.hpp"
#include "gcn/runner.hpp"
#include "gcn/workload.hpp"
#include "graph/datasets.hpp"
#include "report/report.hpp"
#include "report/sinks.hpp"
#include "util/cli.hpp"
#include "util/mathutil.hpp"
#include "util/string_util.hpp"
#include "util/wallclock.hpp"

namespace grow::bench {

/** Signature of one registered bench body. */
using BenchFn = int (*)(int argc, char **argv);

/** Name -> body of every bench linked into this binary. */
const std::map<std::string, BenchFn> &benchRegistry();

/** Registers a bench body under its name at static-init time. */
struct BenchRegistrar
{
    BenchRegistrar(const char *name, BenchFn fn);
};

/** Name of the bench currently executing ("" outside runBench()). */
const std::string &currentBenchName();

/**
 * Run @p fn as bench @p name: sets currentBenchName() (BenchContext
 * stamps it into the report meta) and maps uncaught exceptions to a
 * non-zero exit instead of a terminate(), so one failing bench cannot
 * take a whole suite run down.
 */
int runBench(const std::string &name, BenchFn fn, int argc, char **argv);

/** Argument handling, memo access and report shared by all benches. */
class BenchContext
{
  public:
    /**
     * Parse argv and reject unknown keys: the universal set above
     * plus @p extra_keys (bench-specific knobs like model_zoo's
     * `engines=`).
     */
    BenchContext(int argc, char **argv,
                 const std::string &default_scale = "mini",
                 const std::string &default_datasets = "all",
                 const std::vector<std::string> &extra_keys = {});

    /** Emits the report through the `format=`/`out=` sink -- or hands
     *  it to the active ReportCollector (suite runs). */
    ~BenchContext();

    BenchContext(const BenchContext &) = delete;
    BenchContext &operator=(const BenchContext &) = delete;

    const CliArgs &args() const { return args_; }
    graph::ScaleTier tier() const { return tier_; }
    /** GNN layer type selected via `model=` (default Gcn). */
    gcn::ModelKind model() const { return model_; }
    const std::vector<graph::DatasetSpec> &specs() const { return specs_; }

    /** Whether `profile=1` requested the sim-speed metric family. */
    bool profile() const { return profile_; }

    /** Base run options every inference of this bench runs under
     *  (threads= applied; the layout still comes from makeEngineJob
     *  or growJob). */
    gcn::RunOptions runOptions() const;

    /** The report this bench declares its results into. */
    report::Report &report() { return report_; }

    /** Declare a new table (shorthand for report().table()). */
    report::TableBuilder table(std::string id, std::string title)
    {
        return report_.table(std::move(id), std::move(title));
    }

    /** Append a verbatim output line to the report. */
    void note(std::string text) { report_.note(std::move(text)); }

    /** Declare the standard bench banner line. */
    void banner(const std::string &what);

    /** The workload of @p name lowered as the bench's selected model,
     *  built once per process (process-scope memo). */
    const gcn::GcnWorkload &workload(const std::string &name);

    /**
     * Build the workload of @p spec under @p config on the shared
     * artefact cache (not memoised). Benches that sweep their own
     * configs use this so the layer-data build is timed for the
     * profile=1 `layer_data` table.
     */
    gcn::GcnWorkload workload(const graph::DatasetSpec &spec,
                              const gcn::WorkloadConfig &config);

    /**
     * Run @p jobs on driver::SweepDriver(threads=) and return their
     * results in job order: the one way a bench simulates. Its wall is
     * charged to host_ledger's inference_ms. Under profile=1 each
     * result adds sim_speed and sim_speed_layer rows under the pair
     * (its workload's dataset, its job label), so a label names the
     * engine and must be unique within the bench ("grow@pe4",
     * "gcnax@bw64"). sweep() itself never touches the memo.
     */
    std::vector<gcn::InferenceResult>
    sweep(const std::vector<driver::SweepJob> &jobs);

    /** The inference of @p engine_key on workload(@p dataset), run
     *  once per process (process-scope memo; a miss runs through
     *  sweep()). */
    const gcn::InferenceResult &
    inference(const std::string &dataset, const std::string &engine_key);

    /**
     * Report an inference this bench ran itself: its hostMillis is
     * charged to host_ledger's inference_ms and, under profile=1, its
     * rows carry (@p dataset, @p engine) verbatim. For runs a SweepJob
     * cannot express (bench_scaleout's scaleout::runInference returns
     * link and shard data); the caller must have run it serially, so
     * its hostMillis lies inside the bench wall. Never enters the
     * memo.
     */
    void recordInference(const std::string &dataset,
                         const std::string &engine,
                         const gcn::InferenceResult &result);

    /**
     * Run the dataset x engine-key cross product that the memo lacks
     * as one sweep(), so subsequent inference() calls only read.
     */
    void prefetch(const std::vector<std::string> &engine_keys);

  private:
    /** Host time of the context's leaf steps and its memo hits: the
     *  profile=1 `host_ledger` row. */
    struct Ledger
    {
        double artifactsMs = 0.0;
        double layerDataMs = 0.0;
        double inferenceMs = 0.0;
        uint64_t workloadHits = 0;
        uint64_t inferenceHits = 0;
    };

    /** The config workload(name) builds under. */
    gcn::WorkloadConfig defaultConfig() const;

    /** Declare the profile=1 tables (runs just before the report is
     *  emitted). */
    void emitSimSpeed();

    CliArgs args_;
    graph::ScaleTier tier_;
    gcn::ModelKind model_ = gcn::ModelKind::Gcn;
    uint32_t threads_ = 1;
    bool profile_ = false;
    util::WallClock benchClock_;
    std::vector<graph::DatasetSpec> specs_;
    /** The memo's artefact cache for this context's `cachedir=`. */
    driver::WorkloadCache *cache_ = nullptr;
    /** Shared-cache counters when this context started: its own
     *  builds and hits are what lies beyond them. */
    size_t buildLogStart_ = 0;
    uint64_t artifactHitsStart_ = 0;
    Ledger ledger_;
    /** Host ms of every layer-data build, by (dataset, model, depth). */
    std::map<std::tuple<std::string, std::string, uint32_t>, double>
        layerDataMs_;
    /** Inferences this bench simulated or was handed, by (dataset,
     *  engine): its sim_speed rows (kept under profile=1 only). */
    std::map<std::pair<std::string, std::string>, gcn::InferenceResult>
        simulated_;
    report::Report report_;
    std::string format_;
    std::string out_;
};

/**
 * Identity of a memoised workload: the artefact bundle's key (dataset,
 * tier, partition plan, source-file checksum) plus every
 * WorkloadConfig field the layer data reads. Inference results are
 * memoised under this key plus the engine key.
 */
struct WorkloadKey
{
    driver::ArtifactKey artifacts;
    gcn::ModelKind model = gcn::ModelKind::Gcn;
    uint32_t depth = 0;
    uint32_t sageFanout = 0;
    double ginEpsilon = 0.0;
    bool functionalData = false;
    uint64_t seed = 0;

    static WorkloadKey of(const graph::DatasetSpec &spec,
                          const gcn::WorkloadConfig &config);

    bool operator<(const WorkloadKey &o) const;
};

/** Geometric mean helper for "average speedup" rows. */
using ::grow::geomean;

} // namespace grow::bench

#ifdef GROW_BENCH_NO_MAIN
// Suite build: every bench body is linked into one binary; only the
// registry entry is emitted, bench_suite provides main().
#define GROW_BENCH_EMIT_MAIN(name)
#else
#define GROW_BENCH_EMIT_MAIN(name)                                         \
    int main(int argc, char **argv)                                        \
    {                                                                      \
        return ::grow::bench::runBench(name, &growBenchBody, argc, argv);  \
    }
#endif

/**
 * Define one bench body: `GROW_BENCH_MAIN("fig20_speedup") { ... }`.
 * Emits the standalone main() (unless GROW_BENCH_NO_MAIN) and the
 * registry entry bench_suite dispatches through.
 */
#define GROW_BENCH_MAIN(name)                                              \
    static int growBenchBody(int argc, char **argv);                       \
    static const ::grow::bench::BenchRegistrar growBenchRegistrar(         \
        name, &growBenchBody);                                             \
    GROW_BENCH_EMIT_MAIN(name)                                             \
    static int growBenchBody(int argc, char **argv)
