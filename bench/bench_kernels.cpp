/**
 * @file
 * Google-benchmark microbenchmarks of the substrate kernels: golden
 * SpMM, format conversions, tile census, GCNAX's tiling search, graph
 * generation and CSR assembly from an edge soup
 * (Graph::fromEdges), the multilevel partitioner, feature synthesis
 * (randomCsr) and the workload-construction split, plus the
 * RowEngine hot-loop containers (ring FIFO, flat map), GrowSim
 * runs of one combination and one aggregation phase, and the WorkPool
 * submit path. These quantify the host-side cost of the simulation
 * substrate itself (not simulated cycles).
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <filesystem>

#include "accel/gcnax.hpp"
#include "core/grow.hpp"
#include "gcn/runner.hpp"
#include "gcn/workload.hpp"
#include "graph/file_graph.hpp"
#include "graph/generators.hpp"
#include "graph/normalize.hpp"
#include "graph/sampling.hpp"
#include "partition/multilevel.hpp"
#include "sparse/convert.hpp"
#include "sparse/reference_gemm.hpp"
#include "sparse/tiling.hpp"
#include "util/flat_map.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/sorted_fifo.hpp"
#include "util/work_pool.hpp"

using namespace grow;

namespace {

sparse::CsrMatrix
fixtureCsr(uint32_t n, double density)
{
    Rng rng(n);
    return sparse::randomCsr(n, n, density, rng);
}

void
BM_ReferenceSpMM(benchmark::State &state)
{
    auto s = fixtureCsr(static_cast<uint32_t>(state.range(0)), 0.01);
    Rng rng(7);
    auto d = sparse::randomDense(s.cols(), 64, rng);
    for (auto _ : state) {
        auto c = sparse::referenceSpMM(s, d);
        benchmark::DoNotOptimize(c);
    }
    state.SetItemsProcessed(state.iterations() * s.nnz() * 64);
}
BENCHMARK(BM_ReferenceSpMM)->Arg(1024)->Arg(4096);

void
BM_TileCensus(benchmark::State &state)
{
    auto m = fixtureCsr(8192, 0.002);
    for (auto _ : state) {
        auto stats = sparse::TileGridStats::compute(
            m, sparse::TileShape{512, 16});
        benchmark::DoNotOptimize(stats);
    }
    state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_TileCensus);

void
BM_GcnaxTiling(benchmark::State &state)
{
    // GCNAX's per-problem tiling search on the two operands of a
    // pubmed-sized layer: X(0) (19717 x 500 at 10%) for combination,
    // the normalised adjacency of the mini pubmed graph for
    // aggregation; 16 output columns, as in Table I.
    sparse::CsrMatrix lhs;
    if (state.range(0) == 0) {
        Rng rng(5);
        lhs = sparse::randomCsr(19717, 500, 0.1, rng, false);
    } else {
        auto inst = graph::buildDataset(graph::datasetByName("pubmed"),
                                        graph::ScaleTier::Mini);
        lhs = graph::normalizedAdjacency(inst.graph, true);
    }
    const accel::GcnaxSim sim(accel::GcnaxConfig{});
    for (auto _ : state) {
        auto t = sim.chooseTiling(lhs, 16);
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations() * lhs.nnz());
    state.SetLabel(state.range(0) == 0 ? "features" : "adjacency");
}
BENCHMARK(BM_GcnaxTiling)->Arg(0)->Arg(1);

void
BM_DcSbmGenerate(benchmark::State &state)
{
    graph::DcSbmParams p;
    p.nodes = static_cast<uint32_t>(state.range(0));
    p.avgDegree = 16.0;
    p.communities = p.nodes / 700 + 1;
    for (auto _ : state) {
        p.seed += 1;
        auto g = graph::generateDcSbm(p);
        benchmark::DoNotOptimize(g);
    }
    state.SetItemsProcessed(state.iterations() * p.nodes * 16);
}
BENCHMARK(BM_DcSbmGenerate)->Arg(10000)->Arg(40000);

void
BM_GraphFromEdges(benchmark::State &state)
{
    // A power-law edge soup as the graph generators draw it: endpoints
    // by capped Pareto weight, 13 edges per node (amazon's mini degree
    // of 26 at 160k nodes), duplicates and self loops included.
    const auto nodes = static_cast<uint32_t>(state.range(0));
    Rng rng(7);
    std::vector<double> weights(nodes);
    for (auto &w : weights)
        w = std::min(rng.pareto(1.2), 0.1 * nodes);
    const AliasTable endpoints(weights);
    std::vector<std::pair<NodeId, NodeId>> edges(uint64_t{nodes} * 13);
    for (auto &[u, v] : edges) {
        u = endpoints.sample(rng);
        v = endpoints.sample(rng);
    }
    for (auto _ : state) {
        state.PauseTiming();
        auto soup = edges;
        state.ResumeTiming();
        auto g = graph::Graph::fromEdges(nodes, std::move(soup));
        benchmark::DoNotOptimize(g);
    }
    state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_GraphFromEdges)->Arg(40000)->Arg(160000);

void
BM_MultilevelPartition(benchmark::State &state)
{
    graph::DcSbmParams p;
    p.nodes = static_cast<uint32_t>(state.range(0));
    p.avgDegree = 12.0;
    p.communities = p.nodes / 700 + 1;
    p.seed = 3;
    auto g = graph::generateDcSbm(p);
    partition::PartitionConfig pc;
    pc.numParts = p.communities;
    for (auto _ : state) {
        pc.seed += 1;
        auto r = partition::MultilevelPartitioner(pc).partition(g);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations() * g.numArcs());
}
BENCHMARK(BM_MultilevelPartition)->Arg(10000)->Arg(40000);

void
BM_NormalizeAdjacency(benchmark::State &state)
{
    auto g = graph::generateChungLu(
        static_cast<uint32_t>(state.range(0)), 12.0, 2.3, 5);
    for (auto _ : state) {
        auto a = graph::normalizedAdjacency(g, true);
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(state.iterations() * g.numArcs());
}
BENCHMARK(BM_NormalizeAdjacency)->Arg(20000);

// Paired serial-vs-parallel build-stage benchmarks: Arg is the worker
// count (results are bit-identical for every value; these measure the
// wall-clock payoff of the deterministic parallel pipeline).
void
BM_PartitionThreads(benchmark::State &state)
{
    graph::DcSbmParams p;
    p.nodes = 40000;
    p.avgDegree = 12.0;
    p.communities = p.nodes / 700 + 1;
    p.seed = 3;
    auto g = graph::generateDcSbm(p);
    partition::PartitionConfig pc;
    pc.numParts = p.communities;
    pc.threads = static_cast<uint32_t>(state.range(0));
    for (auto _ : state) {
        pc.seed += 1;
        auto r = partition::MultilevelPartitioner(pc).partition(g.view());
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations() * g.numArcs());
}
BENCHMARK(BM_PartitionThreads)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

void
BM_NormalizeThreads(benchmark::State &state)
{
    auto g = graph::generateChungLu(100000, 16.0, 2.3, 5);
    const auto threads = static_cast<uint32_t>(state.range(0));
    for (auto _ : state) {
        auto a = graph::normalizedAdjacency(g.view(), true, threads);
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(state.iterations() * g.numArcs());
}
BENCHMARK(BM_NormalizeThreads)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

// Traversal through the mmap-backed CsrView vs the same graph on the
// heap: quantifies the page-cache indirection cost of the out-of-core
// path (a warm mapping should be within noise of the heap copy).
void
BM_CsrTraversal(benchmark::State &state)
{
    const bool mapped = state.range(0) != 0;
    auto g = graph::generateChungLu(100000, 16.0, 2.3, 5);
    std::shared_ptr<const graph::MappedCsrGraph> file;
    graph::CsrView v = g.view();
    std::string path;
    if (mapped) {
        graph::DatasetSpec spec;
        spec.name = "bm_traversal";
        path = (std::filesystem::temp_directory_path() /
                "bm_traversal.growcsr")
                   .string();
        if (!graph::writeCsrFile(path, spec, graph::ScaleTier::Full,
                                 g.view()))
            state.SkipWithError("writeCsrFile failed");
        file = graph::MappedCsrGraph::open(path);
        if (!file)
            state.SkipWithError("MappedCsrGraph::open failed");
        v = file->view();
    }
    for (auto _ : state) {
        uint64_t sum = 0;
        for (NodeId u = 0; u < v.numNodes(); ++u)
            for (NodeId nb : v.neighbors(u))
                sum += nb;
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * v.numArcs());
    state.SetLabel(mapped ? "mmap" : "heap");
    if (!path.empty())
        std::filesystem::remove(path);
}
BENCHMARK(BM_CsrTraversal)->Arg(0)->Arg(1);

void
BM_BuildGraphArtifacts(benchmark::State &state)
{
    // The expensive, shared half of workload construction (what the
    // WorkloadCache amortises across depths and runs), on a graph that
    // the multilevel partitioner splits into many clusters: amazon at
    // tiny scale. At unit scale every graph is one cluster and skips
    // the partitioner.
    const auto &spec = graph::datasetByName("amazon");
    for (auto _ : state) {
        auto a = gcn::buildGraphArtifacts(spec, graph::ScaleTier::Tiny);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_BuildGraphArtifacts)->Unit(benchmark::kMillisecond);

void
BM_BuildLayerData(benchmark::State &state)
{
    // The cheap, per-workload half layered on cached artefacts; the
    // sage-mean case includes its fanout-k neighbour sample. pubmed at
    // mini scale (range(2) = 1) with gcn and gin is serve_zoo's
    // heaviest request shape: each request draws fresh features and
    // lays out the relabelled X(i) of its million-non-zero X(0).
    const bool pubmedMini = state.range(2) != 0;
    const auto &spec = graph::datasetByName(pubmedMini ? "pubmed" : "cora");
    gcn::WorkloadConfig wc;
    wc.tier = pubmedMini ? graph::ScaleTier::Mini : graph::ScaleTier::Unit;
    auto artifacts = gcn::buildGraphArtifacts(spec, wc.tier);
    wc.numLayers = static_cast<uint32_t>(state.range(0));
    wc.model = static_cast<gcn::ModelKind>(state.range(1));
    for (auto _ : state) {
        wc.seed += 1;
        auto w = gcn::buildLayerData(artifacts, wc);
        benchmark::DoNotOptimize(w);
    }
    state.SetLabel(spec.name + " " + graph::tierName(wc.tier) + " " +
                   gcn::modelKindName(wc.model));
}
BENCHMARK(BM_BuildLayerData)
    ->ArgNames({"depth", "model", "pubmed_mini"})
    ->ArgsProduct({{2, 4},
                   {static_cast<int>(gcn::ModelKind::Gcn),
                    static_cast<int>(gcn::ModelKind::SageMean)},
                   {0}})
    ->ArgsProduct({{2, 3},
                   {static_cast<int>(gcn::ModelKind::Gcn),
                    static_cast<int>(gcn::ModelKind::Gin)},
                   {1}});

void
BM_RandomCsr(benchmark::State &state)
{
    // Feature synthesis at a mini-tier X(i) shape (20000 rows), with
    // and without kept values; range(0) is the density in units of
    // 10^-4, range(1) the width. Besides the dense reddit/amazon X(0)
    // rows, the serve densities: citeseer X(0) (8.5 per mille x 3703),
    // pubmed X(0) (100 per mille x 500) and pubmed X(1) (776 per
    // mille x 16).
    const double density = static_cast<double>(state.range(0)) / 1e4;
    const auto cols = static_cast<uint32_t>(state.range(1));
    const bool withValues = state.range(2) != 0;
    Rng rng(11);
    int64_t nnz = 0;
    for (auto _ : state) {
        auto m = sparse::randomCsr(20000, cols, density, rng, withValues);
        nnz += static_cast<int64_t>(m.nnz());
        benchmark::DoNotOptimize(m);
    }
    state.SetItemsProcessed(nnz);
}
BENCHMARK(BM_RandomCsr)
    ->ArgNames({"per10k", "cols", "values"})
    ->ArgsProduct({{10000, 9900, 1000}, {602}, {1, 0}})
    ->Args({85, 3703, 1})
    ->Args({85, 3703, 0})
    ->Args({1000, 500, 1})
    ->Args({1000, 500, 0})
    ->Args({7760, 16, 1})
    ->Args({7760, 16, 0})
    ->Unit(benchmark::kMillisecond);

void
BM_SampleNeighbors(benchmark::State &state)
{
    // SAGEConv's seeded fanout-k sampling pass, which buildLayerData
    // runs once per sage-mean / sage-pool workload.
    auto g = graph::generateChungLu(
        static_cast<uint32_t>(state.range(0)), 16.0, 2.3, 5);
    uint64_t seed = 1;
    for (auto _ : state) {
        seed += 1;
        auto s = graph::sampleNeighborAdjacency(g, 10, seed);
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(state.iterations() * g.numArcs());
}
BENCHMARK(BM_SampleNeighbors)->Arg(10000)->Arg(40000);

void
BM_BuildPhasePlan(benchmark::State &state)
{
    // Per-ModelKind lowering cost: the plan is rebuilt per inference,
    // so it must stay negligible next to the simulation itself.
    const auto model = static_cast<gcn::ModelKind>(state.range(0));
    const auto &spec = graph::datasetByName("cora");
    gcn::WorkloadConfig wc;
    wc.tier = graph::ScaleTier::Unit;
    wc.model = model;
    auto w = gcn::buildWorkload(spec, wc);
    gcn::RunOptions opt;
    opt.usePartitioning = true;
    for (auto _ : state) {
        auto plan = gcn::buildPhasePlan(w, opt);
        benchmark::DoNotOptimize(plan);
    }
    state.SetItemsProcessed(state.iterations() *
                            gcn::modelPhasesPerLayer(model) *
                            w.numLayers());
    state.SetLabel(gcn::modelKindName(model));
}
BENCHMARK(BM_BuildPhasePlan)
    ->Arg(static_cast<int>(gcn::ModelKind::Gcn))
    ->Arg(static_cast<int>(gcn::ModelKind::SageMean))
    ->Arg(static_cast<int>(gcn::ModelKind::SagePool))
    ->Arg(static_cast<int>(gcn::ModelKind::Gin))
    ->Arg(static_cast<int>(gcn::ModelKind::Gat));

// ---------------------------------------------------------------------
// RowEngine hot-loop containers, driven with the access patterns of
// the row engine's inner loop.
// ---------------------------------------------------------------------

/** Stand-in for RowEngine's per-row window slot (same field layout). */
struct BenchSlot
{
    NodeId row;
    uint64_t token;
    uint32_t pending;
    Cycle lastFinish;
    bool controlDone;
};

constexpr uint32_t kLdnEntries = 1024;

/** LDN-table churn: find / miss-insert / FIFO-evict over a bounded
 *  live set, the access pattern of RowEngine's ldnMap_. The id space
 *  is 2x the live bound: like the real table (which exists to dedupe
 *  in-flight fetches of clustered neighbourhoods), lookups hit about
 *  half the time. */
template <typename Body>
void
ldnChurn(benchmark::State &state, Body &&body)
{
    constexpr uint32_t kIdSpace = kLdnEntries * 2;
    uint64_t lcg = 0x2545F4914F6CDD1DULL;
    uint64_t hits = 0;
    for (auto _ : state) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        const NodeId id = static_cast<NodeId>((lcg >> 33) % kIdSpace);
        hits += body(id, static_cast<Cycle>(lcg));
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(state.iterations());
}

void
BM_LdnTableFlatMap(benchmark::State &state)
{
    util::FlatMap<NodeId, Cycle> map(kLdnEntries, kInvalidNode);
    std::vector<NodeId> fifo(kLdnEntries);
    uint32_t at = 0;
    ldnChurn(state, [&](NodeId id, Cycle c) -> uint64_t {
        if (map.find(id) != nullptr)
            return 1;
        if (map.size() == kLdnEntries)
            map.erase(fifo[at]);
        map.insert(id, c);
        fifo[at] = id;
        at = (at + 1) % kLdnEntries;
        return 0;
    });
}
BENCHMARK(BM_LdnTableFlatMap);

/** Runahead-window traffic: steady push_back / touch-back / pop_front
 *  through a window of runahead-degree slots, the access pattern of
 *  RowEngine's window_ (and, with Cycle payloads, streamChunks_). */
constexpr size_t kWindowDepth = 16;

void
BM_RunaheadWindowRing(benchmark::State &state)
{
    util::Fifo<BenchSlot> win;
    uint64_t token = 0, sum = 0;
    for (auto _ : state) {
        if (win.size() == kWindowDepth) {
            sum += win.front().lastFinish;
            win.pop_front();
        }
        win.push_back(BenchSlot{static_cast<NodeId>(token), token, 1,
                                token * 3, false});
        win.back().pending += 1;
        ++token;
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunaheadWindowRing);

// ---------------------------------------------------------------------
// RowEngine end to end: GrowSim::run on one fixed phase, reported per
// product (one LHS non-zero's scalar x RHS-row issue).
// ---------------------------------------------------------------------

/** Layer-0 step @p op of citeseer's partitioned GCN plan (unit tier). */
const gcn::PlannedPhase &
citeseerPhase(gcn::PhaseOp op)
{
    static const gcn::GcnWorkload w = [] {
        gcn::WorkloadConfig wc;
        wc.tier = graph::ScaleTier::Unit;
        return gcn::buildWorkload(graph::datasetByName("citeseer"), wc);
    }();
    static const gcn::PhasePlan plan = [] {
        gcn::RunOptions opts;
        opts.usePartitioning = true;
        return gcn::buildPhasePlan(w, opts);
    }();
    const auto it = std::find_if(
        plan.begin(), plan.end(), [op](const gcn::PlannedPhase &step) {
            return step.layer == 0 && step.op == op;
        });
    GROW_ASSERT(it != plan.end(), "plan lacks the benchmarked phase");
    return *it;
}

void
growPhaseRun(benchmark::State &state, gcn::PhaseOp op)
{
    const auto &step = citeseerPhase(op);
    core::GrowSim sim((core::GrowConfig()));
    for (auto _ : state) {
        auto r = sim.run(step.problem, accel::SimOptions{});
        benchmark::DoNotOptimize(r);
    }
    uint64_t products = 0;
    for (const auto &s : sim.lastEngineStats())
        products += s.products;
    state.SetItemsProcessed(state.iterations() * products);
}

/** Combination: W resident, one MAC run per row. */
void
BM_RowEngineCombination(benchmark::State &state)
{
    growPhaseRun(state, gcn::PhaseOp::Combination);
}
BENCHMARK(BM_RowEngineCombination);

/** Aggregation: HDN hits and DRAM misses, one product at a time. */
void
BM_RowEngineAggregation(benchmark::State &state)
{
    growPhaseRun(state, gcn::PhaseOp::Aggregation);
}
BENCHMARK(BM_RowEngineAggregation);

/**
 * WorkPool submit cost: one runAll() of 16 trivial tasks, so the time
 * is all batch overhead (open the batch, wake the invited workers,
 * claim under the pool mutex, wait for the stragglers). Real batches
 * -- sweep jobs, phase fan-out, a halo window -- run for milliseconds
 * or more, so this only has to stay in the microseconds. Arg = worker
 * count (0 = caller-only).
 */
void
BM_WorkPoolSubmit(benchmark::State &state)
{
    util::WorkPool pool(static_cast<uint32_t>(state.range(0)));
    constexpr size_t kTasks = 16;
    std::atomic<uint64_t> sink{0};
    for (auto _ : state) {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(kTasks);
        for (size_t i = 0; i < kTasks; ++i)
            tasks.emplace_back([&sink] {
                sink.fetch_add(1, std::memory_order_relaxed);
            });
        util::rethrowFirstError(pool.runAll(std::move(tasks)));
    }
    state.SetItemsProcessed(state.iterations() * kTasks);
}
BENCHMARK(BM_WorkPoolSubmit)->Arg(0)->Arg(3)->UseRealTime();

} // namespace

BENCHMARK_MAIN();
