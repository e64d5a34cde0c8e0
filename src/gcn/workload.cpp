#include "gcn/workload.hpp"

#include <algorithm>
#include <chrono>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "graph/normalize.hpp"
#include "graph/sampling.hpp"
#include "partition/multilevel.hpp"
#include "sparse/convert.hpp"
#include "util/bitutil.hpp"
#include "util/logging.hpp"

namespace grow::gcn {

namespace {

/**
 * GIN's sum-aggregation operand A_gin = A + (1+eps)I: binary adjacency
 * with the learnable central-node weight on the diagonal (h' =
 * MLP((1+eps)h_v + sum_u h_u)). Built per workload -- eps is a model
 * knob, not a graph artefact.
 */
sparse::CsrMatrix
ginAdjacency(const graph::CsrView &g, double eps)
{
    const uint32_t n = g.numNodes();
    std::vector<uint64_t> rowPtr(n + 1, 0);
    std::vector<NodeId> colIdx;
    std::vector<double> values;
    colIdx.reserve(g.numArcs() + n);
    values.reserve(g.numArcs() + n);
    for (NodeId v = 0; v < n; ++v) {
        bool selfPlaced = false;
        for (NodeId u : g.neighbors(v)) {
            if (!selfPlaced && u > v) {
                colIdx.push_back(v);
                values.push_back(1.0 + eps);
                selfPlaced = true;
            }
            colIdx.push_back(u);
            values.push_back(1.0);
        }
        if (!selfPlaced) {
            colIdx.push_back(v);
            values.push_back(1.0 + eps);
        }
        rowPtr[v + 1] = colIdx.size();
    }
    return sparse::CsrMatrix::fromRaw(n, n, std::move(rowPtr),
                                      std::move(colIdx),
                                      std::move(values));
}

} // namespace

sparse::CsrMatrix
permuteRows(const sparse::CsrMatrix &m,
            const std::vector<NodeId> &new_to_old)
{
    GROW_ASSERT(new_to_old.size() == m.rows(), "permutation size mismatch");
    return sparse::CsrMatrix(m, new_to_old);
}

std::vector<uint32_t>
layerDims(const graph::GcnShape &shape, uint32_t numLayers)
{
    GROW_ASSERT(numLayers >= 1, "a GCN model needs at least one layer");
    std::vector<uint32_t> dims;
    dims.reserve(numLayers + 1);
    dims.push_back(shape.inFeatures);
    for (uint32_t i = 1; i < numLayers; ++i)
        dims.push_back(shape.hidden);
    dims.push_back(shape.classes);
    return dims;
}

uint32_t
defaultClusterSize(const graph::GcnShape &shape, uint32_t hdn_top_n)
{
    // A cluster whose nodes all fit in the cache turns every
    // intra-cluster reference into a hit. 512 KB / (hidden x 8 B) rows,
    // capped by the 4096-entry CAM (Table III). Small graphs that fit
    // outright stay whole -- the paper partitions only the large graphs
    // into many clusters (Sec. V-C).
    uint32_t cacheRows = static_cast<uint32_t>(std::min<uint64_t>(
        hdn_top_n,
        (512 * 1024) /
            (static_cast<uint64_t>(shape.hidden) * kValueBytes)));
    return std::max(64u, cacheRows);
}

std::shared_ptr<const GraphArtifacts>
buildGraphArtifacts(const graph::DatasetSpec &spec, graph::ScaleTier tier,
                    const PartitionPlan &plan, uint32_t threads)
{
    using Clock = std::chrono::steady_clock;
    auto msSince = [](Clock::time_point &mark) {
        const auto now = Clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(now - mark)
                .count();
        mark = now;
        return ms;
    };

    auto a = std::make_shared<GraphArtifacts>();
    a->spec = &graph::datasetByName(spec.name);
    a->tier = tier;
    a->plan = plan;

    GraphArtifacts::BuildProfile prof;
    prof.threads = std::max(1u, threads);
    const auto buildStart = Clock::now();
    auto mark = buildStart;

    if (spec.isFileBacked()) {
        // The graph stays on disk: every stage below streams it
        // through the mmap view. The file records the tier it was
        // written at; silently relabelling it would poison cache keys
        // and bench tables.
        if (tier != spec.sourceTier)
            fatal("dataset '" + spec.name + "' was converted at scale=" +
                  graph::tierName(spec.sourceTier) + "; pass scale=" +
                  graph::tierName(spec.sourceTier) +
                  " to use " + spec.sourceFile);
        a->mapped = graph::fileDatasetGraph(spec);
    } else {
        auto inst = graph::buildDataset(spec, tier);
        a->graph = std::move(inst.graph);
    }
    const graph::CsrView gv = a->graphView();
    prof.arcs = gv.numArcs();
    prof.synthMs = msSince(mark);

    a->adjacency =
        graph::normalizedAdjacency(gv, /*self_loops=*/true, threads);
    prof.normalizeMs = msSince(mark);

    if (plan.buildPartitioning) {
        const uint32_t n = gv.numNodes();
        const uint32_t clusterSize =
            plan.targetClusterSize
                ? plan.targetClusterSize
                : defaultClusterSize(spec.gcn, plan.hdnTopN);
        partition::PartitionConfig pc;
        // Ceiling division: floor would let a single cluster overshoot
        // the cache it was sized against (e.g. n=1000 at clusterSize=600
        // must give 2 clusters, not one 1000-row cluster).
        pc.numParts = std::max<uint32_t>(
            1, static_cast<uint32_t>(ceilDiv(n, clusterSize)));
        pc.seed = spec.seed * 31 + 11;
        pc.threads = threads;
        partition::MultilevelPartitioner partitioner(pc);
        auto parts = partitioner.partition(gv);
#if defined(__GLIBC__)
        // The coarsening hierarchy is the largest transient of a build
        // (about 106 MB on amazon at mini scale). glibc keeps freed heap
        // memory resident, and whether the hierarchy came from the heap
        // or from mmap depends on its dynamic mmap threshold, that is on
        // unrelated earlier allocations. Returning the free pages keeps
        // a build's footprint independent of them.
        malloc_trim(0);
#endif
        prof.partitionMs = msSince(mark);

        a->relabel = partition::relabelByPartition(n, parts);
        // The partitioner's balance bound is soft; make it hard so no
        // cluster exceeds the HDN cache capacity it was sized for.
        a->relabel.clustering = partition::splitOversizedClusters(
            a->relabel.clustering, clusterSize);
        a->maxClusterNodes = clusterSize;
        a->adjacencyPartitioned = a->adjacency.permutedSymmetric(
            a->relabel.newToOld, threads);
        prof.relabelMs = msSince(mark);

        // Intra-cluster ranking straight off the original view + the
        // permutation: the relabeled graph is never materialized.
        a->hdnLists = partition::selectHdnPerCluster(
            gv, a->relabel, plan.hdnTopN, threads);
        prof.hdnMs = msSince(mark);
        a->hasPartitioning = true;
    }

    prof.totalMs = std::chrono::duration<double, std::milli>(
                       Clock::now() - buildStart)
                       .count();
    prof.valid = true;
    a->buildProfile = prof;
    return a;
}

GcnWorkload
buildLayerData(std::shared_ptr<const GraphArtifacts> artifacts,
               const WorkloadConfig &config)
{
    GROW_ASSERT(artifacts != nullptr, "workload needs graph artefacts");
    GROW_ASSERT(artifacts->tier == config.tier,
                "workload tier does not match its graph artefacts");
    GROW_ASSERT(artifacts->hasPartitioning == config.plan.buildPartitioning,
                "workload partitioning does not match its artefacts");

    GcnWorkload w;
    w.artifacts = std::move(artifacts);
    w.model = config.model;

    const graph::DatasetSpec &spec = *w.spec();
    const uint32_t n = w.nodes();
    Rng rng(config.seed * 1000003 + spec.seed);

    // Layer plan: X(0) at Table I's x0 density; every deeper X(i)
    // stands in for a post-ReLU feature map, for which Table I only
    // publishes the density after layer 1 -- reuse it for all of them
    // (see DESIGN.md substitutions).
    const auto dims = layerDims(spec.gcn, config.numLayers);
    w.layers.resize(config.numLayers);
    for (uint32_t i = 0; i < config.numLayers; ++i) {
        w.layers[i].index = i;
        w.layers[i].inDim = dims[i];
        w.layers[i].outDim = dims[i + 1];
        w.layers[i].xDensity = i == 0 ? spec.x0Density : spec.x1Density;
    }

    // Synthetic feature matrices at the published densities (Table I).
    // The draw order below (features, then GIN extras, then weights)
    // keeps the model=Gcn random stream identical to the pre-model-zoo
    // builder, so default workloads reproduce bit-for-bit.
    // The engines read only feature structure: values are kept for
    // functional runs alone, and randomCsr draws them either way, so
    // the stream -- and every structure -- is the same without them.
    const bool keepValues = config.functionalData;
    w.features.reserve(config.numLayers);
    for (const auto &layer : w.layers)
        w.features.push_back(sparse::randomCsr(
            n, layer.inDim, layer.xDensity, rng, keepValues));

    if (config.model == ModelKind::Gin) {
        // X'(i): sparse stand-in for relu(A_gin X(i) W(i)), the input
        // of the layer's trailing MLP combination. Post-ReLU maps
        // carry the published x1Density (DESIGN.md substitutions).
        w.mlpFeatures.reserve(config.numLayers);
        for (const auto &layer : w.layers)
            w.mlpFeatures.push_back(sparse::randomCsr(
                n, layer.outDim, spec.x1Density, rng, keepValues));
        // The epsilon-weighted central node enters the aggregation
        // operand's diagonal; every layer shares one A_gin (no rng).
        w.ginEpsilon = config.ginEpsilon;
        w.adjacencyGin = ginAdjacency(w.graphView(), config.ginEpsilon);
        if (w.hasPartitioning())
            w.adjacencyGinPartitioned =
                w.adjacencyGin.permutedSymmetric(w.relabel().newToOld);
    }

    if (modelUsesSampling(config.model)) {
        // SAGEConv's fanout-k operand (Sec. VIII), on its own rng: the
        // seed derives from the dataset spec, not the feature seed, so
        // every depth and seed of a dataset aggregates over one sample.
        w.sageFanout = config.sageFanout;
        w.sampledAdjacency = graph::sampleNeighborAdjacency(
            w.graphView(), config.sageFanout, spec.seed * 131 + 17);
        if (w.hasPartitioning())
            w.sampledAdjacencyPartitioned =
                w.sampledAdjacency.permutedSymmetric(w.relabel().newToOld);
    }

    if (w.hasPartitioning()) {
        w.featuresPartitioned.reserve(w.features.size());
        for (const auto &x : w.features)
            w.featuresPartitioned.push_back(
                permuteRows(x, w.relabel().newToOld));
        w.mlpFeaturesPartitioned.reserve(w.mlpFeatures.size());
        for (const auto &x : w.mlpFeatures)
            w.mlpFeaturesPartitioned.push_back(
                permuteRows(x, w.relabel().newToOld));
    }

    if (config.functionalData) {
        w.weights.reserve(config.numLayers);
        for (const auto &layer : w.layers)
            w.weights.push_back(
                sparse::randomDense(layer.inDim, layer.outDim, rng));
        if (config.model == ModelKind::Gin) {
            w.mlpWeights.reserve(config.numLayers);
            for (const auto &layer : w.layers)
                w.mlpWeights.push_back(sparse::randomDense(
                    layer.outDim, layer.outDim, rng));
        }
    }
    return w;
}

GcnWorkload
buildWorkload(const graph::DatasetSpec &spec, const WorkloadConfig &config)
{
    return buildLayerData(
        buildGraphArtifacts(spec, config.tier, config.plan),
        config);
}

} // namespace grow::gcn
