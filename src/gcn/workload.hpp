/**
 * @file
 * GCN inference workload construction.
 *
 * A workload bundles everything a bench needs to run one dataset
 * through an N-layer GCN (Table I's "Feature length F0-H-C" shape,
 * generalised to arbitrary depth {F0, H1..Hk-1, C}):
 *
 *  - the synthetic graph and its normalized adjacency (Eq. 1);
 *  - GROW's preprocessing artefacts: METIS-like partition,
 *    cluster-contiguous relabeling and per-cluster HDN ID lists
 *    (Sec. V-C), alongside the *original* layout used by the
 *    baselines (Table II: their preprocessing is "None");
 *  - one synthetic feature matrix X(i) per layer at the densities of
 *    Table I (X(i), i >= 1, stands in for relu(A X(i-1) W(i-1)) of a
 *    trained model -- see DESIGN.md substitutions). The engines read
 *    only its structure, so it carries values only under
 *    WorkloadConfig::functionalData and is structure-only otherwise;
 *  - the model operands of Sec. VIII: SAGEConv's fanout-k sampled
 *    adjacency and GIN's A + (1+eps)I, each in both labellings;
 *  - optional dense per-layer weight matrices for functional
 *    verification.
 *
 * Construction is split in two so sweeps don't redo graph work per
 * depth (DESIGN.md "Shared graph artefacts"):
 *
 *  - buildGraphArtifacts() produces the depth- and model-independent
 *    bundle (graph, normalized adjacency, partitioning, relabeling,
 *    HDN lists), immutable and shared between workloads;
 *  - buildLayerData() layers the per-workload data (features, model
 *    operands, weights) on top of a shared bundle.
 *
 * buildWorkload() remains the one-shot convenience composition.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gcn/model.hpp"
#include "graph/datasets.hpp"
#include "graph/file_graph.hpp"
#include "graph/graph.hpp"
#include "partition/hdn_select.hpp"
#include "partition/relabel.hpp"
#include "sparse/csr_matrix.hpp"
#include "sparse/dense_matrix.hpp"

namespace grow::gcn {

/**
 * The graph-level slice of workload construction: everything that is
 * independent of model, depth and feature synthesis. Two workloads
 * with equal partition plans (and dataset + tier) share one artefact
 * bundle.
 */
struct PartitionPlan
{
    /** Build partitioning artefacts (clustering + HDN lists). */
    bool buildPartitioning = true;
    /** Target nodes per cluster (0 = derive from the HDN cache). */
    uint32_t targetClusterSize = 0;
    /** HDN IDs stored per cluster (CAM capacity, Sec. V-C). */
    uint32_t hdnTopN = 4096;
};

/** Knobs of workload construction. */
struct WorkloadConfig
{
    graph::ScaleTier tier = graph::ScaleTier::Mini;
    /** The graph-level slice: selects the shared artefact bundle. */
    PartitionPlan plan;
    /** GNN layer type the workload will be lowered as. */
    ModelKind model = ModelKind::Gcn;
    /** Model depth k >= 1 (number of graph-convolution layers). */
    uint32_t numLayers = 2;
    /** Neighbours sampled per node for the SAGEConv models. */
    uint32_t sageFanout = 10;
    /**
     * GIN's learnable epsilon: the (1+eps) central-node weight on the
     * diagonal of the GIN sum-aggregation operand (h' = MLP((1+eps)h_v
     * + sum_u h_u)).
     */
    double ginEpsilon = 0.1;
    /**
     * Also synthesise dense weights for functional verification, and
     * keep the feature values (features are structure-only without it;
     * the random stream is the same either way).
     */
    bool functionalData = false;
    uint64_t seed = 7;
};

/**
 * One GCN layer of the model: X(i)[N x inDim] is combined with
 * W(i)[inDim x outDim] and aggregated over A (the A*(X*W) order of
 * Sec. II-B).
 */
struct LayerSpec
{
    uint32_t index = 0;
    uint32_t inDim = 0;   ///< input feature length of this layer
    uint32_t outDim = 0;  ///< output feature length of this layer
    double xDensity = 0.0; ///< density of the synthetic X(i)
};

/**
 * Per-layer feature lengths {F0, H, .., H, C} for a depth-k model of
 * @p shape: a 1-layer model maps F0 directly to C; deeper models place
 * k-1 hidden layers of width H in between. Size is numLayers + 1.
 */
std::vector<uint32_t> layerDims(const graph::GcnShape &shape,
                                uint32_t numLayers);

/**
 * Immutable depth- and model-independent artefacts of one (dataset,
 * tier, partition plan): the synthetic graph, its normalized
 * adjacency, and GROW's preprocessing outputs. Shared (by shared_ptr)
 * between every workload built on top of it -- never mutated after
 * construction.
 */
struct GraphArtifacts
{
    const graph::DatasetSpec *spec = nullptr;
    graph::ScaleTier tier = graph::ScaleTier::Mini;
    PartitionPlan plan;

    /** Partitioning artefacts built. */
    bool hasPartitioning = false;
    /** Hard per-cluster node bound the clustering honours (0 = none). */
    uint32_t maxClusterNodes = 0;

    /**
     * The heap graph, original labelling. EMPTY on file-backed bundles
     * (the graph stays on disk) -- use graphView() unless you
     * specifically need the heap object.
     */
    graph::Graph graph;
    /**
     * The mmap-backed graph of a file-backed bundle
     * (dataset=file:<path>); null for synthesized bundles, whose graph
     * lives in `graph`. Exactly one of the two is populated --
     * consumers stream either through graphView().
     */
    std::shared_ptr<const graph::MappedCsrGraph> mapped;
    /** Normalized adjacency, original labelling (baselines). */
    sparse::CsrMatrix adjacency;
    sparse::CsrMatrix adjacencyPartitioned; ///< relabeled
    partition::RelabelResult relabel;
    std::vector<std::vector<NodeId>> hdnLists; ///< relabeled IDs

    /**
     * CSR view of the graph -- the heap copy or the mmap-backed file.
     * This is the accessor every consumer should stream through.
     */
    graph::CsrView graphView() const
    {
        return mapped ? mapped->view() : graph.view();
    }

    /** Whether the graph streams from a mmap-backed .growcsr file. */
    bool fileBacked() const { return mapped != nullptr; }

    uint32_t nodes() const { return graphView().numNodes(); }

    /**
     * Wall-clock profile of the build that produced this bundle
     * (profile=1 benches emit it as the build_phase metric family).
     * Valid only when the bundle was actually built in this process;
     * cache hits and disk loads leave it invalid.
     */
    struct BuildProfile
    {
        bool valid = false;
        uint32_t threads = 1;      ///< workers the build ran with
        double synthMs = 0.0;      ///< graph synthesis or file mapping
        double normalizeMs = 0.0;  ///< normalized adjacency build
        double partitionMs = 0.0;  ///< multilevel partitioning
        double relabelMs = 0.0;    ///< relabel + permuted adjacency
        double hdnMs = 0.0;        ///< per-cluster HDN ranking
        double totalMs = 0.0;
        uint64_t arcs = 0;         ///< graph arcs processed

        /** Arc throughput of the whole build (the edges/s metric). */
        double arcsPerSec() const
        {
            return totalMs > 0.0
                       ? static_cast<double>(arcs) / (totalMs / 1000.0)
                       : 0.0;
        }
    };

    BuildProfile buildProfile;
};

/**
 * Default nodes-per-cluster target for @p shape: a cluster whose nodes
 * all fit in the HDN cache turns every intra-cluster reference into a
 * hit. 512 KB / (hidden x 8 B) rows, capped by the 4096-entry CAM
 * (Table III), floored at 64.
 */
uint32_t defaultClusterSize(const graph::GcnShape &shape, uint32_t hdn_top_n);

/**
 * Synthesise the graph of @p spec at @p tier (or mmap it for a
 * file-backed spec) and run the partitioning preprocessing of @p plan.
 * Deterministic for (spec, tier, plan); the depth/seed knobs of
 * WorkloadConfig do not affect the result, and neither does
 * @p threads: only order-independent disjoint-write stages are
 * parallelized (in thread-count-independent chunks), so every thread
 * count yields a bit-identical bundle.
 */
std::shared_ptr<const GraphArtifacts>
buildGraphArtifacts(const graph::DatasetSpec &spec, graph::ScaleTier tier,
                    const PartitionPlan &plan = {}, uint32_t threads = 1);

/** A fully constructed per-dataset workload. */
struct GcnWorkload
{
    /** Shared graph-level artefacts (never null after construction). */
    std::shared_ptr<const GraphArtifacts> artifacts;

    /** GNN layer type this workload is lowered as. */
    ModelKind model = ModelKind::Gcn;

    /** Per-layer shape/density plan; size is the model depth. */
    std::vector<LayerSpec> layers;

    /**
     * Per-layer feature matrices X(i), original labelling. Values
     * present only with functionalData; otherwise structure-only
     * (CsrMatrix::hasValues() is false), with the same rowPtr/colIdx.
     */
    std::vector<sparse::CsrMatrix> features;
    /**
     * The same matrices in the cluster-contiguous labelling of
     * adjacencyPartitioned(): row v of entry l is row
     * relabel().newToOld[v] of features[l]. Node relabelling only
     * changes the order in which the engine walks the rows, so each
     * entry is a row selection of its features entry (permuteRows): it
     * shares that matrix's column and value arrays instead of copying
     * them, and carries values exactly when it does. Walk it row by
     * row; its raw colIdx() panics.
     */
    std::vector<sparse::CsrMatrix> featuresPartitioned;

    /** Per-layer dense weights W(i) (empty unless functionalData). */
    std::vector<sparse::DenseMatrix> weights;

    /**
     * GIN-only operands. The aggregation streams the GIN sum operand
     * A_gin = A + (1+eps)I (binary adjacency, epsilon-weighted self
     * loop -- GIN's central-node weighting lives here, not in a
     * normalized A). X'(i) is the synthetic sparse stand-in for
     * relu(A_gin X(i) W(i)) that feeds the trailing MLP combination of
     * layer i (see DESIGN.md substitutions; structure-only unless
     * functionalData, like features; its partitioned layout is a row
     * selection, like featuresPartitioned), and mlpWeights holds its
     * outDim x outDim weight.
     */
    double ginEpsilon = 0.0;
    sparse::CsrMatrix adjacencyGin;
    sparse::CsrMatrix adjacencyGinPartitioned;
    std::vector<sparse::CsrMatrix> mlpFeatures;
    std::vector<sparse::CsrMatrix> mlpFeaturesPartitioned;
    std::vector<sparse::DenseMatrix> mlpWeights;

    /**
     * SAGEConv-only operands: the fanout-k sampled, mean-normalized
     * adjacency (graph::sampleNeighborAdjacency) the aggregation
     * streams, in both labellings. Built per workload like A_gin -- the
     * fanout is a model knob, not a graph artefact. sageFanout is 0 on
     * models that do not sample.
     */
    uint32_t sageFanout = 0;
    sparse::CsrMatrix sampledAdjacency;
    sparse::CsrMatrix sampledAdjacencyPartitioned;

    /** Dataset the workload was built from (null only if default-
     *  constructed; every built workload has one). */
    const graph::DatasetSpec *spec() const
    {
        return artifacts ? artifacts->spec : nullptr;
    }
    graph::ScaleTier tier() const { return artifacts->tier; }
    /** Table I layer shape {F0, H, C} of the dataset. */
    const graph::GcnShape &shape() const { return artifacts->spec->gcn; }

    /** The synthetic graph, original labelling. EMPTY on file-backed
     *  workloads -- stream through graphView() instead. */
    const graph::Graph &graph() const { return artifacts->graph; }
    /** CSR view of the graph (heap or mmap-backed). */
    graph::CsrView graphView() const { return artifacts->graphView(); }
    /** Normalized adjacency, original labelling. */
    const sparse::CsrMatrix &adjacency() const
    {
        return artifacts->adjacency;
    }
    /** Whether partitioning artefacts were built. */
    bool hasPartitioning() const { return artifacts->hasPartitioning; }
    /** Normalized adjacency in the cluster-contiguous labelling. */
    const sparse::CsrMatrix &adjacencyPartitioned() const
    {
        return artifacts->adjacencyPartitioned;
    }
    /** Relabeling permutation + cluster layout. */
    const partition::RelabelResult &relabel() const
    {
        return artifacts->relabel;
    }
    /** Per-cluster HDN ID lists (relabeled IDs). */
    const std::vector<std::vector<NodeId>> &hdnLists() const
    {
        return artifacts->hdnLists;
    }

    /** Whether the sampled adjacency was built (SAGEConv models). */
    bool hasSampling() const { return sageFanout > 0; }
    /** Sampled adjacency (SAGEConv operand), original labelling. */
    const sparse::CsrMatrix &adjacencySampled() const
    {
        return sampledAdjacency;
    }
    /** Sampled adjacency in the cluster-contiguous labelling. */
    const sparse::CsrMatrix &adjacencySampledPartitioned() const
    {
        return sampledAdjacencyPartitioned;
    }

    uint32_t nodes() const { return artifacts->nodes(); }
    uint32_t numLayers() const
    {
        return static_cast<uint32_t>(layers.size());
    }

    const LayerSpec &layer(uint32_t i) const { return layers.at(i); }
    /** Input feature matrix of layer @p i, original labelling. */
    const sparse::CsrMatrix &x(uint32_t i) const { return features.at(i); }
    /** Input feature matrix of layer @p i, partitioned labelling. */
    const sparse::CsrMatrix &xPartitioned(uint32_t i) const
    {
        return featuresPartitioned.at(i);
    }
    /** Dense weight matrix of layer @p i (functionalData only). */
    const sparse::DenseMatrix &weight(uint32_t i) const
    {
        return weights.at(i);
    }
    /** GIN second-MLP-stage input of layer @p i, original labelling. */
    const sparse::CsrMatrix &xMlp(uint32_t i) const
    {
        return mlpFeatures.at(i);
    }
    /** GIN second-MLP-stage input of layer @p i, partitioned. */
    const sparse::CsrMatrix &xMlpPartitioned(uint32_t i) const
    {
        return mlpFeaturesPartitioned.at(i);
    }
    /** GIN second-MLP-stage weight of layer @p i (functionalData). */
    const sparse::DenseMatrix &mlpWeight(uint32_t i) const
    {
        return mlpWeights.at(i);
    }
    bool hasFunctionalData() const { return !weights.empty(); }
};

/**
 * Layer the per-workload data (synthetic features, the model's
 * operands, optional weights) of @p config on top of shared
 * @p artifacts. The expensive graph-level state is borrowed, not
 * rebuilt: any number of models/depths/seeds can reuse one bundle.
 * config.tier and config.plan must match the ones the artefacts were
 * built with.
 */
GcnWorkload buildLayerData(std::shared_ptr<const GraphArtifacts> artifacts,
                           const WorkloadConfig &config);

/** Build the workload for @p spec under @p config (one-shot). */
GcnWorkload buildWorkload(const graph::DatasetSpec &spec,
                          const WorkloadConfig &config);

/**
 * Permute the rows of a CSR matrix: row i of the result is row
 * new_to_old[i] of @p m. The result is a row selection of @p m
 * (sparse::CsrMatrix's (source, rows) constructor): it shares @p m's
 * column and value arrays, so it costs O(rows), and it carries values
 * exactly when @p m does. @p new_to_old must be a permutation.
 */
sparse::CsrMatrix permuteRows(const sparse::CsrMatrix &m,
                              const std::vector<NodeId> &new_to_old);

} // namespace grow::gcn
