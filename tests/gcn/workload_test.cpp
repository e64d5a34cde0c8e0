#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>

#include "accel/gcnax.hpp"
#include "core/grow.hpp"
#include "costmodel/workload_stats.hpp"
#include "gcn/workload.hpp"
#include "sparse/convert.hpp"
#include "util/random.hpp"

namespace grow::gcn {
namespace {

/** @p a and @p b have the same row pointers and, row by row, the same
 *  columns (either may be a row selection). */
void
expectSameStructure(const sparse::CsrMatrix &a, const sparse::CsrMatrix &b,
                    const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    EXPECT_EQ(a.rowPtr(), b.rowPtr()) << what;
    for (NodeId r = 0; r < a.rows(); ++r) {
        const auto ac = a.rowCols(r);
        const auto bc = b.rowCols(r);
        ASSERT_TRUE(std::equal(ac.begin(), ac.end(), bc.begin(), bc.end()))
            << what << " row " << r;
    }
}

/** A contiguous copy of @p m's rows, in row order. */
sparse::CsrMatrix
materialised(const sparse::CsrMatrix &m)
{
    std::vector<uint64_t> rowPtr{0};
    std::vector<NodeId> colIdx;
    std::vector<double> values;
    for (NodeId r = 0; r < m.rows(); ++r) {
        const auto cols = m.rowCols(r);
        colIdx.insert(colIdx.end(), cols.begin(), cols.end());
        if (m.hasValues()) {
            const auto vals = m.rowVals(r);
            values.insert(values.end(), vals.begin(), vals.end());
        }
        rowPtr.push_back(colIdx.size());
    }
    return sparse::CsrMatrix::fromRaw(m.rows(), m.cols(), std::move(rowPtr),
                                      std::move(colIdx), std::move(values));
}

WorkloadConfig
unitConfig(bool functional = false)
{
    WorkloadConfig c;
    c.tier = graph::ScaleTier::Unit;
    c.functionalData = functional;
    return c;
}

TEST(Workload, BuildsAllArtefacts)
{
    auto w = buildWorkload(graph::datasetByName("cora"), unitConfig());
    EXPECT_GT(w.nodes(), 0u);
    EXPECT_TRUE(w.hasPartitioning());
    EXPECT_EQ(w.adjacency().rows(), w.nodes());
    EXPECT_EQ(w.adjacencyPartitioned().rows(), w.nodes());
    ASSERT_EQ(w.numLayers(), 2u);
    EXPECT_EQ(w.x(0).rows(), w.nodes());
    EXPECT_EQ(w.x(0).cols(), w.shape().inFeatures);
    EXPECT_EQ(w.x(1).cols(), w.shape().hidden);
    EXPECT_EQ(w.hdnLists().size(),
              w.relabel().clustering.numClusters());
}

TEST(Workload, FeatureDensitiesMatchTableOne)
{
    auto spec = graph::datasetByName("pubmed"); // x0 10%, x1 77.6%
    auto w = buildWorkload(spec, unitConfig());
    EXPECT_NEAR(w.x(0).density(), spec.x0Density, 0.02);
    EXPECT_NEAR(w.x(1).density(), spec.x1Density, 0.05);
}

TEST(Workload, LayerDimsChainAcrossDepths)
{
    graph::GcnShape shape;
    shape.inFeatures = 500;
    shape.hidden = 16;
    shape.classes = 3;
    EXPECT_EQ(layerDims(shape, 1), (std::vector<uint32_t>{500, 3}));
    EXPECT_EQ(layerDims(shape, 2), (std::vector<uint32_t>{500, 16, 3}));
    EXPECT_EQ(layerDims(shape, 4),
              (std::vector<uint32_t>{500, 16, 16, 16, 3}));
}

TEST(Workload, DeepModelBuildsPerLayerArtefacts)
{
    WorkloadConfig c = unitConfig(true);
    c.numLayers = 3;
    auto w = buildWorkload(graph::datasetByName("cora"), c);
    ASSERT_EQ(w.numLayers(), 3u);
    ASSERT_EQ(w.features.size(), 3u);
    ASSERT_EQ(w.featuresPartitioned.size(), 3u);
    ASSERT_EQ(w.weights.size(), 3u);
    for (uint32_t i = 0; i < 3; ++i) {
        EXPECT_EQ(w.x(i).rows(), w.nodes());
        EXPECT_EQ(w.x(i).cols(), w.layer(i).inDim);
        EXPECT_EQ(w.xPartitioned(i).cols(), w.layer(i).inDim);
        EXPECT_EQ(w.weight(i).rows(), w.layer(i).inDim);
        EXPECT_EQ(w.weight(i).cols(), w.layer(i).outDim);
        if (i > 0) {
            EXPECT_EQ(w.layer(i).inDim, w.layer(i - 1).outDim);
        }
    }
    EXPECT_EQ(w.layer(0).inDim, w.shape().inFeatures);
    EXPECT_EQ(w.layer(1).inDim, w.shape().hidden);
    EXPECT_EQ(w.layer(2).outDim, w.shape().classes);
    // Deep X(i) substitutes reuse the published post-layer-1 density.
    EXPECT_DOUBLE_EQ(w.layer(2).xDensity, w.spec()->x1Density);
}

TEST(Workload, SingleLayerModelMapsInputToClasses)
{
    WorkloadConfig c = unitConfig();
    c.numLayers = 1;
    auto w = buildWorkload(graph::datasetByName("citeseer"), c);
    ASSERT_EQ(w.numLayers(), 1u);
    EXPECT_EQ(w.layer(0).inDim, w.shape().inFeatures);
    EXPECT_EQ(w.layer(0).outDim, w.shape().classes);
}

TEST(Workload, PartitionedAdjacencyIsPermutation)
{
    auto w = buildWorkload(graph::datasetByName("citeseer"),
                           unitConfig());
    EXPECT_EQ(w.adjacencyPartitioned().nnz(), w.adjacency().nnz());
    // Value multisets agree.
    auto a = w.adjacency().values();
    auto b = w.adjacencyPartitioned().values();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Workload, PermuteRowsConsistentWithRelabel)
{
    auto w = buildWorkload(graph::datasetByName("cora"), unitConfig());
    // Row i of xPartitioned(0) equals row newToOld[i] of x(0).
    for (NodeId i = 0; i < std::min(w.nodes(), 50u); ++i) {
        auto pc = w.xPartitioned(0).rowCols(i);
        auto oc = w.x(0).rowCols(w.relabel().newToOld[i]);
        ASSERT_EQ(pc.size(), oc.size());
        for (size_t j = 0; j < pc.size(); ++j)
            EXPECT_EQ(pc[j], oc[j]);
    }
}

TEST(Workload, FunctionalDataOnlyOnRequest)
{
    auto w1 = buildWorkload(graph::datasetByName("cora"), unitConfig());
    EXPECT_FALSE(w1.hasFunctionalData());
    auto w2 =
        buildWorkload(graph::datasetByName("cora"), unitConfig(true));
    ASSERT_TRUE(w2.hasFunctionalData());
    ASSERT_EQ(w2.weights.size(), 2u);
    EXPECT_EQ(w2.weight(0).rows(), w2.shape().inFeatures);
    EXPECT_EQ(w2.weight(0).cols(), w2.shape().hidden);
    EXPECT_EQ(w2.weight(1).rows(), w2.shape().hidden);
    EXPECT_EQ(w2.weight(1).cols(), w2.shape().classes);
}

TEST(Workload, FeatureStructureIndependentOfFunctionalData)
{
    // Feature values are kept only for functional runs; the random
    // stream, and with it every feature structure, must not notice.
    auto expectSameStructures =
        [](const std::vector<sparse::CsrMatrix> &bare,
           const std::vector<sparse::CsrMatrix> &valued,
           const std::string &what) {
            ASSERT_EQ(bare.size(), valued.size()) << what;
            for (size_t i = 0; i < bare.size(); ++i) {
                expectSameStructure(bare[i], valued[i], what);
                ASSERT_GT(bare[i].nnz(), 0u) << what;
                EXPECT_FALSE(bare[i].hasValues()) << what;
                EXPECT_TRUE(valued[i].hasValues()) << what;
            }
        };
    for (const char *name : {"cora", "citeseer", "pubmed"}) {
        WorkloadConfig c = unitConfig();
        auto artifacts = buildGraphArtifacts(graph::datasetByName(name),
                                             c.tier, c.plan);
        for (ModelKind model : {ModelKind::Gcn, ModelKind::Gin}) {
            for (uint32_t depth : {2u, 3u}) {
                c.model = model;
                c.numLayers = depth;
                c.functionalData = false;
                const auto bare = buildLayerData(artifacts, c);
                c.functionalData = true;
                const auto valued = buildLayerData(artifacts, c);
                const std::string what = std::string(name) + " " +
                                         modelKindName(model) + " depth " +
                                         std::to_string(depth);
                EXPECT_FALSE(bare.hasFunctionalData());
                expectSameStructures(bare.features, valued.features,
                                     what + " features");
                expectSameStructures(bare.featuresPartitioned,
                                     valued.featuresPartitioned,
                                     what + " featuresPartitioned");
                expectSameStructures(bare.mlpFeatures, valued.mlpFeatures,
                                     what + " mlpFeatures");
                expectSameStructures(bare.mlpFeaturesPartitioned,
                                     valued.mlpFeaturesPartitioned,
                                     what + " mlpFeaturesPartitioned");
                EXPECT_EQ(bare.features.size(), depth);
                EXPECT_EQ(bare.mlpFeatures.size(),
                          model == ModelKind::Gin ? depth : 0u);
            }
        }
    }
}

TEST(Workload, DeterministicForSeed)
{
    auto a = buildWorkload(graph::datasetByName("cora"), unitConfig());
    auto b = buildWorkload(graph::datasetByName("cora"), unitConfig());
    EXPECT_EQ(a.adjacency().colIdx(), b.adjacency().colIdx());
    EXPECT_EQ(a.x(0).colIdx(), b.x(0).colIdx());
    EXPECT_EQ(a.relabel().newToOld, b.relabel().newToOld);
}

TEST(Workload, NoPartitioningOnRequest)
{
    WorkloadConfig c = unitConfig();
    c.plan.buildPartitioning = false;
    auto w = buildWorkload(graph::datasetByName("cora"), c);
    EXPECT_FALSE(w.hasPartitioning());
    EXPECT_EQ(w.adjacencyPartitioned().rows(), 0u);
}

TEST(Workload, ClusterSizeNeverExceedsTarget)
{
    // Regression: numParts used floor division (n / clusterSize), so
    // n=800 at target 600 yielded ONE 800-row cluster -- overshooting
    // the HDN cache the target was sized against by 33%. Ceiling
    // division plus the hard split bound must cap every cluster.
    WorkloadConfig c = unitConfig();
    c.plan.targetClusterSize = 600; // unit-tier cora has 800 nodes
    auto w = buildWorkload(graph::datasetByName("cora"), c);
    ASSERT_EQ(w.nodes(), 800u);
    const auto &clustering = w.relabel().clustering;
    EXPECT_GE(clustering.numClusters(), 2u);
    for (uint32_t cl = 0; cl < clustering.numClusters(); ++cl)
        EXPECT_LE(clustering.clusterSize(cl), 600u)
            << "cluster " << cl << " overshoots the cache target";
    EXPECT_EQ(w.artifacts->maxClusterNodes, 600u);
}

TEST(Workload, ClusterBoundHoldsAcrossTargets)
{
    for (uint32_t target : {64u, 100u, 299u, 750u}) {
        WorkloadConfig c = unitConfig();
        c.plan.targetClusterSize = target;
        auto w = buildWorkload(graph::datasetByName("flickr"), c);
        const auto &clustering = w.relabel().clustering;
        uint32_t covered = 0;
        for (uint32_t cl = 0; cl < clustering.numClusters(); ++cl) {
            EXPECT_LE(clustering.clusterSize(cl), target);
            covered += clustering.clusterSize(cl);
        }
        // The split only adds boundaries: every node stays covered.
        EXPECT_EQ(covered, w.nodes());
    }
}

TEST(Workload, ArtifactsSharedAcrossDepths)
{
    auto artifacts = buildGraphArtifacts(graph::datasetByName("cora"),
                                         graph::ScaleTier::Unit);
    WorkloadConfig c2 = unitConfig();
    WorkloadConfig c4 = unitConfig();
    c4.numLayers = 4;
    auto w2 = buildLayerData(artifacts, c2);
    auto w4 = buildLayerData(artifacts, c4);
    // Same immutable bundle, not copies.
    EXPECT_EQ(w2.artifacts.get(), artifacts.get());
    EXPECT_EQ(w4.artifacts.get(), artifacts.get());
    EXPECT_EQ(&w2.adjacency(), &w4.adjacency());
    // Depth-dependent data stays per-workload.
    EXPECT_EQ(w2.features.size(), 2u);
    EXPECT_EQ(w4.features.size(), 4u);
}

TEST(Workload, SplitBuildMatchesOneShotBuild)
{
    WorkloadConfig c = unitConfig(true);
    c.numLayers = 3;
    auto oneShot = buildWorkload(graph::datasetByName("pubmed"), c);
    auto artifacts = buildGraphArtifacts(graph::datasetByName("pubmed"),
                                         c.tier, c.plan);
    auto split = buildLayerData(artifacts, c);
    EXPECT_EQ(oneShot.adjacency().colIdx(), split.adjacency().colIdx());
    EXPECT_EQ(oneShot.relabel().newToOld, split.relabel().newToOld);
    EXPECT_EQ(oneShot.hdnLists(), split.hdnLists());
    ASSERT_EQ(oneShot.features.size(), split.features.size());
    for (size_t i = 0; i < oneShot.features.size(); ++i) {
        EXPECT_EQ(oneShot.features[i].colIdx(), split.features[i].colIdx());
        EXPECT_EQ(oneShot.features[i].values(), split.features[i].values());
    }
    ASSERT_EQ(oneShot.weights.size(), split.weights.size());
}

TEST(Workload, SampledAdjacencyIsOneDrawPerDatasetAndFanout)
{
    // The sample is layer data, but its seed derives from the dataset
    // spec: every depth and feature seed of a sage workload aggregates
    // over the same operand, and GCN workloads carry none.
    auto artifacts = buildGraphArtifacts(graph::datasetByName("citeseer"),
                                         graph::ScaleTier::Unit);
    WorkloadConfig c = unitConfig();
    c.model = ModelKind::SageMean;
    c.sageFanout = 4;
    const auto first = buildLayerData(artifacts, c);
    c.numLayers = 3;
    c.seed = 99;
    c.model = ModelKind::SagePool;
    const auto second = buildLayerData(artifacts, c);
    ASSERT_TRUE(first.hasSampling());
    EXPECT_EQ(first.sageFanout, 4u);
    for (const auto *m : {&first.adjacencySampled(),
                          &first.adjacencySampledPartitioned()}) {
        EXPECT_EQ(m->rows(), first.nodes());
        EXPECT_TRUE(m->validate());
    }
    EXPECT_EQ(first.adjacencySampled().colIdx(),
              second.adjacencySampled().colIdx());
    EXPECT_EQ(first.adjacencySampled().values(),
              second.adjacencySampled().values());
    EXPECT_EQ(first.adjacencySampledPartitioned().colIdx(),
              second.adjacencySampledPartitioned().colIdx());

    c.model = ModelKind::Gcn;
    const auto gcn = buildLayerData(artifacts, c);
    EXPECT_FALSE(gcn.hasSampling());
    EXPECT_EQ(gcn.adjacencySampled().nnz(), 0u);
}

TEST(Workload, LayerDataRejectsMismatchedArtifacts)
{
    auto artifacts = buildGraphArtifacts(graph::datasetByName("cora"),
                                         graph::ScaleTier::Unit);
    WorkloadConfig wrongTier = unitConfig();
    wrongTier.tier = graph::ScaleTier::Tiny;
    EXPECT_ANY_THROW(buildLayerData(artifacts, wrongTier));
    WorkloadConfig wrongPart = unitConfig();
    wrongPart.plan.buildPartitioning = false;
    EXPECT_ANY_THROW(buildLayerData(artifacts, wrongPart));
    EXPECT_ANY_THROW(buildLayerData(nullptr, unitConfig()));
}

TEST(Workload, HdnListsWithinClusterBounds)
{
    auto w = buildWorkload(graph::datasetByName("flickr"), unitConfig());
    const auto &clustering = w.relabel().clustering;
    for (uint32_t c = 0; c < clustering.numClusters(); ++c) {
        for (NodeId v : w.hdnLists()[c]) {
            EXPECT_GE(v, clustering.clusterStart[c]);
            EXPECT_LT(v, clustering.clusterStart[c + 1]);
        }
    }
}

TEST(PermuteRows, SimpleExample)
{
    Rng rng(3);
    auto m = sparse::randomCsr(4, 6, 0.5, rng);
    auto p = permuteRows(m, {3, 2, 1, 0});
    EXPECT_EQ(p.nnz(), m.nnz());
    for (NodeId i = 0; i < 4; ++i) {
        auto a = p.rowCols(i);
        auto b = m.rowCols(3 - i);
        ASSERT_EQ(a.size(), b.size());
        for (size_t j = 0; j < a.size(); ++j)
            EXPECT_EQ(a[j], b[j]);
        auto av = p.rowVals(i);
        auto bv = m.rowVals(3 - i);
        for (size_t j = 0; j < av.size(); ++j)
            EXPECT_EQ(av[j], bv[j]);
    }
}

TEST(PermuteRows, StructureOnlyStaysStructureOnly)
{
    Rng a(3), b(3);
    const auto valued = sparse::randomCsr(30, 6, 0.5, a);
    const auto bare = sparse::randomCsr(30, 6, 0.5, b, false);
    std::vector<NodeId> perm(30);
    for (NodeId i = 0; i < 30; ++i)
        perm[i] = 29 - i;
    const auto pv = permuteRows(valued, perm);
    const auto pb = permuteRows(bare, perm);
    EXPECT_FALSE(pb.hasValues());
    EXPECT_TRUE(pv.hasValues());
    expectSameStructure(pb, pv, "reversed rows");
}

TEST(PermuteRows, RejectsANonPermutation)
{
    // Row 0 holds 2 non-zeros: taking it twice would read past the
    // 2 stored.
    const auto m =
        sparse::CsrMatrix::fromRaw(2, 2, {0, 2, 2}, {0, 1}, {1.0, 2.0});
    EXPECT_ANY_THROW(permuteRows(m, {0, 0}));
    EXPECT_ANY_THROW(permuteRows(m, {0}));
}

TEST(RowSelection, OutlivesItsSource)
{
    // What every row must read, recorded while the sources live.
    std::vector<std::vector<NodeId>> wantCols;
    std::vector<std::vector<double>> wantVals;
    std::optional<sparse::CsrMatrix> xp;
    {
        WorkloadConfig c = unitConfig(true);
        c.plan.targetClusterSize = 128; // a real permutation
        const auto w = buildWorkload(graph::datasetByName("cora"), c);
        ASSERT_FALSE(w.xPartitioned(0).contiguous());
        for (NodeId v = 0; v < w.nodes(); ++v) {
            const NodeId old = w.relabel().newToOld[v];
            const auto cols = w.x(0).rowCols(old);
            const auto vals = w.x(0).rowVals(old);
            wantCols.emplace_back(cols.begin(), cols.end());
            wantVals.emplace_back(vals.begin(), vals.end());
        }
        xp = w.xPartitioned(0);
    } // the workload, its features and their source matrix are gone
    ASSERT_TRUE(xp->hasValues());
    for (NodeId v = 0; v < xp->rows(); ++v) {
        const auto cols = xp->rowCols(v);
        const auto vals = xp->rowVals(v);
        ASSERT_TRUE(std::equal(cols.begin(), cols.end(),
                               wantCols[v].begin(), wantCols[v].end()))
            << "row " << v;
        ASSERT_TRUE(std::equal(vals.begin(), vals.end(),
                               wantVals[v].begin(), wantVals[v].end()))
            << "row " << v;
    }

    // A selection of a selection keeps the shared storage alive too.
    std::optional<sparse::CsrMatrix> tail;
    {
        Rng rng(9);
        const auto m = sparse::randomCsr(40, 12, 0.3, rng);
        std::vector<NodeId> reversed(40);
        std::iota(reversed.rbegin(), reversed.rend(), NodeId{0});
        const sparse::CsrMatrix view(m, reversed);
        const std::vector<NodeId> lastTen{30, 31, 32, 33, 34,
                                          35, 36, 37, 38, 39};
        tail.emplace(view, lastTen);
        wantCols.clear();
        for (NodeId r : lastTen) {
            const auto cols = view.rowCols(r);
            wantCols.emplace_back(cols.begin(), cols.end());
        }
    }
    for (NodeId r = 0; r < tail->rows(); ++r) {
        const auto cols = tail->rowCols(r);
        ASSERT_TRUE(std::equal(cols.begin(), cols.end(),
                               wantCols[r].begin(), wantCols[r].end()));
        EXPECT_EQ(tail->rowVals(r).size(), cols.size());
    }
}

/**
 * The readers whose results depend on the order or the count of the
 * column references -- GCNAX's tile census, the cost model's LRU and
 * pinned histograms and core::topReferencedColumns -- see a row
 * selection exactly as its materialised twin.
 */
void
expectReadersAgree(const sparse::CsrMatrix &view,
                   const partition::Clustering *clustering,
                   const std::vector<std::vector<NodeId>> *hdn_lists,
                   const std::string &what)
{
    ASSERT_FALSE(view.contiguous()) << what;
    const auto twin = materialised(view);
    ASSERT_TRUE(twin.contiguous()) << what;

    const accel::GcnaxSim gcnax(accel::GcnaxConfig{});
    for (uint32_t rhsCols : {16u, 64u}) {
        const auto a = gcnax.chooseTiling(view, rhsCols);
        const auto b = gcnax.chooseTiling(twin, rhsCols);
        EXPECT_EQ(a.tm, b.tm) << what;
        EXPECT_EQ(a.tk, b.tk) << what;
        EXPECT_EQ(a.tn, b.tn) << what;
        EXPECT_EQ(a.sparseFetch, b.sparseFetch) << what;
        EXPECT_EQ(a.denseFetch, b.denseFetch) << what;
        EXPECT_EQ(a.nonEmptyTiles, b.nonEmptyTiles) << what;
        EXPECT_EQ(a.estimatedTraffic, b.estimatedTraffic) << what;
    }

    for (bool artefacts : {true, false}) {
        const auto *cl = artefacts ? clustering : nullptr;
        const auto *lists = artefacts ? hdn_lists : nullptr;
        const auto a = costmodel::OperandStats::compute(view, cl, lists);
        const auto b = costmodel::OperandStats::compute(twin, cl, lists);
        EXPECT_EQ(a.nnz, b.nnz) << what;
        EXPECT_EQ(a.csrStreamBytes, b.csrStreamBytes) << what;
        EXPECT_EQ(a.lruHitPrefix, b.lruHitPrefix) << what;
        EXPECT_EQ(a.pinnedHitPrefix, b.pinnedHitPrefix) << what;
        EXPECT_EQ(a.clusterNnz, b.clusterNnz) << what;
    }

    for (uint32_t topN : {1u, 64u, view.cols() + 1}) {
        EXPECT_EQ(core::topReferencedColumns(view, topN),
                  core::topReferencedColumns(twin, topN))
            << what << " top " << topN;
    }
}

TEST(RowSelection, PositionOrderReadersAgreeWithMaterialisedTwin)
{
    // At unit scale cora is one cluster, relabelled by the identity,
    // and its partitioned X(0) is contiguous; smaller clusters make
    // the relabelling a real permutation.
    WorkloadConfig c = unitConfig();
    c.plan.targetClusterSize = 128;
    const auto w = buildWorkload(graph::datasetByName("cora"), c);
    ASSERT_GT(w.relabel().clustering.numClusters(), 1u);
    expectReadersAgree(w.xPartitioned(0), &w.relabel().clustering,
                       &w.hdnLists(), "cora X(0) partitioned");

    Rng rng(12);
    const auto m = sparse::randomCsr(300, 200, 0.05, rng, false);
    std::vector<NodeId> perm(m.rows());
    std::iota(perm.begin(), perm.end(), NodeId{0});
    rng.shuffle(perm);
    const sparse::CsrMatrix view(m, perm);
    partition::Clustering clustering;
    clustering.clusterStart = {0, 100, 250, 300};
    const std::vector<std::vector<NodeId>> lists = {
        {3, 9, 27, 81}, {2, 4, 8, 16, 32, 64, 128}, {199, 0}};
    expectReadersAgree(view, &clustering, &lists, "random permutation");
}

} // namespace
} // namespace grow::gcn
