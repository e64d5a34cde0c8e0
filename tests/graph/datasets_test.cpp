#include <gtest/gtest.h>

#include "graph/datasets.hpp"
#include "util/binfile.hpp"

namespace grow::graph {
namespace {

TEST(Datasets, SpecFieldsRoundTripAndRejectTruncation)
{
    for (const auto &spec : allDatasets()) {
        util::BinWriter w;
        encodeSpecFields(w, spec);
        const std::string &bytes = w.bytes();

        DatasetSpec back;
        util::BinReader r(bytes.data(), 0, bytes.size());
        ASSERT_TRUE(decodeSpecFields(r, back)) << spec.name;
        EXPECT_TRUE(r.done()) << spec.name;
        util::BinWriter again;
        encodeSpecFields(again, back);
        EXPECT_EQ(again.bytes(), bytes) << spec.name;
        EXPECT_EQ(back.name, spec.name);
        EXPECT_EQ(back.paperArcs, spec.paperArcs);
        EXPECT_EQ(back.gcn.classes, spec.gcn.classes);
        EXPECT_EQ(back.seed, spec.seed);
        EXPECT_EQ(back.tinyDegreeDiv, spec.tinyDegreeDiv);

        for (size_t keep : {size_t{0}, size_t{3}, bytes.size() / 2,
                            bytes.size() - 1}) {
            DatasetSpec cut;
            util::BinReader truncated(bytes.data(), 0, keep);
            EXPECT_FALSE(decodeSpecFields(truncated, cut))
                << spec.name << " kept " << keep << " bytes";
        }
    }
}

TEST(Datasets, AllEightPresent)
{
    const auto &all = allDatasets();
    ASSERT_EQ(all.size(), 8u);
    EXPECT_EQ(all[0].name, "cora");
    EXPECT_EQ(all[7].name, "amazon");
}

TEST(Datasets, TableOneStructureTranscribed)
{
    const auto &reddit = datasetByName("reddit");
    EXPECT_EQ(reddit.paperNodes, 232965u);
    EXPECT_EQ(reddit.paperArcs, 114848857u);
    EXPECT_NEAR(reddit.paperAvgDegree, 493.0, 1.0);
    EXPECT_EQ(reddit.gcn.inFeatures, 602u);
    EXPECT_EQ(reddit.gcn.hidden, 64u);
    EXPECT_EQ(reddit.gcn.classes, 41u);
    EXPECT_DOUBLE_EQ(reddit.x0Density, 1.0);
    EXPECT_NEAR(reddit.x1Density, 0.639, 1e-9);

    const auto &cora = datasetByName("cora");
    EXPECT_EQ(cora.paperNodes, 2708u);
    EXPECT_EQ(cora.gcn.inFeatures, 1433u);
    EXPECT_EQ(cora.gcn.hidden, 16u);
    EXPECT_EQ(cora.gcn.classes, 7u);
}

TEST(Datasets, PaperDensityConsistentWithStructure)
{
    // Density of A should equal arcs / nodes^2 as published.
    for (const auto &d : allDatasets()) {
        double derived = static_cast<double>(d.paperArcs) /
                         (static_cast<double>(d.paperNodes) *
                          static_cast<double>(d.paperNodes));
        EXPECT_NEAR(derived / d.paperDensityA, 1.0, 0.05) << d.name;
    }
}

TEST(Datasets, LookupCaseInsensitive)
{
    EXPECT_EQ(datasetByName("CoRa").name, "cora");
}

TEST(Datasets, UnknownNameFatal)
{
    EXPECT_ANY_THROW(datasetByName("nope"));
}

TEST(Datasets, NamesAllExpands)
{
    auto v = datasetsByNames({"all"});
    EXPECT_EQ(v.size(), 8u);
    auto two = datasetsByNames({"cora", "yelp"});
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[1].name, "yelp");
}

TEST(Datasets, TierParsing)
{
    EXPECT_EQ(tierFromString("Full"), ScaleTier::Full);
    EXPECT_EQ(tierFromString("mini"), ScaleTier::Mini);
    EXPECT_EQ(tierFromString("TINY"), ScaleTier::Tiny);
    EXPECT_ANY_THROW(tierFromString("medium"));
}

TEST(Datasets, ScaledNodesMonotoneAcrossTiers)
{
    for (const auto &d : allDatasets()) {
        EXPECT_GE(scaledNodes(d, ScaleTier::Full),
                  scaledNodes(d, ScaleTier::Mini));
        EXPECT_GE(scaledNodes(d, ScaleTier::Mini),
                  scaledNodes(d, ScaleTier::Tiny));
        EXPECT_LE(scaledNodes(d, ScaleTier::Unit), 800u);
    }
}

TEST(Datasets, FullTierMatchesPaperNodes)
{
    for (const auto &d : allDatasets())
        EXPECT_EQ(scaledNodes(d, ScaleTier::Full), d.paperNodes);
}

TEST(Datasets, DegreeNeverExceedsHalfNodes)
{
    for (const auto &d : allDatasets())
        for (auto tier : {ScaleTier::Full, ScaleTier::Mini,
                          ScaleTier::Tiny, ScaleTier::Unit})
            EXPECT_LE(scaledAvgDegree(d, tier),
                      scaledNodes(d, tier) / 2.0)
                << d.name;
}

TEST(Datasets, BuildUnitTierFast)
{
    auto inst = buildDataset(datasetByName("cora"), ScaleTier::Unit);
    EXPECT_LE(inst.nodes(), 800u);
    EXPECT_GT(inst.graph.numArcs(), 0u);
    EXPECT_EQ(inst.plantedCommunity.size(), inst.nodes());
}

TEST(Datasets, BuildDeterministic)
{
    auto a = buildDataset(datasetByName("citeseer"), ScaleTier::Unit);
    auto b = buildDataset(datasetByName("citeseer"), ScaleTier::Unit);
    EXPECT_EQ(a.graph.adjacency(), b.graph.adjacency());
}

TEST(Datasets, MiniTierPreservesDegreeForSmallGraphs)
{
    // Small graphs are not rescaled at mini tier.
    const auto &cora = datasetByName("cora");
    EXPECT_EQ(scaledNodes(cora, ScaleTier::Mini), cora.paperNodes);
    EXPECT_DOUBLE_EQ(scaledAvgDegree(cora, ScaleTier::Mini),
                     cora.paperAvgDegree);
}

} // namespace
} // namespace grow::graph
