/**
 * @file
 * Exactness pin of SAGEConv's sampled adjacency: an FNV-1a digest of
 * rowPtr, colIdx and the bit patterns of the values of both sampled
 * operands (original and cluster-contiguous labelling) of a sage-mean
 * workload, over three Table I datasets, two tiers, two fanouts and
 * two cluster sizes. The default plan keeps the small graphs in one
 * cluster, where the relabeling is the identity; 128-node clusters
 * make the relabeled copy differ from the original everywhere.
 *
 * The sample is drawn from the dataset graph with a seed derived from
 * the dataset spec, and the relabeled copy follows the partitioning
 * permutation. Moving where the operand is built or cached must leave
 * every bit of both matrices unchanged; this grid is that contract.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <vector>

#include "driver/workload_cache.hpp"
#include "util/checksum.hpp"

namespace grow::gcn {
namespace {

/** FNV-1a over every array element as 8 little-endian bytes. */
uint64_t
digest(const sparse::CsrMatrix &m)
{
    util::Fnv1a h;
    auto fold = [&h](uint64_t v) {
        unsigned char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<unsigned char>(v >> (8 * i));
        h.update(bytes, sizeof(bytes));
    };
    for (uint64_t p : m.rowPtr())
        fold(p);
    for (NodeId c : m.colIdx())
        fold(c);
    for (double v : m.values())
        fold(std::bit_cast<uint64_t>(v));
    return h.digest();
}

struct Pin
{
    uint64_t original;
    uint64_t partitioned;
};

// Grid order: dataset (outer), tier, cluster size, fanout (inner).
const char *const kDatasets[] = {"cora", "citeseer", "pubmed"};
constexpr graph::ScaleTier kTiers[] = {graph::ScaleTier::Unit,
                                       graph::ScaleTier::Mini};
constexpr uint32_t kClusterSizes[] = {0, 128};
constexpr uint32_t kFanouts[] = {3, 10};

// clang-format off
const std::vector<Pin> kPins = {
    {0x8d63399d21e5021fULL, 0x8d63399d21e5021fULL}, // cora @ unit, cluster 0, fanout 3
    {0x16db960a61cb4e23ULL, 0x16db960a61cb4e23ULL}, // cora @ unit, cluster 0, fanout 10
    {0x8d63399d21e5021fULL, 0x844a755a0e44fe8dULL}, // cora @ unit, cluster 128, fanout 3
    {0x16db960a61cb4e23ULL, 0xdf5600f67e16e128ULL}, // cora @ unit, cluster 128, fanout 10
    {0x6d1c08505a9fd7f1ULL, 0x6d1c08505a9fd7f1ULL}, // cora @ mini, cluster 0, fanout 3
    {0xd14ddbae844f211aULL, 0xd14ddbae844f211aULL}, // cora @ mini, cluster 0, fanout 10
    {0x6d1c08505a9fd7f1ULL, 0xbe3d2262b16ab9f7ULL}, // cora @ mini, cluster 128, fanout 3
    {0xd14ddbae844f211aULL, 0x65c2317db7548108ULL}, // cora @ mini, cluster 128, fanout 10
    {0xe63ece05f0fe30caULL, 0xe63ece05f0fe30caULL}, // citeseer @ unit, cluster 0, fanout 3
    {0x3681b7127cd92504ULL, 0x3681b7127cd92504ULL}, // citeseer @ unit, cluster 0, fanout 10
    {0xe63ece05f0fe30caULL, 0x6be76228ff57a4d8ULL}, // citeseer @ unit, cluster 128, fanout 3
    {0x3681b7127cd92504ULL, 0xe18a7ec5668cf315ULL}, // citeseer @ unit, cluster 128, fanout 10
    {0xd29bd3d695314e08ULL, 0xd29bd3d695314e08ULL}, // citeseer @ mini, cluster 0, fanout 3
    {0xd518a5bead905014ULL, 0xd518a5bead905014ULL}, // citeseer @ mini, cluster 0, fanout 10
    {0xd29bd3d695314e08ULL, 0x0822bc23a8f90286ULL}, // citeseer @ mini, cluster 128, fanout 3
    {0xd518a5bead905014ULL, 0xfb632912da043b73ULL}, // citeseer @ mini, cluster 128, fanout 10
    {0xbb926ac328f89ae5ULL, 0xbb926ac328f89ae5ULL}, // pubmed @ unit, cluster 0, fanout 3
    {0x18d7aeb98e7b1881ULL, 0x18d7aeb98e7b1881ULL}, // pubmed @ unit, cluster 0, fanout 10
    {0xbb926ac328f89ae5ULL, 0xb4f039e586dc9377ULL}, // pubmed @ unit, cluster 128, fanout 3
    {0x18d7aeb98e7b1881ULL, 0x663068d797883447ULL}, // pubmed @ unit, cluster 128, fanout 10
    {0xc4a3ac7eb407309cULL, 0x0f3a9b5347f4154aULL}, // pubmed @ mini, cluster 0, fanout 3
    {0x63b403a1e8479410ULL, 0x221af3bfb8ba42f1ULL}, // pubmed @ mini, cluster 0, fanout 10
    {0xc4a3ac7eb407309cULL, 0x5afc251dba572528ULL}, // pubmed @ mini, cluster 128, fanout 3
    {0x63b403a1e8479410ULL, 0x14acd71c9f05c957ULL}, // pubmed @ mini, cluster 128, fanout 10
};
// clang-format on

TEST(SampledAdjacencyPin, BothOperandsAreExact)
{
    driver::WorkloadCache cache;
    size_t i = 0;
    for (const char *name : kDatasets) {
        for (graph::ScaleTier tier : kTiers) {
            for (uint32_t cluster : kClusterSizes) {
                for (uint32_t fanout : kFanouts) {
                    WorkloadConfig wc;
                    wc.tier = tier;
                    wc.plan.targetClusterSize = cluster;
                    wc.model = ModelKind::SageMean;
                    wc.numLayers = 1;
                    wc.sageFanout = fanout;
                    const GcnWorkload w =
                        cache.workload(graph::datasetByName(name), wc);
                    ASSERT_TRUE(w.hasSampling());
                    const auto &original = w.adjacencySampled();
                    const auto &relabeled = w.adjacencySampledPartitioned();
                    ASSERT_TRUE(original.validate());
                    ASSERT_TRUE(relabeled.validate());
                    const Pin got{digest(original), digest(relabeled)};
                    char line[160];
                    std::snprintf(
                        line, sizeof(line),
                        "{0x%016llxULL, 0x%016llxULL}, "
                        "// %s @ %s, cluster %u, fanout %u",
                        static_cast<unsigned long long>(got.original),
                        static_cast<unsigned long long>(got.partitioned),
                        name, graph::tierName(tier), cluster, fanout);
                    if (i >= kPins.size()) {
                        ADD_FAILURE() << "unpinned case: " << line;
                    } else {
                        EXPECT_EQ(got.original, kPins[i].original) << line;
                        EXPECT_EQ(got.partitioned, kPins[i].partitioned)
                            << line;
                    }
                    ++i;
                }
            }
        }
    }
    EXPECT_EQ(kPins.size(), i);
}

} // namespace
} // namespace grow::gcn
