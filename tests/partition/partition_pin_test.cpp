/**
 * @file
 * Exactness pin of graph synthesis and of the multilevel partitioner:
 * FNV-1a digests of every Table I graph at tiny scale (the output of
 * Graph::fromEdges behind graph::buildDataset) and of
 * MultilevelPartitioner's assignments of those graphs at several part
 * counts, at threads=1 and threads=4.
 *
 * The tiny graphs have 2.7k-38k nodes, so their first coarsening
 * levels span up to 19 parallelFor chunks, and the part counts range
 * from a bisection to a graph that is never coarsened at all. Every
 * partitioned workload's node order comes out of these two stages; a
 * change to how they compute must leave every digest unchanged.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <vector>

#include "graph/datasets.hpp"
#include "partition/multilevel.hpp"
#include "util/checksum.hpp"

namespace grow::partition {
namespace {

/** FNV-1a over every element as 8 little-endian bytes. */
template <typename T>
void
fold(util::Fnv1a &h, std::span<const T> values)
{
    for (T value : values) {
        unsigned char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<unsigned char>(
                static_cast<uint64_t>(value) >> (8 * i));
        h.update(bytes, sizeof(bytes));
    }
}

uint64_t
digest(const graph::Graph &g)
{
    util::Fnv1a h;
    fold<uint64_t>(h, g.offsets());
    fold<NodeId>(h, g.adjacency());
    return h.digest();
}

uint64_t
digest(const std::vector<uint32_t> &assignment)
{
    util::Fnv1a h;
    fold<uint32_t>(h, assignment);
    return h.digest();
}

constexpr uint32_t kParts[] = {2, 7, 64, 250};

// One graph digest per dataset, then one assignment digest per part
// count, in allDatasets() order.
// clang-format off
const std::vector<uint64_t> kGraphPins = {
    0xd816ab56b8b48a4dULL, // cora
    0x6a316c19e72d8523ULL, // citeseer
    0xb4a6a0a04b9649beULL, // pubmed
    0x761dc767622e2b53ULL, // flickr
    0x66b39e1c159bc898ULL, // reddit
    0x840b6b4f22691fe9ULL, // yelp
    0x67cd658e2435b6a1ULL, // pokec
    0x170f7c7e9f35aa3cULL, // amazon
};
const std::vector<uint64_t> kPartitionPins = {
    0xf8733bbf4ce83664ULL, // cora k=2
    0xdfb171a5d3757000ULL, // cora k=7
    0x7ac16a4067dc987eULL, // cora k=64
    0x4936976f839cda50ULL, // cora k=250
    0x785bcefe63ab93c4ULL, // citeseer k=2
    0x372f6285bc18f3e6ULL, // citeseer k=7
    0x7f6476839d967bf3ULL, // citeseer k=64
    0x27eceba3ef5a21aeULL, // citeseer k=250
    0x43368ffda6f89745ULL, // pubmed k=2
    0xaf6a70ee034db1a0ULL, // pubmed k=7
    0x62f739079d4b4b3dULL, // pubmed k=64
    0x559a90f49800e799ULL, // pubmed k=250
    0xaa694e335be173e4ULL, // flickr k=2
    0x779f79ca5bfb35e7ULL, // flickr k=7
    0x2c3c1ee120918b30ULL, // flickr k=64
    0xbe176367d52bd951ULL, // flickr k=250
    0xb933c91f44b522c5ULL, // reddit k=2
    0x2331889aefb33065ULL, // reddit k=7
    0xd56948c3cc26dd52ULL, // reddit k=64
    0x610194cf92e02f71ULL, // reddit k=250
    0x049332b3266000e5ULL, // yelp k=2
    0xe4cd68a7b63ed183ULL, // yelp k=7
    0x17822e9b1e03db8eULL, // yelp k=64
    0x2073a433147a5cfcULL, // yelp k=250
    0x20cecf97adb33044ULL, // pokec k=2
    0x6abad7001022df83ULL, // pokec k=7
    0x7a4e4ce45d212ebeULL, // pokec k=64
    0x5a4e60aec562b104ULL, // pokec k=250
    0xdf3ad7272238d224ULL, // amazon k=2
    0xadf9149aedfdcd82ULL, // amazon k=7
    0x3e94f81ec87a2dd9ULL, // amazon k=64
    0xba790cca9a40bad7ULL, // amazon k=250
};
// clang-format on

TEST(PartitionPin, TinyGraphsAndAssignmentsAreExact)
{
    size_t gi = 0;
    size_t pi = 0;
    for (const auto &spec : graph::allDatasets()) {
        const auto inst = graph::buildDataset(spec, graph::ScaleTier::Tiny);
        ASSERT_TRUE(inst.graph.validate()) << spec.name;
        const uint64_t g = digest(inst.graph);
        char line[160];
        std::snprintf(line, sizeof(line), "0x%016llxULL, // %s",
                      static_cast<unsigned long long>(g),
                      spec.name.c_str());
        if (gi >= kGraphPins.size())
            ADD_FAILURE() << "unpinned graph: " << line;
        else
            EXPECT_EQ(g, kGraphPins[gi]) << line;
        ++gi;

        for (uint32_t k : kParts) {
            PartitionConfig pc;
            pc.numParts = k;
            pc.seed = spec.seed * 31 + 11;
            pc.threads = 1;
            const auto serial = MultilevelPartitioner(pc).partition(inst.graph);
            pc.threads = 4;
            const auto parallel =
                MultilevelPartitioner(pc).partition(inst.graph);
            EXPECT_EQ(serial.assignment, parallel.assignment)
                << spec.name << " k=" << k;
            const uint64_t p = digest(serial.assignment);
            std::snprintf(line, sizeof(line), "0x%016llxULL, // %s k=%u",
                          static_cast<unsigned long long>(p),
                          spec.name.c_str(), k);
            if (pi >= kPartitionPins.size())
                ADD_FAILURE() << "unpinned partition: " << line;
            else
                EXPECT_EQ(p, kPartitionPins[pi]) << line;
            ++pi;
        }
    }
    EXPECT_EQ(kGraphPins.size(), gi);
    EXPECT_EQ(kPartitionPins.size(), pi);
}

} // namespace
} // namespace grow::partition
