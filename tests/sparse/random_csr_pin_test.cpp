/**
 * @file
 * Exactness pin of sparse::randomCsr: an FNV-1a digest of rowPtr,
 * colIdx and the bit patterns of the values, plus the generator's next
 * raw draw after the call, over a grid of shapes, densities and seeds.
 *
 * Every synthetic feature matrix of every workload comes out of this
 * generator, and every later draw of a workload (deeper layers, GIN's
 * MLP inputs, weights) continues its stream. A change to how the
 * matrix is assembled must leave both the matrix and the stream
 * untouched; this grid is that contract.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <vector>

#include "sparse/convert.hpp"
#include "util/checksum.hpp"
#include "util/random.hpp"

namespace grow::sparse {
namespace {

/** FNV-1a over every array element as 8 little-endian bytes. */
uint64_t
digest(const CsrMatrix &m)
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
    uint64_t digest;
    uint64_t nextDraw;
};

// Grid order: shape (outer), density, seed (inner).
constexpr std::pair<uint32_t, uint32_t> kShapes[] = {
    {1, 1}, {17, 23}, {300, 300}, {2000, 602}};
constexpr double kDensities[] = {0.0, 1e-4, 0.0085, 0.1, 0.639, 0.99, 1.0};
constexpr uint64_t kSeeds[] = {1, 0x9e3779b9};

// clang-format off
const std::vector<Pin> kPins = {
    {0x88201fb960ff6465ULL, 0xb3f2af6d0fc710c5ULL}, // 1x1 @ 0, seed 1
    {0x88201fb960ff6465ULL, 0xa3558e768176bc45ULL}, // 1x1 @ 0, seed 2654435769
    {0x88201fb960ff6465ULL, 0x853b559647364ceaULL}, // 1x1 @ 0.0001, seed 1
    {0x88201fb960ff6465ULL, 0xb1514a1d354a5062ULL}, // 1x1 @ 0.0001, seed 2654435769
    {0x88201fb960ff6465ULL, 0x853b559647364ceaULL}, // 1x1 @ 0.0085, seed 1
    {0x88201fb960ff6465ULL, 0xb1514a1d354a5062ULL}, // 1x1 @ 0.0085, seed 2654435769
    {0x88201fb960ff6465ULL, 0x853b559647364ceaULL}, // 1x1 @ 0.1, seed 1
    {0x88201fb960ff6465ULL, 0xb1514a1d354a5062ULL}, // 1x1 @ 0.1, seed 2654435769
    {0x88201fb960ff6465ULL, 0x853b559647364ceaULL}, // 1x1 @ 0.639, seed 1
    {0xbcc7affaaf29c993ULL, 0xbc6e553f17ec9932ULL}, // 1x1 @ 0.639, seed 2654435769
    {0x70c238e4746aa8fcULL, 0x92f89756082a4514ULL}, // 1x1 @ 0.99, seed 1
    {0xbcc7affaaf29c993ULL, 0xbc6e553f17ec9932ULL}, // 1x1 @ 0.99, seed 2654435769
    {0x65c6b0c76a3b33b8ULL, 0x853b559647364ceaULL}, // 1x1 @ 1, seed 1
    {0x2cb4ae54c6f4fb31ULL, 0xb1514a1d354a5062ULL}, // 1x1 @ 1, seed 2654435769
    {0xec32669a74fcae65ULL, 0xb3f2af6d0fc710c5ULL}, // 17x23 @ 0, seed 1
    {0xec32669a74fcae65ULL, 0xa3558e768176bc45ULL}, // 17x23 @ 0, seed 2654435769
    {0xec32669a74fcae65ULL, 0x853b559647364ceaULL}, // 17x23 @ 0.0001, seed 1
    {0xec32669a74fcae65ULL, 0xb1514a1d354a5062ULL}, // 17x23 @ 0.0001, seed 2654435769
    {0x39f7e4a8dfb99088ULL, 0x61954dcc47b1e89dULL}, // 17x23 @ 0.0085, seed 1
    {0x25cae0cae4201c09ULL, 0x6400f5880a077de9ULL}, // 17x23 @ 0.0085, seed 2654435769
    {0xc09131a8fa4af07dULL, 0x8a0d1c287ae26eceULL}, // 17x23 @ 0.1, seed 1
    {0xa558344e1c394a2cULL, 0xba4d5939feee90aeULL}, // 17x23 @ 0.1, seed 2654435769
    {0xf3e8a409ed0d3b14ULL, 0x5252d74abbc51b1fULL}, // 17x23 @ 0.639, seed 1
    {0xe30d455a64256959ULL, 0xd9efa6b7c799a4a9ULL}, // 17x23 @ 0.639, seed 2654435769
    {0x0ea62445de424cd9ULL, 0x8ea954ea704a954fULL}, // 17x23 @ 0.99, seed 1
    {0xe159e1f2262ec858ULL, 0x263b723ccf1d03f1ULL}, // 17x23 @ 0.99, seed 2654435769
    {0x71f1eccdfb9a8ddeULL, 0x2a9a55d98d803c9eULL}, // 17x23 @ 1, seed 1
    {0x6f33f9508721caf4ULL, 0x445a06f120c2fb12ULL}, // 17x23 @ 1, seed 2654435769
    {0x2cd77817a0151545ULL, 0xb3f2af6d0fc710c5ULL}, // 300x300 @ 0, seed 1
    {0x2cd77817a0151545ULL, 0xa3558e768176bc45ULL}, // 300x300 @ 0, seed 2654435769
    {0x5e33ced94d3a6d83ULL, 0xab49ed3db4c66435ULL}, // 300x300 @ 0.0001, seed 1
    {0x194d541c96d42053ULL, 0xcb3a2ca0dfe6c6b2ULL}, // 300x300 @ 0.0001, seed 2654435769
    {0xaf85f4005623f98dULL, 0xbb2044fd0b49eb6bULL}, // 300x300 @ 0.0085, seed 1
    {0x68f47accb487567bULL, 0x13b1b5c03907ea9cULL}, // 300x300 @ 0.0085, seed 2654435769
    {0xff75b0344a1c3f6cULL, 0xffa17d18e2a38c04ULL}, // 300x300 @ 0.1, seed 1
    {0x86dee09a08c68c8fULL, 0xbe712b8068a39366ULL}, // 300x300 @ 0.1, seed 2654435769
    {0x3668ca8f8142e028ULL, 0x5c1723ca323592a1ULL}, // 300x300 @ 0.639, seed 1
    {0x0d60dc192e8ee0cbULL, 0xff0a89861e176433ULL}, // 300x300 @ 0.639, seed 2654435769
    {0xbc4d9c33d39396c7ULL, 0xcc8f4a1c2c72b78fULL}, // 300x300 @ 0.99, seed 1
    {0x2ad239eb107fa745ULL, 0x112c9e5e4b663ba0ULL}, // 300x300 @ 0.99, seed 2654435769
    {0xa22e5a04c22e0029ULL, 0x1e78b3b199dd278bULL}, // 300x300 @ 1, seed 1
    {0x5a97518600a874b2ULL, 0xd3d00372bc205df8ULL}, // 300x300 @ 1, seed 2654435769
    {0x2a83a1723f4f1bc5ULL, 0xb3f2af6d0fc710c5ULL}, // 2000x602 @ 0, seed 1
    {0x2a83a1723f4f1bc5ULL, 0xa3558e768176bc45ULL}, // 2000x602 @ 0, seed 2654435769
    {0x34d59a4b40841f54ULL, 0x35d814a63763779aULL}, // 2000x602 @ 0.0001, seed 1
    {0x808836405f708c52ULL, 0x15afda373b8ca7d7ULL}, // 2000x602 @ 0.0001, seed 2654435769
    {0xb1ec3a65e77ee555ULL, 0xf1882a92730843baULL}, // 2000x602 @ 0.0085, seed 1
    {0x15f134fed14df794ULL, 0xfcbaafae83dbc1d6ULL}, // 2000x602 @ 0.0085, seed 2654435769
    {0xfa026b446d93b0afULL, 0xaa7ac9f3f9d42b1aULL}, // 2000x602 @ 0.1, seed 1
    {0x9ecc4ec9d95a80adULL, 0xe1a04326832baf73ULL}, // 2000x602 @ 0.1, seed 2654435769
    {0x079b669ac3a75ac0ULL, 0x355069ad1e6d83caULL}, // 2000x602 @ 0.639, seed 1
    {0xb1748b55f53d1ed7ULL, 0x8b825cd674eefc89ULL}, // 2000x602 @ 0.639, seed 2654435769
    {0xe8aa80cbf89ca2f5ULL, 0xcff7c1a925a613ebULL}, // 2000x602 @ 0.99, seed 1
    {0x51f6e1d392b57bcdULL, 0x65cf47a70165d502ULL}, // 2000x602 @ 0.99, seed 2654435769
    {0x6aaf98e0d85a30e8ULL, 0x34cfa346f98c0d61ULL}, // 2000x602 @ 1, seed 1
    {0x203c1f48475968acULL, 0xf98cc3fe2969ad25ULL}, // 2000x602 @ 1, seed 2654435769
};
// clang-format on

TEST(RandomCsrPin, MatrixAndStreamAreExact)
{
    size_t i = 0;
    for (const auto &[rows, cols] : kShapes) {
        for (double density : kDensities) {
            for (uint64_t seed : kSeeds) {
                Rng rng(seed);
                const CsrMatrix m = randomCsr(rows, cols, density, rng);
                ASSERT_TRUE(m.validate());
                const Pin got{digest(m), rng.next()};
                char line[160];
                std::snprintf(line, sizeof(line),
                              "{0x%016llxULL, 0x%016llxULL}, "
                              "// %ux%u @ %g, seed %llu",
                              static_cast<unsigned long long>(got.digest),
                              static_cast<unsigned long long>(got.nextDraw),
                              rows, cols, density,
                              static_cast<unsigned long long>(seed));
                if (i >= kPins.size()) {
                    ADD_FAILURE() << "unpinned case: " << line;
                } else {
                    EXPECT_EQ(got.digest, kPins[i].digest) << line;
                    EXPECT_EQ(got.nextDraw, kPins[i].nextDraw) << line;
                }
                ++i;
            }
        }
    }
    EXPECT_EQ(kPins.size(), i);
}

} // namespace
} // namespace grow::sparse
