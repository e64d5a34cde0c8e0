/**
 * @file
 * The halo step's link arbiter: replica responses, canonical replay,
 * byte preservation and schedule independence (the property the
 * scale-out co-simulation's thread-count invariance rests on).
 */
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "scaleout/link.hpp"

namespace grow::scaleout {
namespace {

LinkSpec
testSpec()
{
    LinkSpec spec;
    spec.bandwidthGBps = 37.5; // non-integral bytes/cycle: residual active
    spec.latencyNs = 100.0;
    return spec;
}

TEST(LinkArbiter, SingleLaneMatchesTheDirectLink)
{
    // One lane: the replica starts from the link's state each epoch and
    // folds the lane's own pulls, so responses equal the unarbitrated
    // link exactly.
    InterchipLink direct(0, testSpec());
    InterchipLink link(0, testSpec());
    LinkArbiter arbiter({&link}, 1);

    Cycle t = 0;
    for (int epoch = 0; epoch < 10; ++epoch) {
        arbiter.beginEpoch();
        for (int i = 0; i < 2; ++i) {
            const Bytes bytes = 100 + 13 * (2 * epoch + i);
            const Cycle d =
                direct.read(t, 64 * i, bytes, mem::TrafficClass::DenseRow);
            EXPECT_EQ(d, arbiter.read(0, 0, t, 64 * i, bytes))
                << "epoch " << epoch << " pull " << i;
            t = d; // issue chain like a DMA engine would
        }
        arbiter.commitEpoch();
    }
    EXPECT_EQ(direct.traffic().total(), link.traffic().total());
    EXPECT_EQ(direct.busyCycles(), link.busyCycles());
    EXPECT_EQ(link.transfers(), 20u);
}

TEST(LinkArbiter, IssueOrderWithinAnEpochDoesNotMatter)
{
    // Two lanes pull over two shared links; the two runs let the lanes
    // take turns in opposite order. Responses and the links' final
    // state must be bit-identical -- this is why worker scheduling
    // cannot perturb the halo step.
    struct Outcome
    {
        std::array<std::vector<Cycle>, 2> responses;
        std::array<Bytes, 2> bytes{};
        std::array<Cycle, 2> busy{};
    };
    auto run = [](bool lane0_first) {
        InterchipLink l0(0, testSpec());
        InterchipLink l1(1, testSpec());
        LinkArbiter arbiter({&l0, &l1}, 2);
        Outcome out;
        for (int epoch = 0; epoch < 5; ++epoch) {
            arbiter.beginEpoch();
            auto issueLane = [&](uint32_t lane) {
                for (int i = 0; i < 4; ++i) {
                    out.responses[lane].push_back(arbiter.read(
                        i % 2, lane, epoch * 100 + i, lane * 4096 + 64 * i,
                        90 + 10 * lane + i));
                }
            };
            issueLane(lane0_first ? 0 : 1);
            issueLane(lane0_first ? 1 : 0);
            arbiter.commitEpoch();
        }
        out.bytes = {l0.traffic().total(), l1.traffic().total()};
        out.busy = {l0.busyCycles(), l1.busyCycles()};
        return out;
    };

    const Outcome a = run(true);
    const Outcome b = run(false);
    EXPECT_EQ(a.responses[0], b.responses[0]);
    EXPECT_EQ(a.responses[1], b.responses[1]);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.busy, b.busy);
}

TEST(LinkArbiter, CommitReplaysEveryPulledByte)
{
    InterchipLink l0(0, testSpec());
    InterchipLink l1(1, testSpec());
    LinkArbiter arbiter({&l0, &l1}, 3);
    arbiter.beginEpoch();
    std::array<Bytes, 2> sent{};
    for (uint32_t lane = 0; lane < 3; ++lane) {
        for (uint32_t i = 0; i < 3; ++i) {
            const uint32_t link = (lane + i) % 2;
            const Bytes b = 30 + 64 * lane + i;
            arbiter.read(link, lane, i, 0, b);
            sent[link] += b;
        }
    }
    // Nothing reaches the links before the commit.
    EXPECT_EQ(l0.traffic().total(), 0u);
    EXPECT_EQ(l1.traffic().total(), 0u);
    arbiter.commitEpoch();
    // Links count whole bytes (lineBytes = 1): the replay is exact.
    EXPECT_EQ(l0.traffic().total(), sent[0]);
    EXPECT_EQ(l1.traffic().total(), sent[1]);
    EXPECT_EQ(l0.transfers() + l1.transfers(), 9u);
}

TEST(LinkArbiter, CrossLaneBacklogArrivesAtTheNextEpoch)
{
    // A saturating burst from lane 0 in epoch 1 must delay lane 1's
    // pulls in epoch 2 (the replicas snapshot the post-commit link
    // state), but not within epoch 1.
    InterchipLink link(0, testSpec());
    LinkArbiter arbiter({&link}, 2);

    arbiter.beginEpoch();
    const Cycle lone = arbiter.read(0, 1, 0, 0, 64);
    arbiter.read(0, 0, 0, 0, 1 << 20);
    arbiter.commitEpoch();

    arbiter.beginEpoch();
    const Cycle delayed = arbiter.read(0, 1, 0, 0, 64);
    arbiter.commitEpoch();
    EXPECT_GT(delayed, lone);
}

TEST(LinkArbiter, UsageErrorsPanic)
{
    InterchipLink link(0, testSpec());
    LinkArbiter arbiter({&link}, 1);
    // Pull outside an open epoch.
    EXPECT_THROW(arbiter.read(0, 0, 0, 0, 64), std::logic_error);
    arbiter.beginEpoch();
    arbiter.read(0, 0, 0, 0, 64);
    // beginEpoch with uncommitted pulls.
    EXPECT_THROW(arbiter.beginEpoch(), std::logic_error);
}

} // namespace
} // namespace grow::scaleout
