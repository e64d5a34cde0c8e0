/**
 * @file
 * Inter-chip link model and its deterministic epoch arbiter.
 *
 * One InterchipLink is the egress port of one chip: a bandwidth-
 * serialized channel with a fixed per-transfer latency, shared by
 * every remote chip pulling halo rows from its owner. It reuses the
 * SimpleDram timing core (serialization with exact fractional-cycle
 * occupancy accounting) with byte-exact granularity -- lineBytes is 1,
 * so the per-link byte counters equal the halo payload exactly, which
 * the conservation tests (and the `tol.link-bytes=0.0` CI gate) rely
 * on.
 *
 * LinkArbiter lets the receiving chips (lanes) of a halo step pull
 * over the shared links concurrently without the outcome depending on
 * thread scheduling. It is bulk-synchronous:
 *
 *  1. beginEpoch() snapshots every link's timing state into one
 *     private replica per (link, lane) port -- a plain SimpleDram copy.
 *  2. During the epoch a lane's pull is answered by its port's replica
 *     (snapshot + the lane's own earlier pulls of this epoch on that
 *     link) and recorded. Lanes touch only their own ports, so they
 *     may run on any number of worker threads in any order.
 *  3. commitEpoch() replays the recorded pulls through the links in
 *     canonical (link, lane, issue order) order. The links accumulate
 *     the official byte counters and the backlog that the next epoch's
 *     snapshots observe.
 *
 * Every response and the replay order are pure functions of the state
 * at the epoch boundary, so results are bit-identical for every worker
 * count. A lane sees other lanes' link pressure one epoch late. See
 * DESIGN.md "Multi-chip scale-out".
 */
#pragma once

#include <optional>
#include <vector>

#include "mem/dram.hpp"
#include "scaleout/topology.hpp"

namespace grow::scaleout {

/** Egress link of one chip (a DramModel-shaped shared resource). */
class InterchipLink : public mem::SimpleDram
{
  public:
    InterchipLink(uint32_t source_chip, const LinkSpec &spec);

    /** Chip whose egress this link is. */
    uint32_t source() const { return source_; }

    /** Completed transfers (replayed through the canonical device). */
    uint64_t transfers() const { return transfers_; }

    Cycle read(Cycle now, uint64_t addr, Bytes bytes,
               mem::TrafficClass cls) override;
    Cycle write(Cycle now, uint64_t addr, Bytes bytes,
                mem::TrafficClass cls) override;

  private:
    uint32_t source_ = 0;
    uint64_t transfers_ = 0;
};

/** The DramConfig an InterchipLink runs @p spec under. */
mem::DramConfig linkDramConfig(const LinkSpec &spec);

/**
 * Epoch coordinator of halo pulls over a set of links. The links are
 * borrowed and must outlive the arbiter.
 */
class LinkArbiter
{
  public:
    LinkArbiter(std::vector<InterchipLink *> links, uint32_t num_lanes);

    /** Open the next epoch: re-snapshot every port's replica. */
    void beginEpoch();

    /**
     * Lane @p lane pulls @p bytes over link @p link at @p now; returns
     * the replica's completion cycle. Calls for distinct lanes may run
     * concurrently.
     */
    Cycle read(uint32_t link, uint32_t lane, Cycle now, uint64_t addr,
               Bytes bytes);

    /** Close the epoch: replay every recorded pull through its link
     *  in (link, lane, issue order) order. */
    void commitEpoch();

  private:
    struct Pull
    {
        Cycle now;
        uint64_t addr;
        Bytes bytes;
    };
    /** One (link, lane) port: the replica is set only inside an epoch. */
    struct Port
    {
        std::optional<mem::SimpleDram> replica;
        std::vector<Pull> pending;
    };

    std::vector<InterchipLink *> links_;
    uint32_t numLanes_ = 0;
    /** Link-major: port (l, d) lives at l * numLanes_ + d, so walking
     *  ports_ in order is the canonical replay order. */
    std::vector<Port> ports_;
};

} // namespace grow::scaleout
