#include "scaleout/link.hpp"

#include "util/logging.hpp"

namespace grow::scaleout {

mem::DramConfig
linkDramConfig(const LinkSpec &spec)
{
    mem::DramConfig config;
    config.bandwidthGBps = spec.bandwidthGBps;
    config.clockGHz = spec.clockGHz;
    config.accessLatency = spec.latencyCycles();
    // Byte-exact accounting: no line rounding, so the link's traffic
    // counters equal the halo payload bytes exactly.
    config.lineBytes = 1;
    return config;
}

InterchipLink::InterchipLink(uint32_t source_chip, const LinkSpec &spec)
    : mem::SimpleDram(linkDramConfig(spec)), source_(source_chip)
{
}

Cycle
InterchipLink::read(Cycle now, uint64_t addr, Bytes bytes,
                    mem::TrafficClass cls)
{
    ++transfers_;
    return mem::SimpleDram::read(now, addr, bytes, cls);
}

Cycle
InterchipLink::write(Cycle now, uint64_t addr, Bytes bytes,
                     mem::TrafficClass cls)
{
    ++transfers_;
    return mem::SimpleDram::write(now, addr, bytes, cls);
}

LinkArbiter::LinkArbiter(std::vector<InterchipLink *> links,
                         uint32_t num_lanes)
    : links_(std::move(links)), numLanes_(num_lanes)
{
    GROW_ASSERT(!links_.empty(), "arbiter needs at least one link");
    for (const InterchipLink *l : links_)
        GROW_ASSERT(l != nullptr, "arbiter link is null");
    GROW_ASSERT(num_lanes >= 1, "arbiter needs at least one lane");
    ports_.resize(links_.size() * numLanes_);
}

void
LinkArbiter::beginEpoch()
{
    for (size_t i = 0; i < ports_.size(); ++i) {
        GROW_ASSERT(ports_[i].pending.empty(),
                    "beginEpoch with uncommitted requests (commitEpoch "
                    "missing)");
        ports_[i].replica.emplace(*links_[i / numLanes_]);
    }
}

Cycle
LinkArbiter::read(uint32_t link, uint32_t lane, Cycle now, uint64_t addr,
                  Bytes bytes)
{
    Port &port = ports_.at(static_cast<size_t>(link) * numLanes_ + lane);
    GROW_ASSERT(port.replica.has_value(),
                "link port used outside an open epoch (beginEpoch "
                "missing)");
    port.pending.push_back({now, addr, bytes});
    // The lane-visible response: the snapshot plus this lane's own
    // earlier pulls of the epoch. The replica's byte counters are
    // discarded; the commit replay is the single source of truth.
    return port.replica->read(now, addr, bytes, mem::TrafficClass::DenseRow);
}

void
LinkArbiter::commitEpoch()
{
    for (size_t i = 0; i < ports_.size(); ++i) {
        Port &port = ports_[i];
        for (const Pull &p : port.pending)
            links_[i / numLanes_]->read(p.now, p.addr, p.bytes,
                                        mem::TrafficClass::DenseRow);
        port.pending.clear();
        port.replica.reset();
    }
}

} // namespace grow::scaleout
