#include "scaleout/topology.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace grow::scaleout {

void
EngineTopology::validate() const
{
    if (engine.empty())
        fatal("EngineTopology: engine key is empty");
    if (chips < 1 || chips > kMaxChips)
        fatal("EngineTopology: chips must be in [1, " +
              std::to_string(kMaxChips) + "], got " +
              std::to_string(chips));
    if (growConfig && engine.rfind("grow", 0) != 0)
        fatal("EngineTopology: a GrowConfig override needs a "
              "grow-family engine key, got '" + engine + "'");
    if (!(link.bandwidthGBps > 0.0))
        fatal("EngineTopology: link bandwidth must be > 0 GB/s");
    if (link.latencyNs < 0.0)
        fatal("EngineTopology: link latency must be >= 0 ns");
    if (link.chunkBytes == 0)
        fatal("EngineTopology: link chunk size must be > 0 bytes");
    if (!(link.clockGHz > 0.0))
        fatal("EngineTopology: link clock must be > 0 GHz");
}

bool
ChipKeys::sharded() const
{
    return std::any_of(chips.begin(), chips.end(),
                       [](uint32_t n) { return n > 1; });
}

ChipKeys
parseChipKeys(const CliArgs &args)
{
    ChipKeys keys;
    for (const auto &c : args.getList("chips", {"1"})) {
        if (c.find_first_not_of("0123456789") != std::string::npos)
            fatal("chips= takes positive chip counts, got '" + c + "'");
        // More than 9 digits is out of range (and would overflow).
        const uint64_t n = c.size() <= 9 ? std::stoull(c) : kMaxChips + 1;
        if (n < 1 || n > kMaxChips)
            fatal("chips= must be in [1, " + std::to_string(kMaxChips) +
                  "], got " + c);
        keys.chips.push_back(static_cast<uint32_t>(n));
    }
    if (keys.chips.empty())
        fatal("chips= needs at least one chip count");
    if ((args.has("link_gbps") || args.has("link_ns")) && !keys.sharded())
        fatal("link_gbps=/link_ns= describe the inter-chip links of a "
              "multi-chip topology; pass a chips= value > 1 (or drop "
              "the link keys)");
    keys.link.bandwidthGBps =
        args.getDouble("link_gbps", keys.link.bandwidthGBps);
    keys.link.latencyNs = args.getDouble("link_ns", keys.link.latencyNs);
    return keys;
}

} // namespace grow::scaleout
