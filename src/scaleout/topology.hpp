/**
 * @file
 * The engine-topology descriptor of a (possibly multi-chip) run.
 *
 * The redesigned front-end API: one EngineTopology names everything
 * the driver needs to instantiate the simulated hardware -- the engine
 * configuration key, how many chips the inference is sharded across,
 * an optional GrowConfig override for the grow-family engines, and the
 * inter-chip link specification. chips == 1 describes the classic
 * single-chip setup; driver::engineForTopology() and
 * scaleout::runInference() consume the descriptor directly, and
 * bench_scaleout builds one from its `chips=` / `link_gbps=` /
 * `link_ns=` keys, read by parseChipKeys() (as are design_space_sweep's
 * dse=1 scale-out points). See DESIGN.md "Multi-chip scale-out".
 */
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/grow_config.hpp"
#include "sim/types.hpp"
#include "util/cli.hpp"

namespace grow::scaleout {

/** Inter-chip link model parameters (one egress link per chip). */
struct LinkSpec
{
    /** Peak per-link bandwidth in GB/s (`link_gbps=`). */
    double bandwidthGBps = 64.0;
    /** Per-transfer latency in nanoseconds (`link_ns=`). */
    double latencyNs = 500.0;
    /** DMA chunk granularity of one halo transfer (bytes). */
    Bytes chunkBytes = 512;
    /** Accelerator clock the latency converts against (GHz). */
    double clockGHz = 1.0;

    /** Per-transfer latency in accelerator cycles. */
    Cycle latencyCycles() const
    {
        return static_cast<Cycle>(latencyNs * clockGHz);
    }

    /** Peak transfer rate in bytes per accelerator cycle. */
    double bytesPerCycle() const { return bandwidthGBps / clockGHz; }
};

/**
 * Everything needed to instantiate the simulated hardware of one run.
 * Construct via the fluent setters:
 *
 *   auto topo = EngineTopology("grow").withChips(4).withLinkGbps(32);
 */
struct EngineTopology
{
    EngineTopology() = default;
    explicit EngineTopology(std::string engine_key)
        : engine(std::move(engine_key))
    {
    }

    /** Engine configuration key (driver::engineByKey). */
    std::string engine = "grow";
    /** Number of chips the inference is sharded across. */
    uint32_t chips = 1;
    /** Inter-chip link model (meaningful only when chips > 1). */
    LinkSpec link;
    /**
     * GrowConfig override for the grow-family engines (every chip of
     * the topology runs this configuration). Unset uses the registry
     * configuration of `engine`; setting it with a non-grow engine key
     * is rejected by validate().
     */
    std::optional<core::GrowConfig> growConfig;

    EngineTopology &withChips(uint32_t n)
    {
        chips = n;
        return *this;
    }
    EngineTopology &withLink(const LinkSpec &spec)
    {
        link = spec;
        return *this;
    }
    EngineTopology &withLinkGbps(double gbps)
    {
        link.bandwidthGBps = gbps;
        return *this;
    }
    EngineTopology &withGrowConfig(const core::GrowConfig &config)
    {
        growConfig = config;
        return *this;
    }

    /** Whether this describes a multi-chip run. */
    bool sharded() const { return chips > 1; }

    /** fatal() on out-of-range or conflicting fields. */
    void validate() const;
};

/** Upper bound on chips a topology may request. */
inline constexpr uint32_t kMaxChips = 64;

/** The scale-out keys of a command line: `chips=`, `link_gbps=`,
 *  `link_ns=`. */
struct ChipKeys
{
    /** Chip counts to evaluate, in order (`chips=`, default 1). */
    std::vector<uint32_t> chips;
    /** Link spec with `link_gbps=` / `link_ns=` applied. */
    LinkSpec link;

    /** Whether any chip count is above 1. */
    bool sharded() const;
};

/**
 * Read the scale-out keys of @p args. fatal() unless `chips=` lists
 * at least one count, every count is an integer in [1, kMaxChips], and
 * the link keys come with a count above 1 (they describe the links of
 * a multi-chip topology). Call it before building anything.
 */
ChipKeys parseChipKeys(const CliArgs &args);

} // namespace grow::scaleout
