/**
 * @file
 * Seeded deterministic request schedules for the serving layer.
 *
 * A schedule is the serving analogue of a synthetic dataset: an exact,
 * replayable list of (arrival time, request) pairs derived from one
 * 64-bit seed. The virtual-clock loop (serve/virtual_serve.hpp)
 * replays it in simulated time; because the schedule is a pure
 * function of its config, a replay at any `threads=` must yield
 * byte-identical digests (the CI serving smoke diffs them).
 *
 * Arrival gaps are integer microseconds drawn uniformly from
 * [meanGapUs/2, 3*meanGapUs/2) -- no floating point in the timeline,
 * so the schedule is bit-stable across libm implementations. Tenants
 * are drawn by integer weight, which is how the fairness tests build
 * skewed mixes (one tenant with weight 8 against two with weight 1).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace grow::serve {

/** One tenant in the mix and its relative arrival weight. */
struct TenantMix
{
    std::string name = "default";
    uint32_t weight = 1;
};

/** Knobs for buildSchedule(); every field defaulted and deterministic. */
struct ScheduleConfig
{
    uint64_t seed = 7;       ///< schedule seed (tenants, gaps, picks)
    uint32_t count = 32;     ///< number of requests
    Micros meanGapUs = 2000; ///< mean inter-arrival gap
    std::vector<TenantMix> tenants = {{"default", 1}};
    std::vector<std::string> datasets = {"cora"};
    std::vector<std::string> engines = {"grow"};
    std::string model = "gcn";
    graph::ScaleTier tier = graph::ScaleTier::Mini;
    uint32_t depth = 2;
    /** Per-request feature seed = featureSeedBase + request id, so a
     *  replay of the same schedule hits the same simulator inputs. */
    uint64_t featureSeedBase = 7;
    Micros deadlineRelUs = 0; ///< relative deadline stamped on each request
};

/** One scheduled arrival. */
struct ScheduledRequest
{
    Micros atUs = 0;
    ServeRequest request;
};

/**
 * Materialise the schedule for @p config: @p config.count requests
 * with ids 1..count, arrival times strictly increasing from the first
 * gap, tenants drawn by weight, datasets/engines drawn uniformly.
 */
std::vector<ScheduledRequest> buildSchedule(const ScheduleConfig &config);

/**
 * Parse a tenant mix spec "name:weight,name:weight,..." (weight
 * defaults to 1 when omitted). Returns false on a malformed spec.
 */
bool parseTenantMix(const std::string &spec, std::vector<TenantMix> &out,
                    std::string *error);

} // namespace grow::serve
