/**
 * @file
 * Deterministic in-process serving simulation on a virtual clock.
 *
 * Replays a seeded schedule (serve/schedule.hpp) through the
 * admission/fair-share/deadline machinery of serve/queue.hpp, and
 * advances an integer virtual clock by discrete events instead of
 * waiting on a host clock. Service time for a
 * completed request is its *simulated* latency -- digest cycles at the
 * 1 GHz modeled clock -- so every latency percentile, queue-depth
 * sample and admission counter is a pure function of (schedule seed,
 * admission config, slot count). That makes serving-layer behaviour
 * CI-gateable: the records land in BENCH_GROW.json next to the
 * simulator's own metric families and report_diff holds the line.
 *
 * Event order at one instant: completions resolve before arrivals, so
 * a slot freed at t can serve a request arriving at t.
 */
#pragma once

#include <functional>
#include <vector>

#include "serve/executor.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/schedule.hpp"

namespace grow::serve {

/** Knobs for runVirtualServe(). */
struct VirtualServeConfig
{
    AdmissionConfig admission;
    /** Parallel service slots (modeled accelerator instances). */
    uint32_t slots = 1;
    /**
     * Service-time override in ms; when empty, requests execute
     * through the Executor and take digest.simulatedMs(). Tests use
     * synthetic service times to probe the queue without running the
     * simulator.
     */
    std::function<double(const ServeRequest &)> serviceMs;
};

/** Outcome of one virtual-clock replay. */
struct VirtualServeResult
{
    /** Every request's resolution, in event order (deterministic). */
    std::vector<RequestRecord> records;
    /** Virtual time at which the last event resolved. */
    Micros endUs = 0;
};

/**
 * Replay @p schedule (arrival times non-decreasing) through the
 * serving queue on a virtual clock. @p executor may be null only when
 * @p config.serviceMs is set. @p metrics is optional.
 */
VirtualServeResult runVirtualServe(const std::vector<ScheduledRequest> &schedule,
                                   const Executor *executor,
                                   const VirtualServeConfig &config,
                                   ServeMetrics *metrics);

} // namespace grow::serve
