/**
 * @file
 * Request/response types of the GROW serving layer.
 *
 * A ServeRequest names one multi-tenant inference job -- a (dataset,
 * model, tier, engine config) tuple plus the per-request seed that
 * stands in for fresh user input -- with the admission metadata the
 * queue needs (tenant, arrival time, absolute deadline, cost
 * estimate). A RequestRecord is the fully resolved outcome: admission
 * verdict or inference digest plus the latency breakdown, the unit
 * every serving metric (p50/p99, admission counters, byte-identity
 * diffs) is derived from.
 *
 * Time is kept as integer microseconds on the virtual clock advanced
 * by the deterministic event loop (serve/virtual_serve.hpp); the queue
 * and metrics take every timestamp from their caller.
 */
#pragma once

#include <cstdint>
#include <string>

#include "graph/datasets.hpp"

namespace grow::serve {

/** Serving-layer timestamp/duration: integer microseconds. */
using Micros = int64_t;

/** Milliseconds (double) from a Micros duration. */
inline double
millis(Micros us)
{
    return static_cast<double>(us) / 1000.0;
}

/** Admission verdict for one push into the request queue. */
enum class Admission {
    Admitted,
    QueueFull,       ///< bounded queue at maxDepth
    OverByteBudget,  ///< queued + in-flight cost bytes past the budget
};

/** Final disposition of one request. */
enum class RequestStatus {
    Completed,          ///< inference ran; digest is valid
    RejectedQueueFull,  ///< admission: queue depth cap
    RejectedBytes,      ///< admission: in-flight byte budget
    Expired,            ///< deadline passed before dispatch
    Error,              ///< invalid request or execution failure
};

/** The rejection status matching an admission verdict (not Admitted). */
RequestStatus rejectionStatus(Admission a);

/** One serving request. */
struct ServeRequest
{
    /** Request id, unique within a schedule. */
    uint64_t id = 0;
    std::string tenant = "default";
    std::string dataset;
    std::string model = "gcn";
    std::string engine = "grow";
    graph::ScaleTier tier = graph::ScaleTier::Mini;
    uint32_t depth = 2;     ///< model depth (layers)
    uint64_t seed = 7;      ///< per-request feature seed
    /** Arrival timestamp on the serving clock (stamped at admission). */
    Micros arrivalUs = 0;
    /**
     * Absolute deadline on the serving clock; 0 = none. A request
     * past its deadline is cancelled before dispatch, never after.
     * Stamped at admission from deadlineRelUs (the schedule form) or
     * the queue's default.
     */
    Micros deadlineUs = 0;
    /** Relative deadline (schedule form, `deadline_ms=`); 0 = none.
     *  Converted to deadlineUs when the queue admits. */
    Micros deadlineRelUs = 0;
    /**
     * Admission cost estimate (operand footprint of the job,
     * serve::estimateRequestBytes) counted against the in-flight byte
     * budget from admission until completion.
     */
    uint64_t costBytes = 0;
};

/**
 * The deterministic core of one completed inference: every field is a
 * bit-exact function of the request tuple, so a request served on the
 * virtual clock and a direct Executor::run() of the same tuple must
 * produce identical digests, for every `threads=` value.
 */
struct InferenceDigest
{
    uint64_t cycles = 0;      ///< simulated accelerator cycles
    uint64_t dramBytes = 0;   ///< total DRAM traffic
    uint64_t macOps = 0;
    uint64_t cacheHits = 0;   ///< HDN cache hits
    uint64_t cacheMisses = 0;

    /** Simulated service latency at the 1 GHz clock, in ms. */
    double simulatedMs() const
    {
        return static_cast<double>(cycles) / 1e6;
    }
};

/** Fully resolved outcome of one request. */
struct RequestRecord
{
    ServeRequest request;
    RequestStatus status = RequestStatus::Error;
    /** Dispatch/completion timestamps on the serving clock (valid for
     *  Completed; completionUs doubles as the decision time for
     *  rejections and expiries). */
    Micros dispatchUs = 0;
    Micros completionUs = 0;
    /** Execution time in ms (Completed only): the simulated service
     *  time, so it is deterministic. */
    double execMs = 0.0;
    InferenceDigest digest;
    std::string error; ///< Error status only

    /** Time spent queued before dispatch (ms). */
    double queueMs() const
    {
        return status == RequestStatus::Completed
                   ? millis(dispatchUs - request.arrivalUs)
                   : millis(completionUs - request.arrivalUs);
    }

    /** Arrival-to-resolution latency (ms). */
    double totalMs() const
    {
        return millis(completionUs - request.arrivalUs);
    }
};

/**
 * Canonical one-line digest of a completed request, the byte-identity
 * currency of the serving tests and CI: records served on the virtual
 * clock and direct execution of the same request must produce
 * identical lines. Integer-exact fields only -- no floating timing,
 * nothing host-dependent.
 */
std::string digestLine(const ServeRequest &req,
                       const InferenceDigest &digest);

} // namespace grow::serve
