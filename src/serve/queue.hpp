/**
 * @file
 * Bounded multi-tenant request queue with admission control.
 *
 * The single waiting room of the serving layer, driven by the
 * deterministic virtual-clock loop (serve/virtual_serve.hpp):
 *
 *  - Admission (push): a request is rejected -- with a reason the
 *    caller records as the request's outcome -- when the bounded queue
 *    sits at maxDepth or when its cost estimate would push the queued
 *    + in-flight byte total past the budget. Backpressure is explicit
 *    rejection, never silent blocking: an overloaded queue says so
 *    per request.
 *  - Deadlines (pop): a request whose absolute deadline has passed is
 *    cancelled *before* dispatch and returned on the expired list --
 *    simulating a stale inference nobody will read wastes an engine.
 *  - Fair share (pop): requests are held in per-tenant FIFOs and
 *    popped round-robin over the tenants with pending work (ordered
 *    by tenant name, cursor after the last served), so a tenant
 *    flooding the queue delays its own backlog, not everyone else's.
 *    Within a tenant, arrival order is preserved.
 *
 * Byte accounting: an admitted request's costBytes stays counted from
 * admission until the caller reports onComplete() (dispatch moves it
 * from queued to in-flight, it does not release it); expiry and
 * rejection release immediately. All member functions are
 * thread-safe; time is always passed in by the caller, so the queue
 * never reads a clock of its own.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace grow::serve {

/** Admission-control knobs. */
struct AdmissionConfig
{
    /** Queued-request cap (admission rejects past it; >= 1). */
    uint32_t maxDepth = 64;
    /** Queued + in-flight cost-byte budget (0 = unbounded). */
    uint64_t byteBudget = 0;
    /**
     * Deadline applied at admission to requests that carry none
     * (relative to arrival; 0 = no default, such requests never
     * expire).
     */
    Micros defaultDeadlineUs = 0;
};

class RequestQueue
{
  public:
    explicit RequestQueue(AdmissionConfig config);

    /**
     * Admit or reject @p r at time @p now. On admission the request is
     * stamped (arrivalUs = now; a missing deadline gets the config
     * default) and owned by the queue until pop() hands it back.
     */
    Admission push(ServeRequest r, Micros now);

    /**
     * Pop the next dispatchable request in fair-share order at time
     * @p now. Requests found past their deadline are moved onto
     * @p expired (their bytes released) instead of being returned.
     * Returns false when nothing dispatchable remains.
     */
    bool pop(Micros now, ServeRequest &out,
             std::vector<ServeRequest> &expired);

    /**
     * Release the in-flight bytes of a dispatched request. Must be
     * called exactly once per successful pop(), when the request
     * completes (or fails) execution.
     */
    void onComplete(const ServeRequest &r);

    /** Queued requests (excludes in-flight). */
    uint32_t depth() const;

    /** Queued + in-flight cost bytes currently counted. */
    uint64_t pendingBytes() const;

    /** Tenants with queued requests. */
    uint32_t activeTenants() const;

    const AdmissionConfig &config() const { return config_; }

  private:
    AdmissionConfig config_;
    mutable std::mutex mu_;
    /** Per-tenant FIFOs, ordered by tenant name (fair-share order). */
    std::map<std::string, std::deque<ServeRequest>> tenants_;
    /** Tenant served last; the next pop starts strictly after it. */
    std::string cursor_;
    uint32_t depth_ = 0;
    uint64_t queuedBytes_ = 0;
    uint64_t inflightBytes_ = 0;
};

} // namespace grow::serve
