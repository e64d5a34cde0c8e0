/**
 * @file
 * List scheduler for the MAC vector array.
 *
 * Products (one per LHS non-zero: a scalar x RHS-row vector operation,
 * Fig. 9(b)) become ready when their RHS row is available -- at the
 * CAM lookup for HDN cache hits and for combination's resident W, at
 * DRAM fill time for misses. The MAC array consumes ready products in
 * (ready, enqueue) order; each occupies the array for ceil(F / lanes)
 * cycles. The scheduler exposes completions so the row engine can
 * retire output rows in order (Fig. 15's head/tail window).
 *
 * Every queue entry is a *run*: `count` products of one output row,
 * ready on consecutive cycles ready, ready+1, ..., each `dur` >= 1
 * cycles long. Because dur >= 1, the array never idles inside a run,
 * so a run drains in closed form:
 *
 *     finish = max(macFree, ready) + count * dur
 *
 * Aggregation queues one run per product (count = 1: misses return out
 * of order). Combination queues one run per row: W is resident, so a
 * row's products are ready at its consecutive CAM cycles (see DESIGN.md
 * "Run-length combination issue").
 *
 * Draining a multi-product run whole equals per-product (ready, seq)
 * order only if no other product is ready inside the run. addRun
 * asserts an O(1) sufficient condition: once a multi-product run has
 * been queued, every run (that one included) must start after the last
 * ready cycle of every run queued before it.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "sim/types.hpp"

namespace grow::core {

/** One completed run. */
struct MacCompletion
{
    uint64_t rowToken = 0; ///< engine-assigned identifier of the row
    uint32_t count = 0;    ///< products the run retired
    Cycle finish = 0;      ///< finish of the run's last product
};

class MacScheduler
{
  public:
    MacScheduler() = default;

    /**
     * Queue @p count products of row @p row_token, ready at @p ready,
     * ready + 1, ..., ready + count - 1, each @p dur cycles long.
     * @pre dur > 0, count > 0, and the run-length precondition above.
     */
    void addRun(Cycle ready, uint64_t row_token, Cycle dur,
                uint32_t count);

    /** Whether any runs remain unexecuted. */
    bool idle() const { return pending_.empty(); }

    /**
     * Execute the earliest-ready pending run.
     * @pre !idle()
     */
    MacCompletion drainOne();

    /** Cycle at which the MAC array next becomes free. */
    Cycle macFree() const { return macFree_; }

    /** Total cycles the array spent executing products. */
    Cycle busyCycles() const { return busyCycles_; }

  private:
    struct Run
    {
        Cycle ready;
        uint64_t seq;
        uint64_t rowToken;
        uint32_t dur;
        uint32_t count;
    };

    struct Later
    {
        bool
        operator()(const Run &a, const Run &b) const
        {
            if (a.ready != b.ready)
                return a.ready > b.ready;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Run, std::vector<Run>, Later> pending_;
    uint64_t nextSeq_ = 0;
    Cycle macFree_ = 0;
    Cycle busyCycles_ = 0;
    /** Latest ready cycle of any run queued so far. */
    Cycle lastReady_ = 0;
    /** A run of more than one product has been queued. */
    bool multiProductRuns_ = false;
};

} // namespace grow::core
