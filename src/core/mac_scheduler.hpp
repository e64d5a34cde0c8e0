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
 * Products arrive from two sources, each kept sorted by (ready, seq)
 * at O(1) per product (see DESIGN.md "Two-source MAC scheduler"):
 *
 *  - *CAM-ready* runs (addRun): HDN and LRU hits, one product each, and
 *    combination's rows, one run each (DESIGN.md "Run-length
 *    combination issue"). The CAM does one lookup per cycle, so every
 *    run starts after the last CAM-ready product queued before it
 *    (asserted); they queue in a plain FIFO.
 *  - *fill-ready* products (addFill): misses, ready when their DRAM
 *    fill returns, in any order. They queue in a util::SortedFifo,
 *    which takes its FIFO path while fills complete in issue order
 *    (SimpleDram) and its heap otherwise (BankedDram, LDN-shared
 *    fills).
 *
 * One sequence counter spans both sources and drainOne() takes the
 * smaller (ready, seq) head, so runs drain in per-product (ready, seq)
 * order.
 *
 * Draining a multi-product run whole equals per-product (ready, seq)
 * order only if no other product is ready inside the run. Both entry
 * points assert an O(1) sufficient condition: once a multi-product run
 * has been queued, every run (that one included) must start after the
 * last ready cycle of every product queued before it, from either
 * source.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/types.hpp"
#include "util/sorted_fifo.hpp"

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
     * Queue @p count CAM-ready products of row @p row_token, ready at
     * @p ready, ready + 1, ..., ready + count - 1, each @p dur cycles
     * long.
     * @pre dur > 0, count > 0, @p ready is after the last CAM-ready
     *      product queued so far, and the run-length precondition above.
     */
    void addRun(Cycle ready, uint64_t row_token, Cycle dur,
                uint32_t count);

    /**
     * Queue one fill-ready product of row @p row_token, ready at
     * @p ready (any order), @p dur cycles long.
     * @pre dur > 0 and the run-length precondition above.
     */
    void addFill(Cycle ready, uint64_t row_token, Cycle dur);

    /** Whether any runs remain unexecuted. */
    bool idle() const { return cam_.empty() && fills_.empty(); }

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

    /** Per-product drain order: (ready, seq). */
    struct Earlier
    {
        bool
        operator()(const Run &a, const Run &b) const
        {
            if (a.ready != b.ready)
                return a.ready < b.ready;
            return a.seq < b.seq;
        }
    };

    /** Validate a run and stamp its sequence number. */
    Run makeRun(Cycle ready, uint64_t row_token, Cycle dur,
                uint32_t count);

    util::Fifo<Run> cam_;
    util::SortedFifo<Run, Earlier> fills_;
    uint64_t nextSeq_ = 0;
    Cycle macFree_ = 0;
    Cycle busyCycles_ = 0;
    /** Earliest cycle the next CAM-ready run may start at. */
    Cycle camNext_ = 0;
    /** Latest ready cycle of any product queued so far. */
    Cycle lastReady_ = 0;
    /** A run of more than one product has been queued. */
    bool multiProductRuns_ = false;
};

} // namespace grow::core
