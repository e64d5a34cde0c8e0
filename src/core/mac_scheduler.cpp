#include "core/mac_scheduler.hpp"

#include <algorithm>
#include <limits>

#include "util/logging.hpp"

namespace grow::core {

MacScheduler::Run
MacScheduler::makeRun(Cycle ready, uint64_t row_token, Cycle dur,
                      uint32_t count)
{
    GROW_ASSERT(dur > 0 && dur <= std::numeric_limits<uint32_t>::max(),
                "product duration must be in [1, 2^32)");
    GROW_ASSERT(count > 0, "a MAC run needs at least one product");
    if (count > 1 || multiProductRuns_) {
        GROW_ASSERT(nextSeq_ == 0 || ready > lastReady_,
                    "MAC run interleaves with an earlier product");
        multiProductRuns_ = true;
    }
    lastReady_ = std::max(lastReady_, ready + count - 1);
    return Run{ready, nextSeq_++, row_token, static_cast<uint32_t>(dur),
               count};
}

void
MacScheduler::addRun(Cycle ready, uint64_t row_token, Cycle dur,
                     uint32_t count)
{
    GROW_ASSERT(ready >= camNext_,
                "CAM-ready run starts before an earlier CAM-ready "
                "product");
    cam_.push_back(makeRun(ready, row_token, dur, count));
    camNext_ = ready + count;
}

void
MacScheduler::addFill(Cycle ready, uint64_t row_token, Cycle dur)
{
    fills_.push(makeRun(ready, row_token, dur, 1));
}

MacCompletion
MacScheduler::drainOne()
{
    GROW_ASSERT(!idle(), "drainOne() with no pending runs");
    Run r;
    if (fills_.empty() ||
        (!cam_.empty() && Earlier{}(cam_.front(), fills_.top()))) {
        r = cam_.front();
        cam_.pop_front();
    } else {
        r = fills_.top();
        fills_.pop();
    }
    const Cycle work = static_cast<Cycle>(r.count) * r.dur;
    macFree_ = std::max(macFree_, r.ready) + work;
    busyCycles_ += work;
    return MacCompletion{r.rowToken, r.count, macFree_};
}

} // namespace grow::core
