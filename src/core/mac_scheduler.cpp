#include "core/mac_scheduler.hpp"

#include <algorithm>
#include <limits>

#include "util/logging.hpp"

namespace grow::core {

void
MacScheduler::addRun(Cycle ready, uint64_t row_token, Cycle dur,
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
    pending_.push(Run{ready, nextSeq_++, row_token,
                      static_cast<uint32_t>(dur), count});
}

MacCompletion
MacScheduler::drainOne()
{
    GROW_ASSERT(!pending_.empty(), "drainOne() with no pending runs");
    Run r = pending_.top();
    pending_.pop();
    const Cycle work = static_cast<Cycle>(r.count) * r.dur;
    macFree_ = std::max(macFree_, r.ready) + work;
    busyCycles_ += work;
    return MacCompletion{r.rowToken, r.count, macFree_};
}

} // namespace grow::core
