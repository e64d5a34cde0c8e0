#include "serve/queue.hpp"

#include <utility>

#include "util/logging.hpp"

namespace grow::serve {

RequestQueue::RequestQueue(AdmissionConfig config) : config_(config)
{
    GROW_ASSERT(config_.maxDepth >= 1,
                "RequestQueue needs maxDepth >= 1");
}

Admission
RequestQueue::push(ServeRequest r, Micros now)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (depth_ >= config_.maxDepth)
        return Admission::QueueFull;
    if (config_.byteBudget > 0 &&
        queuedBytes_ + inflightBytes_ + r.costBytes > config_.byteBudget)
        return Admission::OverByteBudget;
    r.arrivalUs = now;
    if (r.deadlineUs == 0) {
        if (r.deadlineRelUs > 0)
            r.deadlineUs = now + r.deadlineRelUs;
        else if (config_.defaultDeadlineUs > 0)
            r.deadlineUs = now + config_.defaultDeadlineUs;
    }
    queuedBytes_ += r.costBytes;
    ++depth_;
    tenants_[r.tenant].push_back(std::move(r));
    return Admission::Admitted;
}

bool
RequestQueue::pop(Micros now, ServeRequest &out,
                  std::vector<ServeRequest> &expired)
{
    std::lock_guard<std::mutex> lk(mu_);
    while (depth_ > 0) {
        // Fair share: the first non-empty tenant strictly after the
        // cursor, wrapping -- a skewed tenant's backlog waits behind
        // one request from every other active tenant.
        auto it = tenants_.upper_bound(cursor_);
        if (it == tenants_.end())
            it = tenants_.begin();
        ServeRequest r = std::move(it->second.front());
        it->second.pop_front();
        cursor_ = it->first;
        if (it->second.empty())
            tenants_.erase(it);
        --depth_;
        queuedBytes_ -= r.costBytes;
        if (r.deadlineUs > 0 && now > r.deadlineUs) {
            // Cancelled before dispatch: bytes released, slot freed.
            expired.push_back(std::move(r));
            continue;
        }
        inflightBytes_ += r.costBytes;
        out = std::move(r);
        return true;
    }
    return false;
}

void
RequestQueue::onComplete(const ServeRequest &r)
{
    std::lock_guard<std::mutex> lk(mu_);
    GROW_ASSERT(inflightBytes_ >= r.costBytes,
                "onComplete() without a matching pop()");
    inflightBytes_ -= r.costBytes;
}

uint32_t
RequestQueue::depth() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return depth_;
}

uint64_t
RequestQueue::pendingBytes() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return queuedBytes_ + inflightBytes_;
}

uint32_t
RequestQueue::activeTenants() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return static_cast<uint32_t>(tenants_.size());
}

} // namespace grow::serve
