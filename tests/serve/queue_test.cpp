/**
 * @file
 * RequestQueue admission control: bounded depth, in-flight byte
 * budget, deadline expiry at dispatch and the per-tenant fair-share
 * pop order.
 */
#include <gtest/gtest.h>

#include "serve/queue.hpp"

namespace grow::serve {
namespace {

ServeRequest
makeRequest(uint64_t id, const std::string &tenant, uint64_t costBytes = 0)
{
    ServeRequest r;
    r.id = id;
    r.tenant = tenant;
    r.dataset = "cora";
    r.costBytes = costBytes;
    return r;
}

TEST(RequestQueue, RejectsPastMaxDepth)
{
    AdmissionConfig config;
    config.maxDepth = 2;
    RequestQueue q(config);
    EXPECT_EQ(q.push(makeRequest(1, "a"), 0), Admission::Admitted);
    EXPECT_EQ(q.push(makeRequest(2, "a"), 0), Admission::Admitted);
    EXPECT_EQ(q.push(makeRequest(3, "a"), 0), Admission::QueueFull);
    EXPECT_EQ(q.depth(), 2u);

    // A dispatch frees the slot.
    ServeRequest out;
    std::vector<ServeRequest> expired;
    ASSERT_TRUE(q.pop(0, out, expired));
    EXPECT_EQ(q.push(makeRequest(4, "a"), 0), Admission::Admitted);
}

TEST(RequestQueue, ByteBudgetCountsQueuedAndInflight)
{
    AdmissionConfig config;
    config.maxDepth = 16;
    config.byteBudget = 100;
    RequestQueue q(config);
    EXPECT_EQ(q.push(makeRequest(1, "a", 60), 0), Admission::Admitted);
    EXPECT_EQ(q.push(makeRequest(2, "a", 60), 0),
              Admission::OverByteBudget);
    EXPECT_EQ(q.push(makeRequest(3, "a", 40), 0), Admission::Admitted);

    // Dispatching does NOT release the budget -- the request is now
    // in flight; only completion does.
    ServeRequest out;
    std::vector<ServeRequest> expired;
    ASSERT_TRUE(q.pop(0, out, expired));
    EXPECT_EQ(out.id, 1u);
    EXPECT_EQ(q.pendingBytes(), 100u);
    EXPECT_EQ(q.push(makeRequest(4, "a", 10), 0),
              Admission::OverByteBudget);
    q.onComplete(out);
    EXPECT_EQ(q.pendingBytes(), 40u);
    EXPECT_EQ(q.push(makeRequest(5, "a", 10), 0), Admission::Admitted);
}

TEST(RequestQueue, DeadlineStampedAndExpiredAtPop)
{
    AdmissionConfig config;
    config.defaultDeadlineUs = 500;
    RequestQueue q(config);

    // Relative wire deadline wins over the default.
    ServeRequest withRel = makeRequest(1, "a");
    withRel.deadlineRelUs = 100;
    EXPECT_EQ(q.push(withRel, 1000), Admission::Admitted);
    ServeRequest noRel = makeRequest(2, "a");
    EXPECT_EQ(q.push(noRel, 1000), Admission::Admitted);

    // At t=1200 request 1 (deadline 1100) is expired, request 2
    // (deadline 1500) dispatches.
    ServeRequest out;
    std::vector<ServeRequest> expired;
    ASSERT_TRUE(q.pop(1200, out, expired));
    EXPECT_EQ(out.id, 2u);
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0].id, 1u);
    EXPECT_EQ(expired[0].deadlineUs, 1100);
    EXPECT_EQ(out.deadlineUs, 1500);
    EXPECT_EQ(q.depth(), 0u);
}

TEST(RequestQueue, ExpiredRequestsReleaseBytes)
{
    AdmissionConfig config;
    config.byteBudget = 100;
    RequestQueue q(config);
    ServeRequest r = makeRequest(1, "a", 80);
    r.deadlineRelUs = 10;
    EXPECT_EQ(q.push(r, 0), Admission::Admitted);
    EXPECT_EQ(q.pendingBytes(), 80u);

    ServeRequest out;
    std::vector<ServeRequest> expired;
    EXPECT_FALSE(q.pop(100, out, expired));
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(q.pendingBytes(), 0u);
    EXPECT_EQ(q.push(makeRequest(2, "a", 80), 100), Admission::Admitted);
}

TEST(RequestQueue, FairShareRoundRobinAcrossTenants)
{
    RequestQueue q({});
    // Tenant "a" floods; "b" and "c" each queue one request.
    for (uint64_t i = 1; i <= 4; ++i)
        EXPECT_EQ(q.push(makeRequest(i, "a"), 0), Admission::Admitted);
    EXPECT_EQ(q.push(makeRequest(10, "b"), 0), Admission::Admitted);
    EXPECT_EQ(q.push(makeRequest(20, "c"), 0), Admission::Admitted);
    EXPECT_EQ(q.activeTenants(), 3u);

    std::vector<uint64_t> order;
    ServeRequest out;
    std::vector<ServeRequest> expired;
    while (q.pop(0, out, expired))
        order.push_back(out.id);
    // One request from every active tenant per cycle, tenants in name
    // order: a, b, c, then a's backlog alone.
    EXPECT_EQ(order, (std::vector<uint64_t>{1, 10, 20, 2, 3, 4}));
}

TEST(RequestQueue, FifoWithinOneTenant)
{
    RequestQueue q({});
    for (uint64_t i = 1; i <= 5; ++i)
        EXPECT_EQ(q.push(makeRequest(i, "only"), 0), Admission::Admitted);
    std::vector<uint64_t> order;
    ServeRequest out;
    std::vector<ServeRequest> expired;
    while (q.pop(0, out, expired))
        order.push_back(out.id);
    EXPECT_EQ(order, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
}

} // namespace
} // namespace grow::serve
