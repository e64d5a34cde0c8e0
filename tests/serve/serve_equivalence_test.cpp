/**
 * @file
 * Served-vs-direct equivalence: the same request tuple must produce a
 * bit-identical inference digest whether it runs through the
 * virtual-clock loop or a direct Executor call. Also covers the
 * executor's non-fatal handling of invalid requests: they resolve as
 * Error records and the run goes on.
 */
#include <gtest/gtest.h>

#include <map>

#include "driver/workload_cache.hpp"
#include "serve/executor.hpp"
#include "serve/virtual_serve.hpp"

namespace grow::serve {
namespace {

ServeRequest
unitRequest(uint64_t id, const std::string &dataset,
            const std::string &engine)
{
    ServeRequest req;
    req.id = id;
    req.dataset = dataset;
    req.engine = engine;
    req.tier = graph::ScaleTier::Unit;
    req.seed = 7 + id;
    return req;
}

/** @p requests as an instantaneous schedule, one microsecond apart. */
std::vector<ScheduledRequest>
scheduleOf(const std::vector<ServeRequest> &requests)
{
    std::vector<ScheduledRequest> schedule;
    for (size_t i = 0; i < requests.size(); ++i)
        schedule.push_back({static_cast<Micros>(i + 1), requests[i]});
    return schedule;
}

TEST(ServeEquivalence, VirtualAndDirectDigestsMatch)
{
    const std::vector<ServeRequest> requests = {
        unitRequest(1, "cora", "grow"),
        unitRequest(2, "citeseer", "gcnax"),
        unitRequest(3, "cora", "grow"), // distinct seed, same graph
    };

    // Direct: one Executor call per request.
    driver::WorkloadCache directCache;
    Executor direct(directCache);
    std::map<uint64_t, std::string> directLines;
    for (const ServeRequest &req : requests) {
        ExecResult r = direct.run(req);
        ASSERT_TRUE(r.ok) << r.error;
        directLines[req.id] = digestLine(req, r.digest);
    }

    // Virtual clock: same requests as an instantaneous schedule.
    driver::WorkloadCache virtCache;
    Executor virtExec(virtCache);
    auto virtualResult =
        runVirtualServe(scheduleOf(requests), &virtExec, {}, nullptr);
    ASSERT_EQ(virtualResult.records.size(), requests.size());
    for (const RequestRecord &rec : virtualResult.records) {
        ASSERT_EQ(rec.status, RequestStatus::Completed) << rec.error;
        EXPECT_EQ(digestLine(rec.request, rec.digest),
                  directLines.at(rec.request.id));
    }
}

TEST(ServeEquivalence, InvalidRequestsResolveAsErrorsNotFatal)
{
    driver::WorkloadCache cache;
    Executor executor(cache);

    // Validated, answered, never executed.
    ExecResult bad = executor.run(unitRequest(5, "atlantis", "grow"));
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.error.empty());
    bad = executor.run(unitRequest(6, "cora", "warp-drive"));
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.error.empty());

    // In a schedule the invalid requests become Error records and the
    // valid one after them is still served.
    ServeMetrics metrics;
    const auto result = runVirtualServe(
        scheduleOf({unitRequest(5, "atlantis", "grow"),
                    unitRequest(6, "cora", "warp-drive"),
                    unitRequest(7, "cora", "grow")}),
        &executor, {}, &metrics);
    std::map<uint64_t, RequestStatus> status;
    for (const RequestRecord &rec : result.records)
        status[rec.request.id] = rec.status;
    EXPECT_EQ(status.at(5), RequestStatus::Error);
    EXPECT_EQ(status.at(6), RequestStatus::Error);
    EXPECT_EQ(status.at(7), RequestStatus::Completed);
    EXPECT_EQ(metrics.outcomes(), 3u);
}

} // namespace
} // namespace grow::serve
