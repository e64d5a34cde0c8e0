/**
 * @file
 * Executor-vs-direct equivalence: a request served by Executor::run
 * must produce the same inference digest as a direct
 * gcn::runInference of the same tuple, at any `sim_threads`. Also
 * covers the executor's non-fatal handling of invalid requests: they
 * come back as errors and the next valid request is still served.
 */
#include <gtest/gtest.h>

#include "driver/engine_factory.hpp"
#include "driver/workload_cache.hpp"
#include "gcn/runner.hpp"
#include "serve/executor.hpp"

namespace grow::serve {
namespace {

ServeRequest
unitRequest(uint64_t id, const std::string &dataset,
            const std::string &engine, const std::string &model = "gcn",
            uint32_t depth = 2)
{
    ServeRequest req;
    req.id = id;
    req.dataset = dataset;
    req.model = model;
    req.engine = engine;
    req.tier = graph::ScaleTier::Unit;
    req.depth = depth;
    req.seed = 7 + id;
    return req;
}

/** The digest of @p req from a one-shot workload build and a direct
 *  gcn::runInference, bypassing the executor and its cache. */
InferenceDigest
directDigest(const ServeRequest &req)
{
    gcn::WorkloadConfig wc;
    wc.tier = req.tier;
    wc.model = gcn::modelKindFromString(req.model);
    wc.numLayers = req.depth;
    wc.seed = req.seed;
    const gcn::GcnWorkload workload =
        gcn::buildWorkload(graph::datasetByName(req.dataset), wc);
    const driver::EngineSpec engine = driver::engineByKey(req.engine);
    gcn::RunOptions options;
    options.usePartitioning = engine.usePartitioning;
    auto sim = engine.make();
    const gcn::InferenceResult r = gcn::runInference(*sim, workload, options);
    InferenceDigest d;
    d.cycles = r.totalCycles;
    d.dramBytes = r.totalTrafficBytes();
    d.macOps = r.macOps;
    d.cacheHits = r.cacheHits;
    d.cacheMisses = r.cacheMisses;
    return d;
}

void
expectSameDigest(const InferenceDigest &a, const InferenceDigest &b,
                 const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.dramBytes, b.dramBytes) << what;
    EXPECT_EQ(a.macOps, b.macOps) << what;
    EXPECT_EQ(a.cacheHits, b.cacheHits) << what;
    EXPECT_EQ(a.cacheMisses, b.cacheMisses) << what;
}

TEST(ServeEquivalence, ExecutorDigestEqualsDirectInferenceAtAnyThreads)
{
    std::vector<ServeRequest> requests;
    for (const char *dataset : {"cora", "citeseer"})
        for (const char *engine : {"grow", "gcnax"})
            for (const char *model : {"gcn", "gat", "gin"})
                for (uint32_t depth : {2u, 3u})
                    requests.push_back(unitRequest(requests.size(), dataset,
                                                   engine, model, depth));
    // cora and citeseer fit GROW's HDN cache at unit scale, so their
    // digests do not depend on the partitioned layout; mini pubmed's
    // does, so an executor that dropped the engine's layout shows.
    ServeRequest pubmed = unitRequest(requests.size(), "pubmed", "grow");
    pubmed.tier = graph::ScaleTier::Mini;
    requests.push_back(pubmed);
    std::vector<InferenceDigest> direct;
    for (const ServeRequest &req : requests)
        direct.push_back(directDigest(req));

    driver::WorkloadCache cache;
    for (uint32_t threads : {1u, 2u}) {
        Executor executor(cache, {}, threads);
        for (size_t i = 0; i < requests.size(); ++i) {
            const ServeRequest &req = requests[i];
            const std::string what =
                req.dataset + "/" + req.engine + "/" + req.model +
                " depth=" + std::to_string(req.depth) +
                " threads=" + std::to_string(threads);
            const ExecResult r = executor.run(req);
            ASSERT_TRUE(r.ok) << what << ": " << r.error;
            EXPECT_GT(r.digest.cycles, 0u) << what;
            expectSameDigest(r.digest, direct[i], what);
        }
    }
}

TEST(ServeEquivalence, InvalidRequestsResolveAsErrorsNotFatal)
{
    driver::WorkloadCache cache;
    Executor executor(cache, graph::datasetsByNames({"cora", "citeseer"}));

    // Validated, answered, never executed.
    std::vector<ServeRequest> invalid = {
        unitRequest(1, "atlantis", "grow"),            // unknown dataset
        unitRequest(2, "pubmed", "grow"),              // outside the universe
        unitRequest(3, "cora", "grow", "transformer"), // unknown model
        unitRequest(4, "cora", "warp-drive"),          // unknown engine
        unitRequest(5, "cora", "grow", "gcn", 0),
        unitRequest(6, "cora", "grow", "gcn", kMaxServeDepth + 1),
    };
    for (const ServeRequest &req : invalid) {
        const ExecResult bad = executor.run(req);
        EXPECT_FALSE(bad.ok) << "request " << req.id;
        EXPECT_FALSE(bad.error.empty()) << "request " << req.id;
    }
    EXPECT_EQ(cache.stats().builds, 0u);

    // The valid request after them is still served.
    const ServeRequest good = unitRequest(7, "cora", "grow");
    const ExecResult r = executor.run(good);
    ASSERT_TRUE(r.ok) << r.error;
    expectSameDigest(r.digest, directDigest(good), "after invalid requests");
}

} // namespace
} // namespace grow::serve
