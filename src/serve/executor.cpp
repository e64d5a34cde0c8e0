#include "serve/executor.hpp"

#include <algorithm>
#include <cctype>
#include <memory>
#include <utility>

#include "driver/engine_factory.hpp"
#include "gcn/runner.hpp"

namespace grow::serve {

namespace {

bool
iequals(const std::string &a, const std::string &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    return true;
}

} // namespace

Executor::Executor(driver::WorkloadCache &cache,
                   std::vector<graph::DatasetSpec> datasets,
                   uint32_t sim_threads)
    : cache_(cache), datasets_(std::move(datasets)),
      simThreads_(std::max(1u, sim_threads))
{
    if (datasets_.empty())
        datasets_ = graph::allDatasets();
}

const graph::DatasetSpec *
Executor::findDataset(const std::string &name) const
{
    for (const auto &spec : datasets_)
        if (iequals(spec.name, name))
            return &spec;
    return nullptr;
}

bool
Executor::validate(const ServeRequest &req, std::string &error) const
{
    auto fail = [&error](const std::string &msg) {
        error = msg;
        return false;
    };
    const graph::DatasetSpec *spec = findDataset(req.dataset);
    if (!spec)
        return fail("unknown dataset '" + req.dataset + "'");
    bool modelKnown = false;
    for (gcn::ModelKind kind : gcn::allModelKinds())
        if (req.model == gcn::modelKindName(kind))
            modelKnown = true;
    if (!modelKnown)
        return fail("unknown model '" + req.model + "'");
    const auto engines = driver::knownEngineKeys();
    if (std::find(engines.begin(), engines.end(), req.engine) ==
        engines.end())
        return fail("unknown engine '" + req.engine + "'");
    if (req.depth < 1 || req.depth > kMaxServeDepth)
        return fail("depth must be in [1, " +
                    std::to_string(kMaxServeDepth) + "], got " +
                    std::to_string(req.depth));
    return true;
}

ExecResult
Executor::run(const ServeRequest &req) const
{
    ExecResult result;
    if (!validate(req, result.error))
        return result;
    try {
        const graph::DatasetSpec &spec = *findDataset(req.dataset);
        const driver::EngineSpec engine = driver::engineByKey(req.engine);
        gcn::WorkloadConfig wc;
        wc.tier = req.tier;
        wc.model = gcn::modelKindFromString(req.model);
        wc.numLayers = req.depth;
        wc.seed = req.seed;
        const gcn::GcnWorkload workload = cache_.workload(spec, wc);
        gcn::RunOptions options;
        options.usePartitioning = engine.usePartitioning;
        options.sim.threads = simThreads_;
        auto sim = engine.make();
        const gcn::InferenceResult inference =
            gcn::runInference(*sim, workload, options);
        result.digest.cycles = inference.totalCycles;
        result.digest.dramBytes = inference.totalTrafficBytes();
        result.digest.macOps = inference.macOps;
        result.digest.cacheHits = inference.cacheHits;
        result.digest.cacheMisses = inference.cacheMisses;
        result.ok = true;
    } catch (const std::exception &e) {
        result.error = std::string("execution failed: ") + e.what();
    }
    return result;
}

} // namespace grow::serve
