#include "serve/options.hpp"

#include "graph/datasets.hpp"
#include "serve/executor.hpp"
#include "util/logging.hpp"

namespace grow::serve {

namespace {

/** Largest schedule / queue a flag may ask for. */
constexpr int64_t kMaxRequests = 1000000;
/** Longest gap or deadline a flag may ask for: one virtual hour. */
constexpr int64_t kMaxMs = 3600 * 1000;

} // namespace

const std::vector<std::string> &
scheduleKeys()
{
    static const std::vector<std::string> keys = {
        "requests", "seed",  "mean_gap_us", "tenants",     "datasets",
        "engines",  "model", "scale",       "depth",       "feature_seed",
        "deadline_ms"};
    return keys;
}

ScheduleConfig
scheduleFromArgs(const CliArgs &args)
{
    ScheduleConfig config;
    config.seed = static_cast<uint64_t>(args.getInt("seed", 7));
    config.count = static_cast<uint32_t>(
        args.getInt("requests", 32, 1, kMaxRequests));
    config.meanGapUs = args.getInt("mean_gap_us", 2000, 2, kMaxMs * 1000);
    if (args.has("tenants")) {
        std::string error;
        if (!parseTenantMix(args.get("tenants", ""), config.tenants,
                            &error))
            fatal("tenants=: " + error);
    }
    config.datasets = args.getList("datasets", {"cora"});
    config.engines = args.getList("engines", {"grow"});
    config.model = args.get("model", "gcn");
    config.tier = graph::tierFromString(args.get("scale", "mini"));
    config.depth =
        static_cast<uint32_t>(args.getInt("depth", 2, 1, kMaxServeDepth));
    config.featureSeedBase =
        static_cast<uint64_t>(args.getInt("feature_seed", 7));
    config.deadlineRelUs = args.getInt("deadline_ms", 0, 0, kMaxMs) * 1000;
    return config;
}

const std::vector<std::string> &
admissionKeys()
{
    static const std::vector<std::string> keys = {
        "queue_depth", "bytebudget", "default_deadline_ms"};
    return keys;
}

AdmissionConfig
admissionFromArgs(const CliArgs &args)
{
    AdmissionConfig admission;
    admission.maxDepth = static_cast<uint32_t>(
        args.getInt("queue_depth", 64, 1, kMaxRequests));
    if (args.has("bytebudget"))
        admission.byteBudget =
            parseByteSize("bytebudget", args.get("bytebudget", ""));
    admission.defaultDeadlineUs =
        args.getInt("default_deadline_ms", 0, 0, kMaxMs) * 1000;
    return admission;
}

} // namespace grow::serve
