#include "driver/sweep_driver.hpp"

#include <atomic>
#include <exception>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/grow.hpp"
#include "util/logging.hpp"
#include "util/work_pool.hpp"

namespace grow::driver {

SweepJob
makeEngineJob(const std::string &key, const gcn::GcnWorkload &workload,
              const gcn::RunOptions &base)
{
    auto spec = engineByKey(key);
    SweepJob job;
    // Non-default models join the label ("yelp/gat/grow") so mixed
    // model-zoo sweeps stay distinguishable; plain GCN keeps the
    // original "yelp/grow" form.
    std::string model =
        workload.model == gcn::ModelKind::Gcn
            ? ""
            : std::string(gcn::modelKindName(workload.model)) + "/";
    job.label = std::string(workload.spec() ? workload.spec()->name : "?") +
                "/" + model + key;
    job.makeEngine = std::move(spec.make);
    job.workload = &workload;
    job.options = base;
    job.options.usePartitioning = spec.usePartitioning;
    return job;
}

SweepJob
growJob(const std::string &label, const core::GrowConfig &config,
        const gcn::GcnWorkload &workload, const gcn::RunOptions &base)
{
    SweepJob job;
    job.label = label;
    job.makeEngine = [config] {
        return std::make_unique<core::GrowSim>(config);
    };
    job.workload = &workload;
    job.options = base;
    job.options.usePartitioning = true;
    return job;
}

SweepDriver::SweepDriver(uint32_t num_threads)
{
    if (num_threads == 0)
        num_threads = std::max(1u, std::thread::hardware_concurrency());
    numThreads_ = num_threads;
}

namespace {

/** Best-effort message of a stored exception. */
std::string
errorMessage(const std::exception_ptr &err)
{
    try {
        std::rethrow_exception(err);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown error";
    }
}

} // namespace

std::vector<SweepOutcome>
SweepDriver::runAll(const std::vector<SweepJob> &jobs) const
{
    std::vector<SweepOutcome> outcomes(jobs.size());
    if (jobs.empty())
        return outcomes;
    // Labels are assigned up front so even jobs that fail or are
    // skipped by fail-fast keep their identity in the outcome slots.
    for (size_t i = 0; i < jobs.size(); ++i)
        outcomes[i].label = jobs[i].label;

    std::atomic<bool> failed{false};
    std::vector<std::exception_ptr> errors(jobs.size());
    std::vector<char> ran(jobs.size(), 0);

    // Jobs run on the shared process-wide pool (util::WorkPool), so a
    // job that itself fans out -- phase-parallel executePlan, the
    // scale-out halo step -- reuses the same workers instead of
    // oversubscribing the machine with a second thread layer.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        tasks.emplace_back([&, i] {
            if (failed.load())
                return; // fail-fast: skip unstarted jobs
            const SweepJob &job = jobs[i];
            ran[i] = 1;
            try {
                GROW_ASSERT(job.workload != nullptr,
                            "sweep job without a workload");
                GROW_ASSERT(static_cast<bool>(job.makeEngine),
                            "sweep job without an engine factory");
                auto engine = job.makeEngine();
                outcomes[i].inference =
                    gcn::runInference(*engine, *job.workload, job.options);
            } catch (...) {
                errors[i] = std::current_exception();
                failed.store(true);
            }
        });
    }
    util::WorkPool::shared().runAll(std::move(tasks), numThreads_);

    if (failed.load()) {
        // One aggregate report: every error in job order, then the
        // labels fail-fast skipped. A caller that only reads the first
        // line still sees the first failure first.
        size_t numErrors = 0;
        std::ostringstream skipped;
        size_t numSkipped = 0;
        std::ostringstream msg;
        for (size_t i = 0; i < jobs.size(); ++i) {
            if (errors[i]) {
                ++numErrors;
                msg << "\n  " << jobs[i].label << ": "
                    << errorMessage(errors[i]);
            } else if (!ran[i]) {
                skipped << (numSkipped++ ? ", " : "") << jobs[i].label;
            }
        }
        std::ostringstream head;
        head << "sweep failed: " << numErrors << " of " << jobs.size()
             << " job(s) threw:" << msg.str();
        if (numSkipped)
            head << "\n  skipped by fail-fast: " << skipped.str();
        throw std::runtime_error(head.str());
    }
    return outcomes;
}

} // namespace grow::driver
