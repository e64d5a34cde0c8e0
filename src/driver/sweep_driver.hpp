/**
 * @file
 * Parallel sweep execution over engine x workload x options jobs.
 *
 * Every figure bench and design-space example is a sweep: the same
 * inference executed under many (engine, dataset, config, depth)
 * combinations, each combination independent of the others. Engine
 * instances carry no state across run() calls and workloads are only
 * read, so combinations parallelise perfectly: the driver fans jobs
 * out over the shared util::WorkPool (one fresh engine instance per
 * job, constructed on the worker that claims it; at most numThreads
 * jobs in flight) and returns results in job order regardless of
 * completion order, so parallel sweeps are bit-identical to serial
 * ones. Jobs that fan out internally (phase-parallel executePlan, the
 * scale-out halo step) reuse the same pool workers -- nesting never
 * oversubscribes. See DESIGN.md for the threading model.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "driver/engine_factory.hpp"
#include "gcn/runner.hpp"
#include "gcn/workload.hpp"

namespace grow::driver {

/** One independent inference of a sweep. */
struct SweepJob
{
    /** Caller-chosen tag echoed in the result ("yelp/grow", ...). */
    std::string label;
    /** Fresh-engine factory; invoked once, on the executing worker. */
    EngineFactory makeEngine;
    /** Borrowed workload; must outlive runAll(). */
    const gcn::GcnWorkload *workload = nullptr;
    gcn::RunOptions options;
};

/** Outcome of one job. */
struct SweepOutcome
{
    std::string label;
    gcn::InferenceResult inference;
};

/**
 * Build the job for engine @p key on @p workload: the engine's layout
 * convention (Table II) decides options.usePartitioning; other options
 * come from @p base.
 */
SweepJob makeEngineJob(const std::string &key,
                       const gcn::GcnWorkload &workload,
                       const gcn::RunOptions &base = {});

/**
 * Build the job labelled @p label that runs GROW under @p config on
 * @p workload in GROW's layout (options.usePartitioning on); other
 * options come from @p base.
 */
SweepJob growJob(const std::string &label, const core::GrowConfig &config,
                 const gcn::GcnWorkload &workload,
                 const gcn::RunOptions &base = {});

/** Fixed-size thread pool running sweep jobs. */
class SweepDriver
{
  public:
    /** @p num_threads 0 picks the hardware concurrency. */
    explicit SweepDriver(uint32_t num_threads = 0);

    uint32_t numThreads() const { return numThreads_; }

    /**
     * Run every job and return the outcomes in job order. A throwing
     * job cancels the sweep: remaining unclaimed jobs are skipped, all
     * workers drain, and one aggregate error is thrown that reports
     * *every* collected failure (in job order) plus the labels of the
     * jobs skipped by fail-fast -- no job vanishes silently.
     */
    std::vector<SweepOutcome> runAll(const std::vector<SweepJob> &jobs) const;

  private:
    uint32_t numThreads_ = 1;
};

} // namespace grow::driver
