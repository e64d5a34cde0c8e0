/**
 * @file
 * Request validation and inference execution.
 *
 * The executor is the one place a ServeRequest meets the simulator:
 * it validates the (dataset, model, engine, depth) tuple against the
 * configured universe -- returning an error instead of fatal()ing,
 * because one malformed request in a stream must not end the caller's
 * run -- resolves the workload through the shared
 * driver::WorkloadCache (artefact reuse), and runs
 * gcn::runInference on a fresh engine instance.
 *
 * Everything in the returned digest is a deterministic function of
 * the request tuple alone: Executor::run and a direct
 * gcn::runInference of the same tuple produce a bit-identical digest
 * at any `sim_threads`. tests/serve/serve_equivalence_test.cpp checks
 * exactly that.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/workload_cache.hpp"
#include "serve/request.hpp"

namespace grow::serve {

/** Outcome of Executor::run. */
struct ExecResult
{
    bool ok = false;
    std::string error; ///< validation/execution failure (ok == false)
    InferenceDigest digest;
};

class Executor
{
  public:
    /**
     * Serve requests against @p cache. @p datasets is the allowed
     * dataset universe (empty = every registry dataset); a request
     * naming anything else is rejected as an error. @p sim_threads is
     * the phase-level fan-out budget handed to each inference.
     */
    Executor(driver::WorkloadCache &cache,
             std::vector<graph::DatasetSpec> datasets = {},
             uint32_t sim_threads = 1);

    /**
     * Execute @p req end to end: validate, resolve the workload
     * through the cache, run inference. Never throws or exits on a
     * bad request -- the failure comes back in ExecResult::error.
     * Thread-safe: concurrent calls share only the (thread-safe)
     * workload cache.
     */
    ExecResult run(const ServeRequest &req) const;

  private:
    const graph::DatasetSpec *findDataset(const std::string &name) const;

    /** Check @p req's dataset, model, engine and depth; on an invalid
     *  tuple return false with @p error set. */
    bool validate(const ServeRequest &req, std::string &error) const;

    driver::WorkloadCache &cache_;
    std::vector<graph::DatasetSpec> datasets_;
    uint32_t simThreads_ = 1;
};

/** Model-depth bound accepted by the executor. */
inline constexpr uint32_t kMaxServeDepth = 16;

} // namespace grow::serve
