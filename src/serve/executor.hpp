/**
 * @file
 * Request validation and inference execution for the serving layer.
 *
 * The executor is the one place a ServeRequest meets the simulator:
 * it validates the (dataset, model, engine, depth) tuple against the
 * configured universe -- returning an error instead of fatal()ing,
 * because one malformed request in a schedule must resolve as an
 * Error record, not end the run -- resolves the workload through the
 * shared driver::WorkloadCache (artefact reuse + LRU eviction), and
 * runs gcn::runInference on a fresh engine instance.
 *
 * Everything in the returned digest is a deterministic function of
 * the request tuple alone: the same request served by the
 * virtual-clock loop or by a direct in-process call, at any
 * `threads=`, produces a bit-identical digest. The CI serving smoke
 * diffs exactly that.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/workload_cache.hpp"
#include "serve/request.hpp"

namespace grow::serve {

/**
 * Admission cost estimate of one request: the approximate operand
 * footprint (features + adjacency working set) its inference will
 * pin. A deterministic closed form of the dataset spec -- cheap
 * enough to compute on every push, never exact; the byte budget it
 * feeds is a load-shedding knob, not an allocator.
 */
uint64_t estimateRequestBytes(const graph::DatasetSpec &spec,
                              graph::ScaleTier tier, uint32_t depth);

/** Outcome of Executor::run. */
struct ExecResult
{
    bool ok = false;
    std::string error; ///< validation/execution failure (ok == false)
    InferenceDigest digest;
    double hostMs = 0.0; ///< host wall-clock of resolve + inference
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
     * Validate @p req (dataset/model/engine/depth) without executing.
     * Returns false with @p error set on an invalid tuple. Also fills
     * req.costBytes from estimateRequestBytes -- validation is the
     * admission-side step, so the cost ride-alongs here.
     */
    bool validate(ServeRequest &req, std::string *error) const;

    /**
     * Execute @p req end to end: validate, resolve the workload
     * through the cache, run inference. Never throws or exits on a
     * bad request -- the failure comes back in ExecResult::error.
     * Thread-safe: concurrent calls share only the (thread-safe)
     * workload cache.
     */
    ExecResult run(const ServeRequest &req) const;

    const std::vector<graph::DatasetSpec> &datasets() const
    {
        return datasets_;
    }

  private:
    const graph::DatasetSpec *findDataset(const std::string &name) const;

    driver::WorkloadCache &cache_;
    std::vector<graph::DatasetSpec> datasets_;
    uint32_t simThreads_ = 1;
};

/** Model-depth bound accepted by the serving layer. */
inline constexpr uint32_t kMaxServeDepth = 16;

} // namespace grow::serve
