/**
 * @file
 * Request and digest types of serve::Executor.
 *
 * A ServeRequest names one inference: a (dataset, model, engine,
 * scale tier, depth) tuple plus the per-request seed that stands in
 * for fresh user input. Its InferenceDigest holds the integer-exact
 * modelled outputs of that inference, so two runs of the same request
 * compare field by field.
 */
#pragma once

#include <cstdint>
#include <string>

#include "graph/datasets.hpp"

namespace grow::serve {

/** One inference request. */
struct ServeRequest
{
    /** Caller-chosen request id, unique within the caller's stream. */
    uint64_t id = 0;
    std::string tenant = "default";
    std::string dataset;
    std::string model = "gcn";
    std::string engine = "grow";
    graph::ScaleTier tier = graph::ScaleTier::Mini;
    uint32_t depth = 2;     ///< model depth (layers)
    uint64_t seed = 7;      ///< per-request feature seed
};

/**
 * The deterministic core of one completed inference: every field is a
 * bit-exact function of the request tuple, so Executor::run and a
 * direct gcn::runInference of the same tuple produce identical
 * digests, for every `sim_threads` value.
 */
struct InferenceDigest
{
    uint64_t cycles = 0;      ///< simulated accelerator cycles
    uint64_t dramBytes = 0;   ///< total DRAM traffic
    uint64_t macOps = 0;
    uint64_t cacheHits = 0;   ///< HDN cache hits
    uint64_t cacheMisses = 0;
};

} // namespace grow::serve
