/**
 * @file
 * The serving binaries' shared `key=value` option grammar.
 *
 * grow_serve accepts the schedule- and admission-control flags; this
 * is the one place their key lists and parsing live, so a
 * requireKnown() list always matches what the parser reads.
 */
#pragma once

#include <string>
#include <vector>

#include "serve/queue.hpp"
#include "serve/schedule.hpp"
#include "util/cli.hpp"

namespace grow::serve {

/**
 * grow_serve's schedule flags: requests=, seed=, mean_gap_us=,
 * tenants=, datasets=, engines=, model=, scale=, depth=,
 * feature_seed=, deadline_ms=. Append to a tool's requireKnown()
 * list.
 */
const std::vector<std::string> &scheduleKeys();

/**
 * Build a ScheduleConfig from parsed flags (defaults per field).
 * fatal() on a malformed tenants= mix or an out-of-range number:
 * requests= in [1, 10^6], mean_gap_us= in [2, 3.6e9] (one hour),
 * depth= in [1, kMaxServeDepth], deadline_ms= in [0, 3.6e6].
 */
ScheduleConfig scheduleFromArgs(const CliArgs &args);

/** The admission-control flags: queue_depth=, bytebudget=,
 *  default_deadline_ms=. */
const std::vector<std::string> &admissionKeys();

/**
 * Build an AdmissionConfig from parsed flags: queue_depth= (default
 * 64, in [1, 10^6]), bytebudget= (grow::parseByteSize grammar, default
 * off) and default_deadline_ms= (default 0 = none, at most one hour).
 */
AdmissionConfig admissionFromArgs(const CliArgs &args);

} // namespace grow::serve
