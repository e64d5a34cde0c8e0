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

/** Build a ScheduleConfig from parsed flags (defaults per field);
 *  fatal() on a malformed tenants= mix. */
ScheduleConfig scheduleFromArgs(const CliArgs &args);

/** The admission-control flags: queue_depth=, bytebudget=,
 *  default_deadline_ms=. */
const std::vector<std::string> &admissionKeys();

/**
 * Build an AdmissionConfig from parsed flags: queue_depth= (default
 * 64), bytebudget= (grow::parseByteSize grammar, default off) and
 * default_deadline_ms= (default 0 = none).
 */
AdmissionConfig admissionFromArgs(const CliArgs &args);

} // namespace grow::serve
