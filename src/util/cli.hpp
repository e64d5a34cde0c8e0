/**
 * @file
 * Minimal key=value command-line parsing for bench/example binaries.
 *
 * Every harness accepts arguments of the form `key=value` (e.g.
 * `scale=mini datasets=cora,reddit seed=7`) so that the default
 * `for b in build/bench/*; do $b; done` sweep runs with sensible
 * defaults while still allowing focused re-runs.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace grow {

/** Parsed `key=value` command-line options with typed accessors. */
class CliArgs
{
  public:
    CliArgs() = default;

    /** Parse argv; unknown positional arguments trigger fatal(). */
    CliArgs(int argc, char **argv);

    /** Whether @p key was supplied. */
    bool has(const std::string &key) const;

    /** String option with default. */
    std::string get(const std::string &key, const std::string &def) const;

    /** Integer option with default. */
    int64_t getInt(const std::string &key, int64_t def) const;

    /** Double option with default. */
    double getDouble(const std::string &key, double def) const;

    /** Boolean option with default (accepts 0/1/true/false/yes/no). */
    bool getBool(const std::string &key, bool def) const;

    /** Comma-separated list option. */
    std::vector<std::string>
    getList(const std::string &key, const std::vector<std::string> &def) const;

    /**
     * Repeatable prefixed options: every supplied key starting with
     * @p prefix, returned as (suffix -> value) with the prefix
     * stripped. `tol.cycles=0.02 tol.rows/s=0.15` under prefix "tol."
     * yields {cycles: "0.02", "rows/s": "0.15"}. Suffixes must be
     * non-empty (a bare `tol.=x` is rejected by requireKnown).
     */
    std::map<std::string, std::string>
    withPrefix(const std::string &prefix) const;

    /**
     * fatal() unless every supplied key is in @p known or carries one
     * of @p known_prefixes with a non-empty suffix. A typo like
     * `cachdir=` must abort with the accepted-key list instead of
     * silently running with the option dropped.
     */
    void requireKnown(const std::vector<std::string> &known,
                      const std::vector<std::string> &known_prefixes = {})
        const;

  private:
    std::map<std::string, std::string> kv_;
};

/**
 * Parse a byte-size option value: digits with an optional K/M/G suffix
 * (binary multiples). @p key names the option in error messages. The
 * one grammar behind every byte-budget flag (`memcap=`, `bytebudget=`).
 */
uint64_t parseByteSize(const std::string &key, const std::string &value);

} // namespace grow
