/**
 * @file
 * Minimal key=value command-line parsing for bench/example binaries.
 *
 * Every harness accepts arguments of the form `key=value` (e.g.
 * `scale=mini datasets=cora,reddit seed=7`), so running a binary with
 * no arguments uses sensible defaults while focused re-runs stay one
 * key away.
 */
#pragma once

#include <cstdint>
#include <limits>
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

    /**
     * Integer option with default. fatal(), naming @p key, unless the
     * whole value is a base-10 integer in [@p lo, @p hi]: `threads=abc`
     * or `requests=-1` must stop the run, not read as 0 or wrap.
     */
    int64_t getInt(const std::string &key, int64_t def,
                   int64_t lo = std::numeric_limits<int64_t>::min(),
                   int64_t hi = std::numeric_limits<int64_t>::max()) const;

    /** Double option with default; fatal(), naming @p key, unless the
     *  whole value is a finite number. */
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
 * The main() of every tool and example: return @p body(argc, argv),
 * but turn an escaping exception -- fatal() on a user error, panic()
 * on a simulator bug -- into one `<binary>: <message>` line on stderr
 * and exit code @p error_exit instead of a SIGABRT from
 * std::terminate. Benches have the same guard in bench::runBench.
 */
int runMain(int argc, char **argv, int (*body)(int, char **),
            int error_exit = 1);

} // namespace grow
