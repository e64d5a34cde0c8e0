/**
 * @file
 * Host wall-clock instrumentation for the simulator itself.
 *
 * Everything else in the repository measures *modeled* time (cycles of
 * the simulated accelerator). WallClock/ScopedTimer measure the *host*
 * time the simulator spends producing those cycles, feeding the
 * `sim-speed` metric family (wall-clock per phase/bench, simulated
 * rows per host second) that bench_suite emits into BENCH_GROW.json
 * when `profile=1`.
 *
 * Wall-clock readings are inherently nondeterministic, so they must
 * never leak into golden-locked output: profiling is opt-in, the
 * records carry their own units ("ms", "rows/s") outside the
 * default-gated set, and tools/report_diff only gates them through an
 * explicit per-metric tolerance override (`tol.rows/s=0.15`).
 */
#pragma once

#include <chrono>

namespace grow::util {

/** Monotonic stopwatch, started at construction. */
class WallClock
{
  public:
    WallClock() : start_(std::chrono::steady_clock::now()) {}

    /** Elapsed host milliseconds since construction. */
    double
    elapsedMs() const
    {
        auto d = std::chrono::steady_clock::now() - start_;
        return std::chrono::duration<double, std::milli>(d).count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Adds the elapsed milliseconds of its scope to an accumulator. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(double &accum_ms) : accum_(accum_ms) {}
    ~ScopedTimer() { accum_ += clock_.elapsedMs(); }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    double &accum_;
    WallClock clock_;
};

/** Simulated rows per host second (0 when no time elapsed). */
inline double
rowsPerSecond(uint64_t rows, double wall_ms)
{
    return wall_ms > 0.0
               ? static_cast<double>(rows) * 1000.0 / wall_ms
               : 0.0;
}

} // namespace grow::util
