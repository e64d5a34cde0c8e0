/**
 * @file
 * Shared work pool for every level of parallelism in the simulator.
 *
 * Sweep-level jobs (driver::SweepDriver), phase-level fan-out inside
 * one inference (gcn::executePlan), the per-chip lanes of the
 * scale-out halo step (src/scaleout/) and parallelFor all draw workers
 * from one process-wide pool, so nesting them composes without
 * oversubscribing the machine: an inner fan-out never spawns threads,
 * it only opens a batch that idle pool workers may join.
 *
 * Deadlock freedom under nesting comes from caller participation:
 * runAll() has the calling thread claim and execute tasks of its own
 * batch until none are left, then wait for the stragglers claimed by
 * pool workers. A worker executing an outer task that fans out again
 * drains the inner batch the same way, so no thread ever blocks on
 * work that only itself could perform.
 *
 * Mechanics: one mutex guards a deque of open batches, each with an
 * invite count (how many workers may still join) and a claim cursor.
 * Idle workers wait on one condition variable, callers waiting for
 * stragglers on another. A batch runs for milliseconds to seconds, so
 * the per-batch submit cost (a few microseconds) never shows up end
 * to end. Workers are pinned one per CPU of the creating thread's
 * affinity mask when the mask has a CPU for each worker; otherwise
 * they inherit the mask unpinned (DESIGN.md "Worker pool").
 *
 * Determinism: tasks of one batch must be independent (they write to
 * disjoint slots); under that contract results are bit-identical for
 * every pool width and max_parallel value, which is what the
 * threads=N reproducibility guarantee of the parallel co-simulation
 * rests on (see DESIGN.md "Parallel co-simulation").
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace grow::util {

/**
 * Validate a user-supplied `threads=` value: rejects 0 (a silent
 * "spawn nothing" footgun) and values above 4x the hardware
 * concurrency (almost certainly a typo; oversubscribing a cycle-level
 * simulator that hard only loses throughput). fatal() on violation.
 */
uint32_t checkedThreadCount(int64_t requested);

/**
 * Surface the first captured task exception from a runAll() result,
 * if any (first-wins: errors come back in task order, so the rethrown
 * one is deterministic regardless of completion order).
 */
void rethrowFirstError(const std::vector<std::exception_ptr> &errors);

/**
 * Deterministic data-parallel loop on the shared pool: split [0, n)
 * into contiguous chunks and run `fn(begin, end, chunk)` for each, at
 * most @p threads concurrently. Chunk boundaries depend only on (n,
 * threads-independent kParallelForChunksPerWorker cap) -- NOT on the
 * thread count -- so a stage that writes disjoint per-index slots and
 * folds per-chunk partials in ascending chunk order is bit-identical
 * for every @p threads value; that canonical reduction order is what
 * the workload-build pipeline's determinism guarantee rests on.
 *
 * threads <= 1 (or a trivially small n) degenerates to one inline call
 * on the caller -- same chunking, zero pool traffic -- so serial and
 * parallel runs execute the identical chunk sequence.
 */
void parallelFor(uint64_t n, uint32_t threads,
                 const std::function<void(uint64_t begin, uint64_t end,
                                          uint32_t chunk)> &fn);

/** Number of parallelFor chunks for @p n items (thread-independent). */
uint32_t parallelForChunks(uint64_t n);

class WorkPool
{
  public:
    /** @p workers persistent worker threads (>= 0; 0 means the caller
     *  of runAll() does all the work itself). */
    explicit WorkPool(uint32_t workers);

    /** Stop and join the workers. Every runAll() has returned by
     *  then: its caller blocks until its batch is done. */
    ~WorkPool();

    WorkPool(const WorkPool &) = delete;
    WorkPool &operator=(const WorkPool &) = delete;

    /** The process-wide pool, lazily created with
     *  hardware_concurrency() - 1 workers (the caller thread is the
     *  +1: runAll() always participates). */
    static WorkPool &shared();

    /**
     * Execute every task; the calling thread participates until the
     * batch is exhausted, then blocks for in-flight stragglers. At
     * most @p max_parallel tasks run concurrently (0 = pool width +
     * caller; 1 = serial on the caller, in task order). Returns one
     * exception_ptr slot per task (null on success) in task order --
     * a throwing task never cancels its siblings. Safe to call from
     * any number of threads at once, pool workers included.
     */
    std::vector<std::exception_ptr>
    runAll(std::vector<std::function<void()>> tasks,
           uint32_t max_parallel = 0);

  private:
    struct Batch;

    /** Claim and execute tasks of @p batch until none are left
     *  unclaimed; @p lk holds mutex_ on entry and on return. */
    void help(Batch &batch, std::unique_lock<std::mutex> &lk);

    /** Drop @p batch from the open list (no more joiners). */
    void close(Batch &batch);

    void workerLoop();

    std::mutex mutex_;
    std::condition_variable workCv_; ///< workers wait for open batches
    std::condition_variable doneCv_; ///< callers wait for stragglers
    std::deque<Batch *> open_;       ///< batches workers may join
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace grow::util
