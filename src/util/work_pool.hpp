/**
 * @file
 * Shared work pool for every level of parallelism in the simulator.
 *
 * Sweep-level jobs (driver::SweepDriver), phase-level fan-out inside
 * one inference (gcn::executePlan) and the per-chip lanes of the
 * scale-out halo step (src/scaleout/) all draw workers from one
 * process-wide pool, so nesting them composes without oversubscribing
 * the machine: an inner fan-out never spawns threads, it only enqueues
 * claim tickets that idle pool workers may pick up.
 *
 * Deadlock freedom under nesting comes from caller participation:
 * runAll() has the calling thread claim and execute tasks of its own
 * batch until none are left, then wait for the stragglers claimed by
 * pool workers. A worker executing an outer task that fans out again
 * drains the inner batch the same way, so no thread ever blocks on
 * work that only itself could perform.
 *
 * Hot-path mechanics (the halo co-simulation submits a batch per
 * epoch, so submission cost is on the simulator's critical path):
 *  - Batch objects are pooled and reused across runAll() calls; a
 *    steady-state round allocates nothing.
 *  - A batch is announced as ONE ticket carrying an invite count;
 *    takers count it down. The old design queued one shared_ptr copy
 *    per helper.
 *  - Idle workers park on per-worker futex slots and runAll() wakes
 *    exactly the helpers it wants (targeted wakeup); the old central
 *    notify_all woke the whole pool to race for tickets.
 *  - Completion is a two-level tree of counters: tasks retire into
 *    per-leaf cachelines and only the last task of a leaf touches the
 *    root the caller parks on -- no per-batch mutex/condvar.
 *  - Worker threads are placed node-major/compact on the host CPUs
 *    (util/topology.hpp) when the machine is wide enough to give each
 *    worker its own CPU; co-simulating lanes share read-only operands,
 *    so same-socket placement keeps them in one LLC.
 *
 * Determinism: tasks of one batch must be independent (they write to
 * disjoint slots); under that contract results are bit-identical for
 * every pool width and max_parallel value, which is what the
 * threads=N reproducibility guarantee of the parallel co-simulation
 * rests on (see DESIGN.md "Parallel co-simulation").
 */
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
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

    /**
     * Shutdown ordering: finish every detached task (drainDetached()),
     * then stop and join the workers. Workers honour the stop flag
     * only once no ticket or detached work is pending, so a pool with
     * parked workers drains cleanly -- nothing submitted before the
     * destructor began is ever dropped.
     */
    ~WorkPool();

    WorkPool(const WorkPool &) = delete;
    WorkPool &operator=(const WorkPool &) = delete;

    /** The process-wide pool, lazily created with
     *  hardware_concurrency() - 1 workers (the caller thread is the
     *  +1: runAll() always participates). */
    static WorkPool &shared();

    uint32_t numWorkers() const
    {
        return static_cast<uint32_t>(workers_.size());
    }

    /**
     * Execute every task; the calling thread participates until the
     * batch is exhausted, then blocks for in-flight stragglers. At
     * most @p max_parallel tasks run concurrently (0 = pool width +
     * caller; 1 = serial on the caller, in task order). Returns one
     * exception_ptr slot per task (null on success) in task order --
     * a throwing task never cancels its siblings.
     */
    std::vector<std::exception_ptr>
    runAll(std::vector<std::function<void()>> tasks,
           uint32_t max_parallel = 0);

    /**
     * Fire-and-forget submission: hand @p task to an idle pool worker
     * without blocking the caller (the serving daemon's dispatch path;
     * runAll() callers keep participating as before). Returns false --
     * and does NOT take the task -- when the pool has no workers or is
     * shutting down, in which case the caller must run the task inline
     * itself. A detached task that throws is logged and swallowed:
     * there is no caller left to rethrow into. Detached tasks may
     * themselves call runAll() (nested fan-out composes as usual).
     */
    bool trySubmit(std::function<void()> task);

    /**
     * Workers currently parked with nothing to do -- an O(1) capacity
     * hint for admission control (a racy snapshot, not a reservation:
     * the value may be stale by the time the caller acts on it).
     */
    uint32_t idleWorkers() const;

    /** Detached tasks submitted but not yet finished. */
    uint64_t detachedPending() const;

    /**
     * Block until every detached task submitted so far has finished
     * (graceful-shutdown path: stop submitting, drainDetached(), flush
     * reports). runAll() batches need no draining -- their caller
     * already blocks for them.
     */
    void drainDetached();

  private:
    struct Batch;

    /** Claim-and-execute loop shared by workers and callers. */
    static void help(Batch &batch);

    void workerLoop(uint32_t id);

    struct Impl;
    std::unique_ptr<Impl> impl_;
    std::vector<std::thread> workers_;
};

} // namespace grow::util
