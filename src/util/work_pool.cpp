#include "util/work_pool.hpp"

#include <algorithm>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

#include "util/logging.hpp"

namespace grow::util {

uint32_t
checkedThreadCount(int64_t requested)
{
    const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
    const int64_t limit = static_cast<int64_t>(hw) * 4;
    if (requested < 1)
        fatal("threads must be >= 1, got " + std::to_string(requested) +
              " (omit threads= for one worker per core; threads=1 is "
              "the serial baseline)");
    if (requested > limit)
        fatal("threads=" + std::to_string(requested) + " exceeds 4x the "
              "hardware concurrency (" + std::to_string(hw) +
              " cores, limit " + std::to_string(limit) +
              "): refusing to oversubscribe that hard");
    return static_cast<uint32_t>(requested);
}

void
rethrowFirstError(const std::vector<std::exception_ptr> &errors)
{
    for (const auto &e : errors)
        if (e)
            std::rethrow_exception(e);
}

namespace {

/**
 * CPUs of the calling thread's affinity mask, ascending -- the CPUs
 * the user granted (taskset, cgroup cpuset), not every online CPU.
 * Empty where affinity is unavailable.
 */
std::vector<int>
affinityCpus()
{
    std::vector<int> cpus;
#ifdef __linux__
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &mask))
                cpus.push_back(c);
#endif
    return cpus;
}

/** Best-effort pin of the calling thread to @p cpu; placement is an
 *  optimisation, never a contract, so failure is ignored. */
void
pinCurrentThread(int cpu)
{
#ifdef __linux__
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(cpu, &mask);
    sched_setaffinity(0, sizeof(mask), &mask);
#else
    (void)cpu;
#endif
}

} // namespace

/**
 * One runAll() invocation, living on its caller's stack. The cursor
 * and the counts are guarded by WorkPool::mutex_; task i and
 * errors[i] belong, unlocked, to whoever claimed i. The caller
 * returns only once `done` reaches the task count, and a helper
 * touches the batch only while it holds the mutex or runs a task it
 * claimed, so nobody can see the batch after it is gone.
 */
struct WorkPool::Batch
{
    std::vector<std::function<void()>> tasks;
    std::vector<std::exception_ptr> errors;
    size_t next = 0;      ///< claim cursor
    size_t done = 0;      ///< finished tasks
    uint32_t invites = 0; ///< workers that may still join
};

WorkPool::WorkPool(uint32_t workers)
{
    // Pin worker i to the i-th CPU the creating thread may run on when
    // the mask has a CPU for each worker: pinned workers keep the
    // shared read-only operands cache-warm, which measurably pays
    // (DESIGN.md "Worker pool"). On a narrower mask, leave the workers
    // unpinned inside the inherited mask rather than stack them on one
    // CPU.
    std::vector<int> cpus = affinityCpus();
    if (workers > cpus.size())
        cpus.clear();
    workers_.reserve(workers);
    for (uint32_t i = 0; i < workers; ++i) {
        const int cpu = cpus.empty() ? -1 : cpus[i];
        workers_.emplace_back([this, cpu] {
            if (cpu >= 0)
                pinCurrentThread(cpu);
            workerLoop();
        });
    }
}

WorkPool::~WorkPool()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (auto &t : workers_)
        t.join();
}

WorkPool &
WorkPool::shared()
{
    // The caller of runAll() always participates, so the shared pool
    // keeps hardware_concurrency - 1 workers: full-width fan-out uses
    // exactly one thread per core with no oversubscription.
    static WorkPool pool(std::max(1u, std::thread::hardware_concurrency()) -
                         1);
    return pool;
}

void
WorkPool::close(Batch &batch)
{
    const auto it = std::find(open_.begin(), open_.end(), &batch);
    if (it != open_.end())
        open_.erase(it);
}

void
WorkPool::help(Batch &batch, std::unique_lock<std::mutex> &lk)
{
    const size_t size = batch.tasks.size();
    while (batch.next < size) {
        const size_t i = batch.next++;
        if (batch.next == size)
            close(batch); // nothing left to join for
        lk.unlock();
        try {
            batch.tasks[i]();
        } catch (...) {
            batch.errors[i] = std::current_exception();
        }
        lk.lock();
        if (++batch.done == size)
            doneCv_.notify_all();
    }
}

void
WorkPool::workerLoop()
{
    std::unique_lock<std::mutex> lk(mutex_);
    while (true) {
        workCv_.wait(lk, [this] { return stop_ || !open_.empty(); });
        if (open_.empty())
            return; // stopping, and nothing left to join
        Batch &batch = *open_.front();
        if (--batch.invites == 0)
            close(batch);
        help(batch, lk);
    }
}

std::vector<std::exception_ptr>
WorkPool::runAll(std::vector<std::function<void()>> tasks,
                 uint32_t max_parallel)
{
    if (tasks.empty())
        return {};
    Batch batch;
    batch.tasks = std::move(tasks);
    const size_t size = batch.tasks.size();
    batch.errors.resize(size);

    // Invite helpers: the caller is one executor, so max_parallel - 1
    // invites bound the in-flight task count at max_parallel; never
    // more invites than workers or tasks could use.
    const size_t budget = max_parallel == 0 ? workers_.size()
                                            : max_parallel - 1;
    batch.invites = static_cast<uint32_t>(
        std::min<size_t>({budget, workers_.size(), size - 1}));

    std::unique_lock<std::mutex> lk(mutex_);
    if (batch.invites > 0) {
        open_.push_back(&batch);
        for (uint32_t h = 0; h < batch.invites; ++h)
            workCv_.notify_one();
    }
    help(batch, lk);
    doneCv_.wait(lk, [&] { return batch.done == size; });
    return std::move(batch.errors);
}

uint32_t
parallelForChunks(uint64_t n)
{
    // Fixed chunk plan per n: enough chunks that a wide pool load-
    // balances, few enough that per-chunk overhead stays invisible.
    // Deliberately independent of the thread count -- chunk boundaries
    // are part of the deterministic contract.
    constexpr uint64_t kMaxChunks = 64;
    constexpr uint64_t kMinChunkItems = 2048;
    if (n == 0)
        return 0;
    const uint64_t byGranularity = (n + kMinChunkItems - 1) / kMinChunkItems;
    return static_cast<uint32_t>(std::min(kMaxChunks, byGranularity));
}

void
parallelFor(uint64_t n,
            uint32_t threads,
            const std::function<void(uint64_t, uint64_t, uint32_t)> &fn)
{
    const uint32_t chunks = parallelForChunks(n);
    if (chunks == 0)
        return;
    auto chunkBounds = [n, chunks](uint32_t c) {
        // Even split: the first (n % chunks) chunks get one extra item.
        const uint64_t base = n / chunks;
        const uint64_t extra = n % chunks;
        const uint64_t begin =
            c * base + std::min<uint64_t>(c, extra);
        const uint64_t end = begin + base + (c < extra ? 1 : 0);
        return std::pair<uint64_t, uint64_t>(begin, end);
    };
    if (threads <= 1 || chunks == 1) {
        // Identical chunk sequence, executed inline in ascending order.
        for (uint32_t c = 0; c < chunks; ++c) {
            auto [begin, end] = chunkBounds(c);
            fn(begin, end, c);
        }
        return;
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(chunks);
    for (uint32_t c = 0; c < chunks; ++c) {
        auto [begin, end] = chunkBounds(c);
        tasks.push_back([&fn, begin, end, c] { fn(begin, end, c); });
    }
    rethrowFirstError(WorkPool::shared().runAll(std::move(tasks), threads));
}

} // namespace grow::util
