#include "util/work_pool.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <utility>

#include "util/logging.hpp"
#include "util/topology.hpp"

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

/** Tasks per completion-tree leaf counter (one cacheline each). */
constexpr size_t kLeafFan = 8;

/** Worker has no assigned CPU (topology too narrow to pin). */
constexpr uint32_t kNoCpu = UINT32_MAX;

/** Retired batches kept for reuse; beyond this they just die. */
constexpr size_t kMaxSpareBatches = 4;

} // namespace

/**
 * One runAll() invocation. Owned by shared_ptr: a claim ticket that a
 * worker only picks up after the batch already drained must find the
 * control block alive (and see no unclaimed task), not dangling
 * caller-stack memory. Retired batches are pooled (WorkPool::Impl::
 * spares) and reset() for the next submission, so steady-state
 * fan-out allocates nothing.
 */
struct WorkPool::Batch
{
    std::vector<std::function<void()>> tasks;
    std::vector<std::exception_ptr> errors;
    std::atomic<size_t> next{0};

    /**
     * Completion tree: task i retires into leaf i / kLeafFan; the last
     * task of a leaf retires the leaf into doneLeaves, which is the
     * only word the caller parks on. Workers thus contend on
     * ceil(size / kLeafFan) distinct cachelines instead of one hot
     * counter, and the caller is woken exactly once.
     */
    struct alignas(64) Leaf
    {
        std::atomic<size_t> done{0};
    };
    std::unique_ptr<Leaf[]> leaves;
    size_t numLeaves = 0;
    size_t leafCapacity = 0;
    std::atomic<size_t> doneLeaves{0};

    /** Arm for a new submission (caller must hold the only reference). */
    void reset(std::vector<std::function<void()>> new_tasks)
    {
        tasks = std::move(new_tasks);
        errors.assign(tasks.size(), std::exception_ptr());
        next.store(0, std::memory_order_relaxed);
        numLeaves = (tasks.size() + kLeafFan - 1) / kLeafFan;
        if (numLeaves > leafCapacity) {
            leaves = std::make_unique<Leaf[]>(numLeaves);
            leafCapacity = numLeaves;
        } else {
            for (size_t g = 0; g < numLeaves; ++g)
                leaves[g].done.store(0, std::memory_order_relaxed);
        }
        doneLeaves.store(0, std::memory_order_relaxed);
    }
};

struct WorkPool::Impl
{
    std::mutex m;

    /** One announced batch; takers count the invites down. */
    struct Ticket
    {
        std::shared_ptr<Batch> batch;
        uint32_t invites = 0;
    };
    std::deque<Ticket> tickets;

    /**
     * Per-worker parking slot: a worker that finds no ticket loads its
     * epoch under the lock, registers on the idle stack and futex-
     * waits on the epoch outside the lock. A waker pops the id, bumps
     * the epoch and notifies that one slot -- the bump-after-load
     * ordering through the mutex makes the wakeup lossless.
     */
    struct alignas(64) Slot
    {
        std::atomic<uint32_t> epoch{0};
        bool parkedListed = false; ///< under m: id is on `idle`
    };
    std::unique_ptr<Slot[]> slots;
    std::vector<uint32_t> idle; ///< LIFO of parked worker ids (under m)

    /** Retired batches available for reuse (under m). */
    std::vector<std::shared_ptr<Batch>> spares;

    /** Fire-and-forget tasks (trySubmit) awaiting a worker (under m). */
    std::deque<std::function<void()>> detached;
    /** Detached tasks submitted but not yet finished (drain futex). */
    std::atomic<uint64_t> detachedPending{0};

    bool stop = false;
};

WorkPool::WorkPool(uint32_t workers) : impl_(std::make_unique<Impl>())
{
    impl_->slots = std::make_unique<Impl::Slot[]>(workers);
    impl_->idle.reserve(workers);
    // Topology-aware placement: pin workers node-major/compact when
    // the host has a CPU for each worker; on narrower machines (CI
    // containers, oversubscribed pools) leave placement to the
    // scheduler rather than stack pinned workers on one core.
    const Topology &topo = Topology::host();
    std::vector<uint32_t> place;
    if (workers > 0 && workers <= topo.cpus().size())
        place = topo.placement(workers);
    workers_.reserve(workers);
    for (uint32_t i = 0; i < workers; ++i) {
        const uint32_t cpu = place.empty() ? kNoCpu : place[i];
        workers_.emplace_back([this, i, cpu] {
            if (cpu != kNoCpu)
                pinCurrentThread(cpu);
            workerLoop(i);
        });
    }
}

WorkPool::~WorkPool()
{
    // Detached work first: a task handed to trySubmit() before the
    // destructor began must run, not vanish with the workers.
    drainDetached();
    {
        std::lock_guard<std::mutex> lk(impl_->m);
        impl_->stop = true;
    }
    for (size_t i = 0; i < workers_.size(); ++i) {
        impl_->slots[i].epoch.fetch_add(1, std::memory_order_release);
        impl_->slots[i].epoch.notify_one();
    }
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
WorkPool::help(Batch &batch)
{
    const size_t size = batch.tasks.size();
    while (true) {
        const size_t i = batch.next.fetch_add(1);
        if (i >= size)
            return;
        try {
            batch.tasks[i]();
        } catch (...) {
            batch.errors[i] = std::current_exception();
        }
        const size_t leaf = i / kLeafFan;
        const size_t group = std::min(kLeafFan, size - leaf * kLeafFan);
        if (batch.leaves[leaf].done.fetch_add(1) + 1 == group) {
            if (batch.doneLeaves.fetch_add(1) + 1 == batch.numLeaves)
                batch.doneLeaves.notify_all();
        }
    }
}

void
WorkPool::workerLoop(uint32_t id)
{
    Impl &impl = *impl_;
    Impl::Slot &slot = impl.slots[id];
    while (true) {
        std::shared_ptr<Batch> batch;
        std::function<void()> fire;
        uint32_t seen = 0;
        {
            std::unique_lock<std::mutex> lk(impl.m);
            // Stop is honoured only once no work is pending: a pool
            // being torn down finishes what was already submitted
            // (tickets have a participating caller; detached tasks
            // have nobody else).
            if (!impl.tickets.empty()) {
                Impl::Ticket &t = impl.tickets.front();
                batch = t.batch; // refcount bump only, no allocation
                if (--t.invites == 0)
                    impl.tickets.pop_front();
            } else if (!impl.detached.empty()) {
                fire = std::move(impl.detached.front());
                impl.detached.pop_front();
            } else if (impl.stop) {
                return;
            } else {
                // The epoch load is ordered before any waker's bump by
                // the mutex, so wait(seen) below cannot miss a wakeup:
                // a bump between unlock and wait makes it return
                // immediately.
                seen = slot.epoch.load(std::memory_order_relaxed);
                if (!slot.parkedListed) {
                    slot.parkedListed = true;
                    impl.idle.push_back(id);
                }
            }
        }
        if (batch) {
            help(*batch);
            continue;
        }
        if (fire) {
            try {
                fire();
            } catch (const std::exception &e) {
                logError(std::string("detached pool task threw: ") +
                         e.what());
            } catch (...) {
                logError("detached pool task threw a non-std exception");
            }
            // Destroy the closure before announcing completion: drain
            // waiters may rely on resources the closure owns being
            // released.
            fire = nullptr;
            impl.detachedPending.fetch_sub(1, std::memory_order_release);
            impl.detachedPending.notify_all();
            continue;
        }
        slot.epoch.wait(seen);
    }
}

std::vector<std::exception_ptr>
WorkPool::runAll(std::vector<std::function<void()>> tasks,
                 uint32_t max_parallel)
{
    if (tasks.empty())
        return {};
    const size_t size = tasks.size();

    // Reuse a retired batch when the spare list holds the only
    // reference (no straggling helper can still touch its counters).
    std::shared_ptr<Batch> batch;
    {
        std::lock_guard<std::mutex> lk(impl_->m);
        auto &spares = impl_->spares;
        for (auto it = spares.begin(); it != spares.end(); ++it) {
            if (it->use_count() == 1) {
                batch = std::move(*it);
                spares.erase(it);
                break;
            }
        }
    }
    if (!batch)
        batch = std::make_shared<Batch>();
    batch->reset(std::move(tasks));

    // Invite helpers: the caller is one executor, so max_parallel - 1
    // invites bound the in-flight task count at max_parallel; never
    // more invites than workers or tasks could use.
    const size_t budget = max_parallel == 0 ? workers_.size()
                                            : max_parallel - 1;
    const uint32_t helpers = static_cast<uint32_t>(
        std::min<size_t>({budget, workers_.size(), size - 1}));
    if (helpers > 0) {
        // One ticket for the whole batch, then targeted wakeups of
        // exactly the parked workers wanted. Busy workers re-check the
        // ticket queue before parking, so invites beyond the parked
        // population are picked up as workers free up.
        std::vector<uint32_t> wake;
        wake.reserve(helpers);
        {
            std::lock_guard<std::mutex> lk(impl_->m);
            impl_->tickets.push_back(Impl::Ticket{batch, helpers});
            for (uint32_t h = 0; h < helpers && !impl_->idle.empty();
                 ++h) {
                const uint32_t id = impl_->idle.back();
                impl_->idle.pop_back();
                impl_->slots[id].parkedListed = false;
                wake.push_back(id);
            }
        }
        for (uint32_t id : wake) {
            impl_->slots[id].epoch.fetch_add(1, std::memory_order_release);
            impl_->slots[id].epoch.notify_one();
        }
    }

    help(*batch);
    // Park on the completion-tree root until every leaf retired.
    size_t seen = batch->doneLeaves.load(std::memory_order_acquire);
    while (seen != batch->numLeaves) {
        batch->doneLeaves.wait(seen);
        seen = batch->doneLeaves.load(std::memory_order_acquire);
    }

    std::vector<std::exception_ptr> errors = std::move(batch->errors);
    {
        std::lock_guard<std::mutex> lk(impl_->m);
        // Pool the batch only when we hold the sole reference: a late
        // taker of a drained ticket may still read tasks.size(), so
        // the closures can only be dropped once nobody else can look.
        if (batch.use_count() == 1 &&
            impl_->spares.size() < kMaxSpareBatches) {
            batch->tasks.clear();
            impl_->spares.push_back(std::move(batch));
        }
    }
    return errors;
}

bool
WorkPool::trySubmit(std::function<void()> task)
{
    if (workers_.empty())
        return false;
    uint32_t wakeId = 0;
    bool haveWake = false;
    {
        std::lock_guard<std::mutex> lk(impl_->m);
        if (impl_->stop)
            return false;
        impl_->detached.push_back(std::move(task));
        impl_->detachedPending.fetch_add(1, std::memory_order_relaxed);
        if (!impl_->idle.empty()) {
            wakeId = impl_->idle.back();
            impl_->idle.pop_back();
            impl_->slots[wakeId].parkedListed = false;
            haveWake = true;
        }
        // No parked worker: a busy one re-checks the detached queue
        // before parking, so the task is picked up as workers free up.
    }
    if (haveWake) {
        impl_->slots[wakeId].epoch.fetch_add(1, std::memory_order_release);
        impl_->slots[wakeId].epoch.notify_one();
    }
    return true;
}

uint32_t
WorkPool::idleWorkers() const
{
    std::lock_guard<std::mutex> lk(impl_->m);
    return static_cast<uint32_t>(impl_->idle.size());
}

uint64_t
WorkPool::detachedPending() const
{
    return impl_->detachedPending.load(std::memory_order_acquire);
}

void
WorkPool::drainDetached()
{
    uint64_t pending;
    while ((pending = impl_->detachedPending.load(
                std::memory_order_acquire)) != 0)
        impl_->detachedPending.wait(pending);
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
