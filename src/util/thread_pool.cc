#include "util/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/logging.h"

namespace recsim {
namespace util {

namespace {

/** Set while the current thread is executing a pool chunk. */
thread_local bool tl_in_pool_task = false;

/** Placeholder chunk body for a default-initialized Job. */
constexpr auto kNoopChunk = [](std::size_t, std::size_t) {};

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

/**
 * One parallelFor() invocation: the chunk geometry plus completion
 * state. Lives on the calling thread's stack; the caller cannot return
 * (and destroy it) before completed == nchunks, and the final notify
 * happens with the pool mutex held, so no task can touch a dead Job.
 */
struct ThreadPool::Job
{
    std::size_t begin = 0;
    std::size_t grain = 1;
    std::size_t range = 0;
    std::size_t nchunks = 0;
    ChunkFn fn{kNoopChunk};

    /** Chunks finished; guarded by the pool mutex. */
    std::size_t completed = 0;
    /** First exception thrown by a chunk; guarded by the pool mutex. */
    std::exception_ptr error;
    /** Signalled (with the pool mutex held) when the job completes. */
    std::condition_variable done_cv;

    /** [chunk_begin, chunk_end) of chunk @p c. */
    std::pair<std::size_t, std::size_t> bounds(std::size_t c) const
    {
        const std::size_t lo = begin + c * grain;
        const std::size_t hi = std::min(lo + grain, begin + range);
        return {lo, hi};
    }
};

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads == 0 ? 1 : threads)
{
    startWorkers();
}

ThreadPool::~ThreadPool()
{
    stopWorkers();
}

void
ThreadPool::startWorkers()
{
    workers_.reserve(threads_ - 1);
    for (std::size_t t = 0; t + 1 < threads_; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

void
ThreadPool::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        RECSIM_ASSERT(queue_.empty(),
                      "ThreadPool torn down with work in flight");
        shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_)
        w.join();
    workers_.clear();
    shutdown_ = false;
}

void
ThreadPool::resize(std::size_t threads)
{
    stopWorkers();
    threads_ = threads == 0 ? 1 : threads;
    startWorkers();
}

bool
ThreadPool::runOneTask(std::unique_lock<std::mutex>& lock)
{
    if (queue_.empty())
        return false;
    auto [job, chunk] = queue_.front();
    queue_.pop_front();
    lock.unlock();

    const auto [lo, hi] = job->bounds(chunk);
    std::exception_ptr error;
    const bool was_in_task = tl_in_pool_task;
    tl_in_pool_task = true;
    try {
        job->fn(lo, hi);
    } catch (...) {
        error = std::current_exception();
    }
    tl_in_pool_task = was_in_task;
    tasks_.fetch_add(1, std::memory_order_relaxed);

    lock.lock();
    if (error && !job->error)
        job->error = error;
    if (++job->completed == job->nchunks)
        job->done_cv.notify_all();
    return true;
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        if (shutdown_)
            return;
        if (queue_.empty()) {
            const uint64_t wait_start = nowNs();
            work_cv_.wait(lock, [this] {
                return shutdown_ || !queue_.empty();
            });
            idle_ns_.fetch_add(nowNs() - wait_start,
                               std::memory_order_relaxed);
            continue;
        }
        runOneTask(lock);
    }
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        std::size_t grain, ChunkFn fn)
{
    if (end <= begin)
        return;
    const std::size_t range = end - begin;
    const std::size_t g = std::max<std::size_t>(grain, 1);
    const std::size_t nchunks = (range + g - 1) / g;

    // Serial fallback: a 1-thread pool, a single chunk, or a nested
    // submit from inside a pool task all run inline on the calling
    // thread — same chunk boundaries, no queue traffic.
    if (threads_ == 1 || nchunks == 1 || tl_in_pool_task) {
        jobs_.fetch_add(1, std::memory_order_relaxed);
        for (std::size_t c = 0; c < nchunks; ++c) {
            const std::size_t lo = begin + c * g;
            const std::size_t hi = std::min(lo + g, end);
            fn(lo, hi);
            tasks_.fetch_add(1, std::memory_order_relaxed);
        }
        return;
    }

    Job job;
    job.begin = begin;
    job.grain = g;
    job.range = range;
    job.nchunks = nchunks;
    job.fn = fn;

    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t c = 0; c < nchunks; ++c)
            queue_.emplace_back(&job, c);
    }
    jobs_.fetch_add(1, std::memory_order_relaxed);
    if (nchunks >= threads_)
        work_cv_.notify_all();
    else
        for (std::size_t c = 1; c < nchunks; ++c)
            work_cv_.notify_one();

    // The caller helps: drain the queue (any job) until our own job is
    // done, then sleep only when there is nothing left to steal.
    std::unique_lock<std::mutex> lock(mutex_);
    while (job.completed < job.nchunks) {
        if (runOneTask(lock))
            continue;
        job.done_cv.wait(lock, [&job, this] {
            return job.completed == job.nchunks || !queue_.empty();
        });
    }
    const std::exception_ptr error = job.error;
    lock.unlock();
    if (error)
        std::rethrow_exception(error);
}

ThreadPool::Stats
ThreadPool::stats() const
{
    Stats s;
    s.jobs = jobs_.load(std::memory_order_relaxed);
    s.tasks = tasks_.load(std::memory_order_relaxed);
    s.idle_ns = idle_ns_.load(std::memory_order_relaxed);
    return s;
}

std::size_t
configuredThreads()
{
    const unsigned hw_raw = std::thread::hardware_concurrency();
    const std::size_t hw = hw_raw == 0 ? 1 : hw_raw;
    const char* env = std::getenv("RECSIM_THREADS");
    if (env == nullptr || env[0] == '\0')
        return hw;
    const std::size_t bound = std::max(kMaxThreadsFloor, hw);
    const char* end = env + std::strlen(env);
    std::size_t n = 0;
    const auto [ptr, ec] = std::from_chars(env, end, n);
    if (ec != std::errc() || ptr != end || n < 1 || n > bound)
        fatal("RECSIM_THREADS={} is not a whole number in [1, {}]", env,
              bound);
    return n;
}

ThreadPool&
globalThreadPool()
{
    static ThreadPool pool(configuredThreads());
    return pool;
}

} // namespace util
} // namespace recsim
