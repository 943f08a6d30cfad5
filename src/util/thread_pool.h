/**
 * @file
 * Persistent worker pool with a deterministic parallel-for primitive —
 * the parallel substrate for the tensor/embedding kernels.
 *
 * Design goals, in order:
 *
 *  1. *Determinism.* parallelFor() splits [begin, end) into chunks whose
 *     boundaries depend only on (begin, end, grain) — never on the
 *     thread count or on scheduling. Kernels that write disjoint output
 *     per index (every GEMM row, every embedding example) therefore
 *     produce bit-identical results at any RECSIM_THREADS, including 1.
 *  2. *No deadlocks.* The calling thread participates: while its job is
 *     unfinished it drains the shared queue, so a parallelFor issued
 *     from inside a pool task (nested submit) or from many application
 *     threads at once (Hogwild workers) always completes.
 *  3. *Cheap serial fallback.* With 1 thread (RECSIM_THREADS=1 or a
 *     single-core host) no workers are spawned and parallelFor() runs
 *     the chunks inline on the caller — no queue, no locks, no wakeups.
 *
 * Exceptions thrown by chunk functions are captured (first one wins)
 * and rethrown on the calling thread after the job completes.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

/**
 * Marks a function whose data races are intentional (Hogwild-style
 * lock-free updates) so ThreadSanitizer does not instrument it. Racy
 * code under this attribute must use raw loops, not std::copy/memcpy,
 * because sanitizer runtimes intercept libc memory functions even in
 * uninstrumented callers.
 */
#if defined(__has_feature)
#  if __has_feature(thread_sanitizer)
#    define RECSIM_NO_SANITIZE_THREAD __attribute__((no_sanitize("thread")))
#  endif
#endif
#if !defined(RECSIM_NO_SANITIZE_THREAD) && defined(__SANITIZE_THREAD__)
#  define RECSIM_NO_SANITIZE_THREAD __attribute__((no_sanitize("thread")))
#endif
#ifndef RECSIM_NO_SANITIZE_THREAD
#  define RECSIM_NO_SANITIZE_THREAD
#endif

namespace recsim {
namespace util {

/**
 * Non-owning reference to a callable of signature
 * void(std::size_t, std::size_t). Two raw pointers, no allocation —
 * unlike std::function, binding a capturing lambda is free, which
 * keeps parallelFor() itself off the per-step heap. Safe here because
 * parallelFor() blocks until every chunk has run, so the referenced
 * callable always outlives its uses.
 */
class ChunkFn
{
  public:
    template <typename F>
    ChunkFn(const F& f)  // NOLINT: implicit by design
        : obj_(&f), call_([](const void* o, std::size_t lo,
                             std::size_t hi) {
              (*static_cast<const F*>(o))(lo, hi);
          })
    {
    }

    void operator()(std::size_t lo, std::size_t hi) const
    {
        call_(obj_, lo, hi);
    }

  private:
    const void* obj_;
    void (*call_)(const void*, std::size_t, std::size_t);
};

/**
 * Fixed-size pool of worker threads executing chunked index ranges.
 * All member functions are thread-safe except resize(), which must be
 * called while no parallelFor() is in flight (tests and benches only).
 */
class ThreadPool
{
  public:
    /** Counters accumulated since construction (monotonic). */
    struct Stats
    {
        uint64_t jobs = 0;      ///< parallelFor() calls that dispatched.
        uint64_t tasks = 0;     ///< Chunk executions across all jobs.
        uint64_t idle_ns = 0;   ///< Total worker time spent blocked.
    };

    /**
     * @param threads Total concurrency including the calling thread;
     *                spawns threads-1 workers. Clamped to >= 1.
     */
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Total concurrency (workers + caller). */
    std::size_t numThreads() const { return threads_; }

    /**
     * Apply @p fn to [begin, end) in chunks of at most @p grain indices:
     * fn(chunk_begin, chunk_end) with chunk boundaries at multiples of
     * grain from begin. Chunks may run concurrently and in any order,
     * so fn must only write state owned by its index range. Blocks
     * until every chunk has run; rethrows the first chunk exception.
     */
    void parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                     ChunkFn fn);

    /** Snapshot of the dispatch counters. */
    Stats stats() const;

    /**
     * Re-size the pool (join workers, respawn). Only safe while idle;
     * for tests and benchmarks that compare thread counts.
     */
    void resize(std::size_t threads);

  private:
    struct Job;

    void workerLoop();
    /** Pop-and-run one task; returns false if the queue was empty. */
    bool runOneTask(std::unique_lock<std::mutex>& lock);
    void startWorkers();
    void stopWorkers();

    std::size_t threads_ = 1;
    std::vector<std::thread> workers_;

    mutable std::mutex mutex_;
    std::condition_variable work_cv_;
    /** Pending (job, chunk) pairs; jobs own their completion state. */
    std::deque<std::pair<Job*, std::size_t>> queue_;
    bool shutdown_ = false;

    std::atomic<uint64_t> jobs_{0};
    std::atomic<uint64_t> tasks_{0};
    std::atomic<uint64_t> idle_ns_{0};
};

/**
 * The process-wide pool the kernels dispatch to. Sized on first use
 * from the RECSIM_THREADS environment variable (default:
 * hardware_concurrency). Tests and benches may resize() it while idle.
 */
ThreadPool& globalThreadPool();

/**
 * Floor of the largest accepted RECSIM_THREADS: the bound is
 * max(kMaxThreadsFloor, hardware_concurrency), so a typo cannot make
 * the first globalThreadPool() call spawn thousands of workers.
 */
constexpr std::size_t kMaxThreadsFloor = 256;

/**
 * The thread count globalThreadPool() will be (or was) created with:
 * RECSIM_THREADS, a whole number in [1, max(kMaxThreadsFloor,
 * hardware_concurrency)]; unset or empty means hardware_concurrency.
 * Any other value (a sign, a suffix, spaces, 0, out of range) is a
 * fatal() error naming the accepted range. Reads the environment on
 * every call.
 */
std::size_t configuredThreads();

} // namespace util
} // namespace recsim
