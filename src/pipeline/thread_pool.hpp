/**
 * @file
 * A fixed-size worker-thread pool with a lock-guarded FIFO job queue
 * and graceful shutdown. This is the execution substrate of the
 * scheduling pipeline: each queued task is one self-contained
 * (kernel, machine, options) compile job, so the pool needs no task
 * priorities, stealing, or resizing — just bounded concurrency,
 * deterministic draining, and a clean stop that finishes the work
 * still queued.
 */

#ifndef CS_PIPELINE_THREAD_POOL_HPP
#define CS_PIPELINE_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cs {

/**
 * Fixed-size thread pool. Tasks run in FIFO submission order (any
 * free worker takes the front of the queue); submit() after shutdown
 * is rejected rather than silently dropped.
 */
class ThreadPool
{
  public:
    /**
     * Spawn @p numThreads workers (clamped to at least one). Pass
     * std::thread::hardware_concurrency() for one worker per core.
     */
    explicit ThreadPool(unsigned numThreads);

    /** Equivalent to shutdown(). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a task. Returns false (and does not enqueue) once
     * shutdown has begun. Tasks must not throw; a task that lets an
     * exception escape terminates the process, as with std::thread.
     */
    bool submit(std::function<void()> task);

    /**
     * Block until the queue is empty and every worker is idle. Other
     * threads may keep submitting; this returns at some instant where
     * the pool had no work.
     */
    void waitIdle();

    /**
     * Stop the pool: run every queued task, then join the workers.
     * Idempotent; concurrent submit() calls that lose the race are
     * rejected.
     */
    void shutdown();

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /** Tasks that have finished running (monotone; for tests/stats). */
    std::size_t executedCount() const;

  private:
    void workerLoop();

    std::vector<std::thread> workers_;

    mutable std::mutex mutex_;
    std::condition_variable workAvailable_; ///< queue non-empty or stopping
    std::condition_variable idle_;          ///< queue empty and none active
    std::deque<std::function<void()>> queue_;
    std::size_t activeWorkers_ = 0;
    std::size_t executed_ = 0;
    bool stopping_ = false; ///< no new submissions; workers drain and exit
};

} // namespace cs

#endif // CS_PIPELINE_THREAD_POOL_HPP
