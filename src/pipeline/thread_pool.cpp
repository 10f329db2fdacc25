#include "pipeline/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace cs {

ThreadPool::ThreadPool(unsigned numThreads)
{
    unsigned count = std::max(1u, numThreads);
    workers_.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

bool
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return false;
        queue_.push_back(std::move(task));
    }
    workAvailable_.notify_one();
    return true;
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock,
               [this] { return queue_.empty() && activeWorkers_ == 0; });
}

void
ThreadPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    for (std::thread &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    idle_.notify_all();
}

std::size_t
ThreadPool::executedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return executed_;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workAvailable_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                // stopping_ with an empty queue: the drain ran dry.
                return;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
            ++activeWorkers_;
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --activeWorkers_;
            ++executed_;
            if (queue_.empty() && activeWorkers_ == 0)
                idle_.notify_all();
        }
    }
}

} // namespace cs
