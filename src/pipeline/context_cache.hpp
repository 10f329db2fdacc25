/**
 * @file
 * Content-addressed cache of per-(kernel, block, machine) scheduling
 * analyses. A BlockSchedulingContext (DDG + MII bounds, priority
 * orders, the Section-4.5 serviceability tables) depends only on the
 * kernel block's dataflow and the machine's connectivity — not on
 * SchedulerOptions, the II, or the job mode — so every job in a batch
 * that pairs the same kernel with the same machine shape can borrow
 * one analysis instead of rebuilding it. That is exactly the shape of
 * a design-space sweep: a handful of kernels against hundreds of
 * machine variants, each (kernel, variant) point revisited across
 * option variants and repeated submissions.
 *
 * Key: FNV-1a over hashKernel(kernel, block) x hashMachine(machine) —
 * the analysis-relevant prefix of scheduleJobKey(). Debug names are
 * excluded (as for the ScheduleCache): jobs whose dataflow and
 * connectivity match share an entry even when their labels differ.
 *
 * Exactness: a context is immutable after construction and built from
 * (kernel, block, machine) only, so a cached context is
 * byte-equivalent input to a freshly built one — listings stay
 * byte-identical (tests pin all 80 goldens with the cache ON).
 *
 * One build per key: the first acquire of a key inserts its entry and
 * builds the analysis outside the cache lock; concurrent acquires of
 * the same key wait for that build instead of repeating it.
 *
 * Lifetime: entries own private copies of the kernel and machine (the
 * context holds references), handed out behind shared_ptr — an entry
 * evicted while a job still schedules against it stays alive until
 * that job drops its reference.
 */

#ifndef CS_PIPELINE_CONTEXT_CACHE_HPP
#define CS_PIPELINE_CONTEXT_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/sched_context.hpp"
#include "ir/kernel.hpp"
#include "machine/machine.hpp"
#include "support/stats.hpp"

namespace cs {

/**
 * One cached analysis: a BlockSchedulingContext over privately owned
 * copies of its kernel and machine, so the entry outlives the batch
 * inputs it was built from.
 */
class SharedBlockContext
{
  public:
    SharedBlockContext(const Kernel &kernel, BlockId block,
                       const Machine &machine)
        : kernel_(kernel), machine_(machine),
          context_(kernel_, block, machine_)
    {
    }

    SharedBlockContext(const SharedBlockContext &) = delete;
    SharedBlockContext &operator=(const SharedBlockContext &) = delete;

    const BlockSchedulingContext &context() const { return context_; }

  private:
    // Declaration order is load-bearing: context_ references the two
    // members above it.
    Kernel kernel_;
    Machine machine_;
    BlockSchedulingContext context_;
};

/** Bounded, thread-safe, LRU analysis cache keyed by content hash. */
class ContextCache
{
  public:
    /** @p capacity entries are kept; 0 disables caching entirely. */
    explicit ContextCache(std::size_t capacity);

    /**
     * The cache key: FNV-1a over hashKernel x hashMachine, the
     * analysis-relevant prefix of scheduleJobKey().
     */
    static std::uint64_t key(const Kernel &kernel, BlockId block,
                             const Machine &machine);

    /**
     * Return the shared analysis for (kernel, block, machine). The
     * first acquire of a key counts a miss and builds it; an acquire
     * that finds the key counts a hit and, if that build is still
     * running, waits for it. With capacity 0, builds a private entry
     * every call (counted as a miss).
     */
    std::shared_ptr<const SharedBlockContext>
    acquire(const Kernel &kernel, BlockId block, const Machine &machine);

    /** Counter snapshot (same shape as ScheduleCache::Stats). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
        std::size_t capacity = 0;

        /** Hits over lookups; 0 when no lookups happened. */
        double
        hitRate() const
        {
            std::uint64_t lookups = hits + misses;
            return lookups == 0
                       ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(lookups);
        }

        /** Add these as the context.* counters of @p out. */
        void addTo(CounterSet &out) const;
    };

    Stats stats() const;

  private:
    /** One key's analysis, built once by its first acquire. */
    struct Slot
    {
        std::once_flag built;
        std::shared_ptr<const SharedBlockContext> context;
    };
    using Entry = std::pair<std::uint64_t, std::shared_ptr<Slot>>;

    mutable std::mutex mutex_;
    std::size_t capacity_;
    /** Most-recently-used entries at the front. */
    std::list<Entry> lru_;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace cs

#endif // CS_PIPELINE_CONTEXT_CACHE_HPP
