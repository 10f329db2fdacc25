/**
 * @file
 * Content-addressed schedule cache: memoizes JobResults keyed by the
 * FNV-1a content hash of (kernel DDG, machine description, scheduler
 * options, job mode) computed by scheduleJobKey(). Bounded LRU with
 * hit/miss/eviction counters; all operations are thread-safe, so the
 * pipeline's concurrent workers share one cache.
 *
 * Production rationale: real workloads re-submit the same compile jobs
 * constantly (the same kernel on the same machine across batches,
 * sweeps that revisit configurations, repeated service requests), and
 * a schedule is orders of magnitude more expensive to compute than to
 * look up.
 *
 * Entries are shared, immutable JobResults: a hit hands out another
 * reference to the stored result (a reference-count bump under the LRU
 * mutex), so concurrent hits do not queue behind a copy of the kernel,
 * routes, listing and counters. A held result stays valid after its key
 * is evicted or overwritten, because insert() replaces the pointer and
 * never writes through it. The stored cacheHit/wallMs fields are those
 * of the run that populated the entry; what one lookup took is the
 * caller's to report, on its own copy or response.
 *
 * For pipelined jobs each entry also records the achieved II and the
 * II-search attempt accounting (iiAttempts / iiAttemptsWasted) of the
 * run that populated it; the serial and speculative searches produce
 * the same schedule for the same key, so either may serve a hit for
 * the other.
 */

#ifndef CS_PIPELINE_SCHEDULE_CACHE_HPP
#define CS_PIPELINE_SCHEDULE_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "pipeline/job.hpp"
#include "support/stats.hpp"

namespace cs {

/** Bounded, thread-safe, LRU result cache keyed by content hash. */
class ScheduleCache
{
  public:
    /** @p capacity entries are kept; 0 disables caching entirely. */
    explicit ScheduleCache(std::size_t capacity);

    /**
     * Look up a content key: the shared stored result, or null on a
     * miss. A hit refreshes the entry's LRU position. Counts a hit, or
     * a miss unless @p countMiss is false (a re-probe).
     */
    std::shared_ptr<const JobResult> lookup(std::uint64_t key,
                                            bool countMiss = true);

    /**
     * Store a result, evicting the least-recently-used entry when
     * full. Inserting an existing key replaces the stored pointer;
     * results already handed out are untouched.
     */
    void insert(std::uint64_t key, std::shared_ptr<const JobResult> result);

    /** Counter snapshot. */
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

        /** Add these as the cache.memory.* counters of @p out. */
        void addTo(CounterSet &out) const;
    };

    Stats stats() const;

  private:
    mutable std::mutex mutex_;
    std::size_t capacity_;
    /** Most-recently-used entries at the front. */
    std::list<std::pair<std::uint64_t, std::shared_ptr<const JobResult>>>
        lru_;
    std::unordered_map<std::uint64_t, decltype(lru_)::iterator> index_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace cs

#endif // CS_PIPELINE_SCHEDULE_CACHE_HPP
