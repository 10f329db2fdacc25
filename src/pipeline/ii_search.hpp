/**
 * @file
 * Speculative parallel II search for the modulo scheduler: explore
 * the (II, retry-variant) feasibility frontier concurrently instead
 * of one attempt at a time, while returning exactly the serial
 * sweep's answer.
 *
 * Determinism rule: attempts are numbered k = (ii - MII) * V + v,
 * where V is the retry-variant count (iiRetryVariants), matching the
 * order the serial sweep tries them. The winner is the attempt with
 * the smallest k that succeeds — the lexicographically smallest
 * (ii, variant) — which is precisely the attempt the serial sweep
 * would have stopped at. Every attempt borrows one shared, immutable
 * BlockSchedulingContext, so the winner's BlockScheduler sees inputs
 * identical to its serial twin and produces a byte-identical listing.
 *
 * Cancellation protocol: when attempt k succeeds, every in-flight
 * attempt with index greater than the best-so-far winner gets its
 * cooperative abort flag raised (BlockScheduler::setAbortFlag). The
 * best index only decreases, and flags are only ever raised for
 * indices strictly above it, so the eventual winner is never aborted.
 * Aborted attempts unwind at the search-budget checkpoints they
 * already pay for; their partial results are discarded.
 */

#ifndef CS_PIPELINE_II_SEARCH_HPP
#define CS_PIPELINE_II_SEARCH_HPP

#include "core/modulo_scheduler.hpp"
#include "pipeline/thread_pool.hpp"

namespace cs {

/** Resources and limits for one speculative II search. */
struct IiSearchConfig
{
    /**
     * Workers that run the attempts. Not owned; must not be a pool
     * whose worker is the caller (the search blocks until its attempts
     * finish — submitting to your own pool deadlocks a 1-thread pool).
     * nullptr selects the serial sweep.
     */
    ThreadPool *pool = nullptr;
    /**
     * Speculation window: attempts in flight or queued at once.
     * Clamped to at least 1; 0 means the pool's worker count. Larger
     * windows speculate deeper past the (unknown) winning II, trading
     * wasted work for latency on machines with many idle cores.
     */
    int maxInFlight = 0;
    /**
     * External cancellation (a serving deadline, a dropped client):
     * when raised, in-flight attempts unwind at their checkpoints, no
     * further attempts launch, and — unless a winner already emerged —
     * the search returns a result with inner.cancelled = true. Armed
     * but never raised, it does not perturb the search. Not owned;
     * must outlive the call. nullptr disarms.
     */
    const std::atomic<bool> *abort = nullptr;
};

/**
 * Find the smallest feasible initiation interval, like
 * schedulePipelined, but running up to maxInFlight (II, variant)
 * attempts concurrently on config.pool. Returns the identical
 * (success, ii, inner listing) the serial sweep returns for the same
 * inputs; only attempts/attemptsWasted and the counters differ (see
 * PipelineResult). With a null pool this *is* the serial sweep.
 *
 * The winner's ScheduleResult.stats additionally carries the search
 * counters: "ii_search.attempts_launched", "ii_search.attempts_wasted",
 * "ii_search.attempts_cancelled" (wasted attempts that were aborted
 * mid-run rather than run to completion), and
 * "ii_search.cancel_latency_us" (total microseconds between raising
 * an abort flag and that attempt returning — the cost of cooperative,
 * checkpoint-polled cancellation).
 *
 * Thread safety: reentrant; concurrent searches may share one pool
 * (attempts from both interleave on its workers).
 */
PipelineResult
schedulePipelinedParallel(const Kernel &kernel, BlockId block,
                          const Machine &machine,
                          const SchedulerOptions &options,
                          int maxIiSlack,
                          const IiSearchConfig &config);

/**
 * Same, borrowing a prebuilt analysis context (the pipeline's
 * ContextCache): byte-identical results for the context's
 * (kernel, block, machine), with the analysis cost paid once per
 * distinct pair instead of once per job. @p context must outlive the
 * call; concurrent searches may share one context (it is
 * immutable).
 */
PipelineResult
schedulePipelinedParallel(const BlockSchedulingContext &context,
                          const SchedulerOptions &options,
                          int maxIiSlack,
                          const IiSearchConfig &config);

} // namespace cs

#endif // CS_PIPELINE_II_SEARCH_HPP
