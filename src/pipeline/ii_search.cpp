#include "pipeline/ii_search.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "core/sched_context.hpp"
#include "pipeline/adaptive.hpp"
#include "support/logging.hpp"
#include "support/trace.hpp"

namespace cs {

PipelineResult
schedulePipelinedParallel(const Kernel &kernel, BlockId block,
                          const Machine &machine,
                          const SchedulerOptions &options,
                          int maxIiSlack, const IiSearchConfig &config)
{
    if (config.pool == nullptr) {
        return schedulePipelined(kernel, block, machine, options,
                                 maxIiSlack, config.abort);
    }
    BlockSchedulingContext context(kernel, block, machine);
    return schedulePipelinedParallel(context, options, maxIiSlack,
                                     config);
}

PipelineResult
schedulePipelinedParallel(const BlockSchedulingContext &context,
                          const SchedulerOptions &options,
                          int maxIiSlack, const IiSearchConfig &config)
{
    if (config.pool == nullptr) {
        return schedulePipelined(context, options, maxIiSlack,
                                 config.abort);
    }

    // The adaptive layer (pipeline/adaptive.hpp): classify the block
    // and let the shape's history choose serial vs speculative and
    // bound the window. The commit rule below ("smallest successful
    // k") still returns the serial winner byte-for-byte.
    const std::uint64_t shapeKey = classifyBlock(context).shapeKey();
    const AttemptPlan plan =
        planAttempts(PortfolioStats::global().lookup(shapeKey),
                     static_cast<int>(config.pool->size()));

    if (plan.serialInline) {
        // History says the first attempt wins this shape: run the
        // serial sweep on the calling thread and pay zero pool
        // traffic. If history misleads, this is still the full serial
        // sweep — correct, just not parallel.
        PipelineResult result = schedulePipelined(
            context, options, maxIiSlack, config.abort);
        if (!result.inner.cancelled) {
            PortfolioStats::global().record(
                shapeKey, result.success ? result.attempts - 1 : -1);
        }
        CounterSet &stats = result.inner.stats;
        stats.bump(counter("ii_search.attempts_launched"),
                   static_cast<std::uint64_t>(result.attempts));
        stats.bump(counter("ii_search.serial_inline"));
        return result;
    }

    using Clock = std::chrono::steady_clock;

    PipelineResult result;
    result.resMii = context.resMii();
    result.recMii = context.recMii();
    const int mii = context.mii();

    const std::vector<SchedulerOptions> variants =
        iiRetryVariants(options);
    const int num_variants = static_cast<int>(variants.size());
    const int total = (maxIiSlack + 1) * num_variants;

    auto externally_aborted = [&config] {
        return config.abort != nullptr &&
               config.abort->load(std::memory_order_relaxed);
    };

    struct Attempt
    {
        std::atomic<bool> abort{false};
        ScheduleResult result;
        bool done = false;
        /** Flag raised (under the controller mutex); timestamp of it. */
        bool abortRaised = false;
        Clock::time_point abortedAt{};
    };
    // deque: stable addresses for the abort flags, no moves required.
    std::deque<Attempt> attempts(static_cast<std::size_t>(total));

    std::mutex mutex;
    std::condition_variable done_cv;
    int best = total; ///< smallest successful attempt index so far
    int launched = 0; ///< attempts [0, launched) went to the pool
    int in_flight = 0;
    std::uint64_t num_cancelled = 0;
    std::uint64_t cancel_latency_us = 0;

    auto run_attempt = [&](int k) {
        // The span shows the speculative wavefront on the timeline:
        // concurrent ii_attempt spans on different worker tids, keyed
        // (ii, variant), the cancelled ones ending early.
        CS_TRACE_SPAN2("ii_attempt", "ii", mii + k / num_variants,
                       "variant", k % num_variants);
        BlockScheduler scheduler(context, variants[k % num_variants],
                                 mii + k / num_variants);
        scheduler.setAbortFlag(&attempts[static_cast<std::size_t>(k)].abort);
        scheduler.setExternalAbortFlag(config.abort);
        ScheduleResult attempt_result = scheduler.run();
        Clock::time_point finished = Clock::now();

        std::lock_guard<std::mutex> lock(mutex);
        Attempt &a = attempts[static_cast<std::size_t>(k)];
        a.result = std::move(attempt_result);
        a.done = true;
        --in_flight;
        if (a.abortRaised && a.result.cancelled) {
            ++num_cancelled;
            std::uint64_t latency_us = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    finished - a.abortedAt)
                    .count());
            cancel_latency_us += latency_us;
            CS_TRACE_INSTANT2("ii_cancel", "attempt", k, "latency_us",
                              latency_us);
        }
        if (a.result.success && k < best) {
            best = k;
            // Abort the speculation past the new best. best only
            // decreases and flags are only raised for indices above
            // it, so the eventual winner is never aborted.
            Clock::time_point now = Clock::now();
            for (int j = best + 1; j < launched; ++j) {
                Attempt &loser = attempts[static_cast<std::size_t>(j)];
                if (!loser.done && !loser.abortRaised) {
                    loser.abortRaised = true;
                    loser.abortedAt = now;
                    loser.abort.store(true, std::memory_order_relaxed);
                }
            }
        }
        done_cv.notify_all();
    };

    {
        // Attempts launch in ascending index order, at most
        // plan.window at a time, and never past the best-so-far
        // winner.
        std::unique_lock<std::mutex> lock(mutex);
        while (true) {
            while (in_flight < plan.window && launched < best &&
                   !externally_aborted()) {
                const int k = launched++;
                ++in_flight;
                bool accepted =
                    config.pool->submit([&run_attempt, k] {
                        run_attempt(k);
                    });
                CS_ASSERT(accepted,
                          "II-search pool rejected an attempt");
            }
            if (in_flight == 0 &&
                (launched >= best || externally_aborted())) {
                break;
            }
            done_cv.wait(lock);
        }
    }
    // All attempts are done: the pool holds no reference to local
    // state any more, and no further synchronization is needed.

    result.attempts = launched;
    if (best < total) {
        Attempt &winner = attempts[static_cast<std::size_t>(best)];
        result.success = true;
        result.ii = mii + best / num_variants;
        result.attemptsWasted = launched - (best + 1);
        result.inner = std::move(winner.result);
    } else if (externally_aborted()) {
        result.inner.failure = "cancelled";
        result.inner.cancelled = true;
    } else {
        result.inner.failure = "no feasible II within MII + " +
                               std::to_string(maxIiSlack);
    }

    if (!result.inner.cancelled) {
        PortfolioStats::global().record(shapeKey,
                                        best < total ? best : -1);
    }

    CounterSet &stats = result.inner.stats;
    stats.bump(counter("ii_search.attempts_launched"),
               static_cast<std::uint64_t>(launched));
    if (result.attemptsWasted > 0) {
        stats.bump(counter("ii_search.attempts_wasted"),
                   static_cast<std::uint64_t>(result.attemptsWasted));
    }
    if (num_cancelled > 0) {
        stats.bump(counter("ii_search.attempts_cancelled"), num_cancelled);
        stats.bump(counter("ii_search.cancel_latency_us"),
                   cancel_latency_us);
    }
    stats.bump(counter("ii_search.window"),
               static_cast<std::uint64_t>(plan.window));
    return result;
}

} // namespace cs
