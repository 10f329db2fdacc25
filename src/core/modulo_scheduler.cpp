#include "core/modulo_scheduler.hpp"

#include "support/trace.hpp"

namespace cs {

std::vector<SchedulerOptions>
iiRetryVariants(const SchedulerOptions &options)
{
    // Diversify within one II before conceding it: a wider placement
    // window, then the opposite scheduling order, each cheaply explore
    // a different part of the search space (a lightweight stand-in for
    // iterative modulo scheduling's operation ejection).
    std::vector<SchedulerOptions> variants{options};
    if (options.retryVariants) {
        SchedulerOptions wide = options;
        wide.moduloWindowFactor = options.moduloWindowFactor + 2;
        SchedulerOptions flipped = options;
        flipped.operationOrder = !options.operationOrder;
        variants.push_back(wide);
        variants.push_back(flipped);
    }
    return variants;
}

PipelineResult
schedulePipelined(const Kernel &kernel, BlockId block,
                  const Machine &machine,
                  const SchedulerOptions &options, int maxIiSlack,
                  const std::atomic<bool> *abort)
{
    BlockSchedulingContext context(kernel, block, machine);
    return schedulePipelined(context, options, maxIiSlack, abort);
}

PipelineResult
schedulePipelined(const BlockSchedulingContext &context,
                  const SchedulerOptions &options, int maxIiSlack,
                  const std::atomic<bool> *abort)
{
    PipelineResult result;
    result.resMii = context.resMii();
    result.recMii = context.recMii();
    int mii = context.mii();

    const std::vector<SchedulerOptions> variants =
        iiRetryVariants(options);
    for (int ii = mii; ii <= mii + maxIiSlack; ++ii) {
        for (std::size_t v = 0; v < variants.size(); ++v) {
            const SchedulerOptions &variant = variants[v];
            CS_TRACE_SPAN2("ii_attempt", "ii", ii, "variant", v);
            ++result.attempts;
            BlockScheduler scheduler(context, variant, ii);
            scheduler.setExternalAbortFlag(abort);
            ScheduleResult attempt = scheduler.run();
            if (attempt.success) {
                result.success = true;
                result.ii = ii;
                result.inner = std::move(attempt);
                return result;
            }
            if (attempt.cancelled) {
                result.inner = std::move(attempt);
                return result;
            }
        }
    }
    result.inner.failure = "no feasible II within MII + " +
                           std::to_string(maxIiSlack);
    return result;
}

} // namespace cs
