/**
 * @file
 * The adaptive II-search layer (pipeline/adaptive.hpp).
 *
 * The adaptive plan is *exact*: it may only bound the speculation
 * window or run the serial sweep inline, so these tests assert the
 * plan and byte-identical listings (the golden suites in
 * test_modulo_parallel.cpp gate the same invariant end to end).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>

#include "core/export.hpp"
#include "core/sched_context.hpp"
#include "kernels/kernels.hpp"
#include "machine/builders.hpp"
#include "pipeline/adaptive.hpp"
#include "pipeline/ii_search.hpp"
#include "pipeline/thread_pool.hpp"
#include "support/logging.hpp"

namespace cs {
namespace {

// ------------------------------------------------------------- planner

TEST(AdaptivePlanner, FirstAttemptAlwaysWinsGoesSerial)
{
    PortfolioProfile profile;
    profile.jobs = 3;
    profile.maxWinnerK = 0;
    AttemptPlan plan = planAttempts(profile, 4);
    EXPECT_TRUE(plan.serialInline);
    EXPECT_EQ(plan.window, 1);
}

TEST(AdaptivePlanner, WindowShrinksToObservedWorstCasePlusSlack)
{
    PortfolioProfile profile;
    profile.jobs = 5;
    profile.maxWinnerK = 2;
    AttemptPlan plan = planAttempts(profile, 8);
    EXPECT_FALSE(plan.serialInline);
    EXPECT_EQ(plan.window, 4); // maxWinnerK + 1 needed, + 1 headroom
    // Never widens past the request, never below 2.
    EXPECT_EQ(planAttempts(profile, 3).window, 3);
    EXPECT_EQ(planAttempts(profile, 2).window, 2);
}

TEST(AdaptivePlanner, ColdShapeKeepsTheRequestedWindow)
{
    PortfolioProfile one;
    one.jobs = 1; // one observation is not yet a pattern
    one.maxWinnerK = 0;
    AttemptPlan plan = planAttempts(one, 4);
    EXPECT_FALSE(plan.serialInline);
    EXPECT_EQ(plan.window, 4);
}

// ----------------------------------------------------------- portfolio

TEST(AdaptivePortfolio, RecordsAndLooksUpByShape)
{
    PortfolioStats stats;
    stats.record(42, 4);
    stats.record(42, 1);
    stats.record(99, -1); // failed search

    PortfolioProfile p = stats.lookup(42);
    EXPECT_EQ(p.jobs, 2u);
    EXPECT_EQ(p.maxWinnerK, 4u);

    EXPECT_EQ(stats.lookup(99).jobs, 0u); // failures record nothing
    EXPECT_EQ(stats.lookup(7).jobs, 0u);  // unknown shape is empty
    EXPECT_EQ(stats.size(), 1u);
    stats.clear();
    EXPECT_EQ(stats.size(), 0u);
    EXPECT_EQ(stats.lookup(42).jobs, 0u);
}

TEST(AdaptivePortfolio, ShapeKeySeparatesMachinesAndSizes)
{
    Machine central = makeCentral();
    Machine distributed = makeDistributed();
    Kernel kernel = allKernels().front().build();

    BlockSchedulingContext onCentral(kernel, BlockId(0), central);
    BlockSchedulingContext onDistributed(kernel, BlockId(0),
                                         distributed);
    EXPECT_NE(classifyBlock(onCentral).shapeKey(),
              classifyBlock(onDistributed).shapeKey());
    // Same context twice keys identically (the key is a pure function
    // of the features).
    EXPECT_EQ(classifyBlock(onCentral).shapeKey(),
              classifyBlock(onCentral).shapeKey());
}

// ---------------------------------------------- serial-inline (warmed)

/** A kernel whose serial sweep on @p machine wins at attempt 0. */
const KernelSpec *
firstAttemptWinner(const Machine &machine)
{
    for (const KernelSpec &spec : allKernels()) {
        Kernel kernel = spec.build();
        PipelineResult base =
            schedulePipelined(kernel, BlockId(0), machine);
        if (base.success && base.attempts == 1)
            return &spec;
    }
    return nullptr;
}

TEST(AdaptiveSearch, WarmPortfolioSerialInlinesAndKeepsTheListing)
{
    setVerboseLogging(false);
    Machine machine = makeCentral();
    // A shape whose winner is attempt 0: after two recorded searches
    // the classifier must switch it to the inline serial path.
    const KernelSpec *easy = firstAttemptWinner(machine);
    ASSERT_NE(easy, nullptr) << "no first-attempt-wins kernel";
    Kernel kernel = easy->build();

    PortfolioStats::global().clear();
    ThreadPool pool(2);
    IiSearchConfig config;
    config.pool = &pool;

    std::string firstListing;
    for (int run = 0; run < 3; ++run) {
        PipelineResult result = schedulePipelinedParallel(
            kernel, BlockId(0), machine, {}, 64, config);
        ASSERT_TRUE(result.success) << "run " << run;
        std::string listing = exportListing(
            result.inner.kernel, machine, result.inner.schedule);
        if (run == 0)
            firstListing = listing;
        EXPECT_EQ(listing, firstListing) << "run " << run;
        if (run == 2) {
            // jobs >= 2 by now: the planner must have gone serial.
            EXPECT_EQ(result.inner.stats.get("ii_search.serial_inline"),
                      1u);
            EXPECT_EQ(result.attemptsWasted, 0);
        }
    }
    PortfolioStats::global().clear(); // leave no warmth behind
}

TEST(AdaptiveSearch, SerialInlineAnswersARaisedAbort)
{
    setVerboseLogging(false);
    Machine machine = makeCentral();
    const KernelSpec *easy = firstAttemptWinner(machine);
    ASSERT_NE(easy, nullptr) << "no first-attempt-wins kernel";
    Kernel kernel = easy->build();
    BlockSchedulingContext context(kernel, BlockId(0), machine);
    const std::uint64_t shape = classifyBlock(context).shapeKey();

    // Warm the shape into the inline serial path.
    PortfolioStats::global().clear();
    ThreadPool pool(2);
    IiSearchConfig config;
    config.pool = &pool;
    for (int run = 0; run < 2; ++run) {
        ASSERT_TRUE(
            schedulePipelinedParallel(context, {}, 64, config).success)
            << "run " << run;
    }
    ASSERT_EQ(PortfolioStats::global().lookup(shape).jobs, 2u);

    std::atomic<bool> abort{true};
    config.abort = &abort;
    PipelineResult result =
        schedulePipelinedParallel(context, {}, 64, config);
    EXPECT_EQ(result.inner.stats.get("ii_search.serial_inline"), 1u);
    EXPECT_TRUE(result.inner.cancelled);
    EXPECT_FALSE(result.success);
    // A cancelled search teaches the portfolio nothing.
    EXPECT_EQ(PortfolioStats::global().lookup(shape).jobs, 2u);
    PortfolioStats::global().clear(); // leave no warmth behind
}

} // namespace
} // namespace cs
