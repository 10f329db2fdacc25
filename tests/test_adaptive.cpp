/**
 * @file
 * The adaptive II-search layer (pipeline/adaptive.hpp).
 *
 * Adaptive ordering is *exact*: it may only permute attempt launch
 * order and bound the speculation window, so these tests assert
 * byte-identical listings and fixed-order equivalence (the golden
 * suites in test_modulo_parallel.cpp gate the same invariant end to
 * end).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

std::array<std::uint64_t, kNumRejectReasons>
noRejects()
{
    return {};
}

TEST(AdaptivePlanner, EmptyProfileLaunchesTheFixedOrder)
{
    // A cold planner with no feedback is the legacy search: ascending
    // attempt index, exactly.
    AttemptPlanner planner(9, 3, PortfolioProfile{});
    for (int k = 0; k < 9; ++k) {
        EXPECT_TRUE(planner.hasLaunchable(9));
        EXPECT_EQ(planner.nextLaunch(9), k);
    }
    EXPECT_FALSE(planner.hasLaunchable(9));
    EXPECT_EQ(planner.nextLaunch(9), -1);
}

TEST(AdaptivePlanner, BoundCapsSpeculation)
{
    AttemptPlanner planner(9, 3, PortfolioProfile{});
    EXPECT_EQ(planner.nextLaunch(2), 0);
    EXPECT_EQ(planner.nextLaunch(2), 1);
    EXPECT_EQ(planner.nextLaunch(2), -1); // k=2 is past the bound
    EXPECT_FALSE(planner.hasLaunchable(2));
    EXPECT_TRUE(planner.hasLaunchable(3));
    EXPECT_EQ(planner.nextLaunch(9), 2);
}

TEST(AdaptivePlanner, PortConflictsPromoteTheFlippedVariant)
{
    AttemptPlanner planner(9, 3, PortfolioProfile{});
    EXPECT_EQ(planner.nextLaunch(9), 0);
    std::array<std::uint64_t, kNumRejectReasons> rejects{};
    rejects[static_cast<std::size_t>(
        RejectReason::ReadPortConflict)] = 50;
    planner.onAttemptDone(0, false, rejects, 100);
    // Variant 2 (flipped order) now outscores 1 and 0: within every
    // remaining slack it launches first; slacks stay ascending.
    EXPECT_EQ(planner.nextLaunch(9), 2);
    EXPECT_EQ(planner.nextLaunch(9), 1);
    EXPECT_EQ(planner.nextLaunch(9), 5); // slack 1: flipped first
    EXPECT_EQ(planner.nextLaunch(9), 3);
    EXPECT_EQ(planner.nextLaunch(9), 4);
}

TEST(AdaptivePlanner, RouteStarvationPromotesTheWideVariant)
{
    AttemptPlanner planner(6, 3, PortfolioProfile{});
    std::array<std::uint64_t, kNumRejectReasons> rejects{};
    rejects[static_cast<std::size_t>(
        RejectReason::RouteInfeasible)] = 10;
    rejects[static_cast<std::size_t>(RejectReason::BusConflict)] = 5;
    planner.onAttemptDone(0, false, rejects, 0);
    EXPECT_EQ(planner.nextLaunch(6), 1); // wide window first
    EXPECT_EQ(planner.nextLaunch(6), 0);
    EXPECT_EQ(planner.nextLaunch(6), 2);
}

TEST(AdaptivePlanner, FirstAttemptAlwaysWinsGoesSerial)
{
    PortfolioProfile profile;
    profile.jobs = 3;
    profile.maxWinnerK = 0;
    AttemptPlanner planner(9, 3, profile);
    AttemptPlanner::Plan plan = planner.plan(4);
    EXPECT_TRUE(plan.serialInline);
    EXPECT_EQ(plan.window, 1);
}

TEST(AdaptivePlanner, WindowShrinksToObservedWorstCasePlusSlack)
{
    PortfolioProfile profile;
    profile.jobs = 5;
    profile.maxWinnerK = 2;
    AttemptPlanner planner(30, 3, profile);
    AttemptPlanner::Plan plan = planner.plan(8);
    EXPECT_FALSE(plan.serialInline);
    EXPECT_EQ(plan.window, 4); // maxWinnerK + 1 needed, + 1 headroom
    // Never widens past the request, never below 2.
    EXPECT_EQ(planner.plan(3).window, 3);
    EXPECT_EQ(planner.plan(2).window, 2);
}

TEST(AdaptivePlanner, ColdShapeKeepsTheRequestedWindow)
{
    PortfolioProfile one;
    one.jobs = 1; // one observation is not yet a pattern
    one.maxWinnerK = 0;
    AttemptPlanner planner(9, 3, one);
    AttemptPlanner::Plan plan = planner.plan(4);
    EXPECT_FALSE(plan.serialInline);
    EXPECT_EQ(plan.window, 4);
}

// ----------------------------------------------------------- portfolio

TEST(AdaptivePortfolio, RecordsAndLooksUpByShape)
{
    PortfolioStats stats;
    std::array<std::uint64_t, kNumRejectReasons> rejects{};
    rejects[0] = 7;
    stats.record(42, 4, 3, rejects, 1000);
    stats.record(42, 1, 3, noRejects(), 500);
    stats.record(99, -1, 3, noRejects(), 50); // failed search

    PortfolioProfile p = stats.lookup(42);
    EXPECT_EQ(p.jobs, 2u);
    EXPECT_EQ(p.maxWinnerK, 4u);
    EXPECT_EQ(p.winnerKSum, 5u);
    EXPECT_EQ(p.variantWins[1], 2u); // 4 % 3 == 1 % 3 == 1
    EXPECT_EQ(p.rejects[0], 7u);
    EXPECT_EQ(p.dfsNodes, 1500u);

    PortfolioProfile failed = stats.lookup(99);
    EXPECT_EQ(failed.jobs, 0u); // failures contribute effort only
    EXPECT_EQ(failed.dfsNodes, 50u);

    EXPECT_EQ(stats.lookup(7).jobs, 0u); // unknown shape is empty
    EXPECT_EQ(stats.size(), 2u);
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

TEST(AdaptiveSearch, WarmPortfolioSerialInlinesAndKeepsTheListing)
{
    setVerboseLogging(false);
    Machine machine = makeCentral();
    // A shape whose winner is attempt 0: after two recorded searches
    // the classifier must switch it to the inline serial path.
    const KernelSpec *easy = nullptr;
    for (const KernelSpec &spec : allKernels()) {
        Kernel kernel = spec.build();
        PipelineResult base =
            schedulePipelined(kernel, BlockId(0), machine);
        if (base.success && base.attempts == 1) {
            easy = &spec;
            break;
        }
    }
    ASSERT_NE(easy, nullptr) << "no first-attempt-wins kernel";
    Kernel kernel = easy->build();

    PortfolioStats::global().clear();
    ThreadPool pool(2);
    IiSearchConfig config;
    config.pool = &pool;
    config.maxInFlight = 3;

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

} // namespace
} // namespace cs
