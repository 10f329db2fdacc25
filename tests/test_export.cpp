/**
 * @file
 * Tests for the schedule exporters and for undo-journal integrity:
 * scheduling the same kernel with and without injected failures must
 * leave identical results (every failed attempt rolls back exactly).
 */

#include <gtest/gtest.h>

#include "core/export.hpp"
#include "core/list_scheduler.hpp"
#include "ir/builder.hpp"
#include "kernels/kernels.hpp"
#include "machine/builders.hpp"

namespace cs {
namespace {

Kernel
demoKernel()
{
    KernelBuilder b("demo");
    b.block("body");
    Val x = b.load(100, 0, "x");
    Val y = b.iadd(x, 1, "y");
    Val z = b.iadd(x, y, "z");
    b.store(200, z);
    return b.take();
}

TEST(Export, ListingMentionsEveryOperation)
{
    Machine machine = makeFigure5Machine();
    ScheduleResult result =
        scheduleBlock(demoKernel(), BlockId(0), machine);
    ASSERT_TRUE(result.success);
    std::string listing =
        exportListing(result.kernel, machine, result.schedule);
    EXPECT_NE(listing.find("cycle 0"), std::string::npos);
    for (const Operation &op : result.kernel.operations()) {
        if (op.hasResult()) {
            EXPECT_NE(listing.find(
                          result.kernel.value(op.result).name),
                      std::string::npos)
                << listing;
        }
    }
    // Operand register files are annotated.
    EXPECT_NE(listing.find("<RF"), std::string::npos);
}

TEST(Export, ListingShowsPipelineII)
{
    Machine machine = makeCentral();
    Kernel kernel = demoKernel();
    BlockScheduler scheduler(kernel, BlockId(0), machine,
                             SchedulerOptions{}, 3);
    ScheduleResult result = scheduler.run();
    ASSERT_TRUE(result.success);
    std::string listing =
        exportListing(result.kernel, machine, result.schedule);
    EXPECT_NE(listing.find("II=3"), std::string::npos);
}

TEST(Export, DotIsWellFormedAndComplete)
{
    Machine machine = makeFigure5Machine();
    ScheduleResult result =
        scheduleBlock(demoKernel(), BlockId(0), machine);
    ASSERT_TRUE(result.success);
    std::string dot =
        exportRoutesDot(result.kernel, machine, result.schedule);
    EXPECT_EQ(dot.find("digraph routes {"), 0u);
    EXPECT_NE(dot.find("}\n"), std::string::npos);
    // One edge pair per routed communication with a writer.
    std::size_t arrows = 0;
    for (std::size_t pos = dot.find("->"); pos != std::string::npos;
         pos = dot.find("->", pos + 2)) {
        ++arrows;
    }
    std::size_t writer_routes = 0;
    for (const RouteRecord &route : result.schedule.routes()) {
        writer_routes += route.writer.valid() ? 2 : 1;
    }
    EXPECT_EQ(arrows, writer_routes);
}

TEST(UndoIntegrity, FailedAttemptsLeaveNoResidue)
{
    // Schedule a kernel/machine pair where placement rejections and
    // rollbacks definitely occur, twice; byte-identical listings
    // prove the undo journal restores state exactly between attempts.
    Machine machine = makeDistributed();
    Kernel kernel = kernelByName("Block Warp-U2").build();
    ScheduleResult a = scheduleBlock(kernel, BlockId(0), machine);
    ScheduleResult b = scheduleBlock(kernel, BlockId(0), machine);
    ASSERT_TRUE(a.success);
    ASSERT_TRUE(b.success);
    EXPECT_GT(a.stats.get("read_perm_failures") +
                  a.stats.get("write_perm_failures") +
                  a.stats.get("route_close_failures"),
              0u)
        << "test premise: failures must occur";
    EXPECT_EQ(exportListing(a.kernel, machine, a.schedule),
              exportListing(b.kernel, machine, b.schedule));
    EXPECT_EQ(exportRoutesDot(a.kernel, machine, a.schedule),
              exportRoutesDot(b.kernel, machine, b.schedule));
}

TEST(UndoIntegrity, TightBudgetDoesNotCorruptState)
{
    // Even with an absurdly small permutation budget, failures must
    // be clean: either a valid schedule or a clean failure.
    Machine machine = makeDistributed();
    SchedulerOptions options;
    options.permutationBudget = 8;
    options.copyAttemptBudget = 4;
    Kernel kernel = demoKernel();
    ScheduleResult result =
        scheduleBlock(kernel, BlockId(0), machine, options);
    if (result.success) {
        EXPECT_TRUE(validateSchedule(result.kernel, machine,
                                     result.schedule)
                        .empty());
    } else {
        EXPECT_FALSE(result.failure.empty());
    }
}

} // namespace
} // namespace cs
