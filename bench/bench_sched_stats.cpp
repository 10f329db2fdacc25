/**
 * @file
 * Reproduces the Section 5 scheduler observations: the motivating
 * example (conventional scheduling fails on shared interconnect,
 * communication scheduling succeeds), plus per-kernel scheduler
 * effort on the distributed machine — copies inserted, stub
 * retargets, permutation effort, and the paper's note that no
 * backtracking pathologies arise.
 */

#include <iostream>

#include "bench_common.hpp"
#include "core/conventional_scheduler.hpp"
#include "core/list_scheduler.hpp"
#include "ir/builder.hpp"
#include "support/logging.hpp"

namespace {

cs::Kernel
motivatingKernel()
{
    using namespace cs;
    KernelBuilder b("figure4");
    b.block("body");
    Val bb = b.iadd(1, 2, "b");
    Val aa = b.load(100, 0, "a");
    Val cc = b.iadd(3, 4, "c");
    Val t = b.iadd(aa, bb, "t");
    Val u = b.iadd(aa, cc, "u");
    b.store(200, t);
    b.store(201, u);
    return b.take();
}

} // namespace

int
main()
{
    using namespace cs;
    setVerboseLogging(false);

    printBanner(std::cout,
                "Motivating example (Figures 4-7): conventional vs "
                "communication scheduling on the Figure 5 machine");
    Machine fig5 = makeFigure5Machine();
    Kernel example = motivatingKernel();

    ConventionalResult conventional =
        scheduleConventional(example, BlockId(0), fig5);
    std::cout << "conventional scheduler: " << conventional.unroutable
              << " unroutable communication(s)";
    if (!conventional.failures.empty())
        std::cout << "  e.g. " << conventional.failures[0];
    std::cout << "\n";

    ScheduleResult comm = scheduleBlock(example, BlockId(0), fig5);
    CS_ASSERT(comm.success, "communication scheduling failed");
    std::cout << "communication scheduling: complete schedule, "
              << (comm.kernel.numOperations() -
                  comm.kernel.numOriginalOperations())
              << " copy operation(s), length "
              << comm.schedule.length(comm.kernel, fig5)
              << " cycles\n";
    std::cout << comm.schedule.toString(comm.kernel, fig5) << "\n";

    printBanner(std::cout, "Scheduler effort per kernel on the "
                           "distributed machine (plain schedules)");
    Machine dist = makeDistributed();
    TextTable table({"Kernel", "copies", "reused", "retargets",
                     "perm backtracks", "attempt budget", "perm budget"});
    for (const KernelSpec &spec : allKernels()) {
        Kernel kernel = spec.build();
        ScheduleResult result =
            scheduleBlock(kernel, BlockId(0), dist);
        CS_ASSERT(result.success, "failed on ", spec.name);
        auto count = [&result](CounterId id) {
            return std::to_string(result.stats.get(id));
        };
        table.addRow({
            spec.name,
            std::to_string(result.kernel.numOperations() -
                           result.kernel.numOriginalOperations()),
            count(counter("copies_reused")),
            count(counter("stub_retargets")),
            count(counter("perm_backtracks")),
            count(counter("attempt_budget_exhausted")),
            count(counter("perm_budget_exhausted")),
        });
    }
    table.print(std::cout);
    std::cout << "\nPaper Section 5: communication scheduling needed "
                 "no backtracking on the\ndistributed architecture. The "
                 "analogue here is the attempt budget column\n(operations "
                 "that gave up placing); the stub-permutation search itself "
                 "backtracks\nand can exhaust its own budget (perm budget "
                 "column).\n";
    return 0;
}
