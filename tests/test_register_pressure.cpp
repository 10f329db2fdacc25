/**
 * @file
 * Tests for the Section-7 register pressure analysis: interval
 * construction, modulo variable expansion, overflow detection, and
 * spill planning.
 */

#include <gtest/gtest.h>

#include "core/list_scheduler.hpp"
#include "core/modulo_scheduler.hpp"
#include "core/register_pressure.hpp"
#include "ir/builder.hpp"
#include "machine/builders.hpp"
#include "sim/harness.hpp"
#include "support/logging.hpp"

namespace cs {
namespace {

TEST(Pressure, SimpleChainHasLiveIntervals)
{
    Machine machine = makeCentral();
    KernelBuilder b("chain");
    b.block("body");
    Val x = b.load(100, 0, "x");
    Val y = b.iadd(x, 1, "y");
    b.store(200, y);
    Kernel kernel = b.take();
    ScheduleResult sched = scheduleBlock(kernel, BlockId(0), machine);
    ASSERT_TRUE(sched.success);

    PressureReport report = analyzeRegisterPressure(
        sched.kernel, machine, sched.schedule);
    // x and y both stage through the central file.
    EXPECT_EQ(report.intervals.size(), 2u);
    EXPECT_TRUE(report.fits());
    EXPECT_GT(report.worstUtilization(), 0.0);
    EXPECT_LT(report.worstUtilization(), 0.2);
}

TEST(Pressure, IntervalTimingMatchesSchedule)
{
    Machine machine = makeCentral();
    KernelBuilder b("t");
    b.block("body");
    Val x = b.load(100, 0, "x"); // latency 2
    Val y = b.iadd(x, 1, "y");
    b.store(200, y);
    Kernel kernel = b.take();
    ScheduleResult sched = scheduleBlock(kernel, BlockId(0), machine);
    ASSERT_TRUE(sched.success);

    PressureReport report = analyzeRegisterPressure(
        sched.kernel, machine, sched.schedule);
    for (const LiveInterval &interval : report.intervals) {
        const Value &value = sched.kernel.value(interval.value);
        const Placement &def =
            sched.schedule.placement(value.def);
        int lat = machine.latency(
            sched.kernel.operation(value.def).opcode);
        EXPECT_EQ(interval.from, def.cycle + lat);
        EXPECT_GE(interval.to, interval.from);
    }
}

TEST(Pressure, ModuloExpansionCountsInstances)
{
    LiveInterval interval;
    interval.from = 0;
    interval.to = 9; // length 10
    EXPECT_EQ(interval.instances(0), 1);
    EXPECT_EQ(interval.instances(10), 1);
    EXPECT_EQ(interval.instances(5), 2);
    EXPECT_EQ(interval.instances(3), 4);
}

TEST(Pressure, FirDelayLineDominatesDemand)
{
    // FIR's 55-deep delay line must occupy many registers per
    // iteration when pipelined at II=19.
    Machine machine = makeCentral();
    const KernelSpec &spec = kernelByName("FIR-FP");
    Kernel kernel = spec.build();
    PipelineResult pipe =
        schedulePipelined(kernel, BlockId(0), machine);
    ASSERT_TRUE(pipe.success);
    PressureReport report = analyzeRegisterPressure(
        pipe.inner.kernel, machine, pipe.inner.schedule);
    // x survives 55 iterations: at least 56 instances of x alone...
    // but only the distances actually read contribute intervals, so
    // demand is substantial without being absurd.
    EXPECT_GE(report.files[0].required, 40);
}

TEST(Pressure, StandardKernelsFitStandardMachines)
{
    for (const char *name : {"FFT", "Block Warp", "DCT"}) {
        const KernelSpec &spec = kernelByName(name);
        for (int kind = 0; kind < 2; ++kind) {
            Machine machine =
                kind == 0 ? makeCentral() : makeDistributed();
            KernelRunResult run = runKernel(spec, machine, true);
            ASSERT_TRUE(run.scheduled);
            PressureReport report = analyzeRegisterPressure(
                run.sched.kernel, machine, run.sched.schedule);
            EXPECT_TRUE(report.fits())
                << name << " on " << machine.name() << ": "
                << describePressure(machine, report);
        }
    }
}

TEST(Pressure, OverflowDetectedAndSpillsPlanned)
{
    // Tiny register files force an overflow.
    StdMachineConfig cfg;
    cfg.totalRegisters = 4; // distributed: 4/32 -> clamped to 4 each
    Machine machine = makeCentral(cfg);
    // Central with 4 registers and a kernel with many long-lived
    // values overflows.
    KernelBuilder b("fat");
    b.block("body");
    std::vector<Val> vals;
    for (int i = 0; i < 8; ++i)
        vals.push_back(b.load(100 + i, 0));
    Val acc = b.iadd(vals[0], vals[1]);
    for (int i = 2; i < 8; ++i)
        acc = b.iadd(acc, vals[i]);
    b.store(200, acc);
    Kernel kernel = b.take();
    ScheduleResult sched = scheduleBlock(kernel, BlockId(0), machine);
    ASSERT_TRUE(sched.success);
    PressureReport report = analyzeRegisterPressure(
        sched.kernel, machine, sched.schedule);
    EXPECT_FALSE(report.fits());
    // Central has nowhere to spill to: the planner says so.
    EXPECT_FALSE(planSpills(machine, report).has_value());
}

TEST(Pressure, SpillPlanParksInReachableFiles)
{
    // Synthetic report on the distributed machine: one input file
    // over capacity by two while everything else is idle; the plan
    // must park two values in reachable files.
    Machine machine = makeDistributed();
    PressureReport report;
    RegFileId hot(0);
    int capacity = machine.regFile(hot).capacity;
    for (int i = 0; i < capacity + 2; ++i) {
        LiveInterval interval;
        interval.regFile = hot;
        interval.value = ValueId(static_cast<std::uint32_t>(i));
        interval.from = 0;
        interval.to = 10 + i; // distinct lengths for ordering
        report.intervals.push_back(interval);
    }
    for (std::size_t r = 0; r < machine.numRegFiles(); ++r) {
        RegFilePressure p;
        p.regFile = RegFileId(static_cast<std::uint32_t>(r));
        p.capacity =
            machine.regFile(p.regFile).capacity;
        p.required = r == 0 ? capacity + 2 : 0;
        report.files.push_back(p);
    }
    report.overflows.push_back(hot);

    auto planned = planSpills(machine, report);
    ASSERT_TRUE(planned.has_value());
    const std::vector<SpillPlan> &plan = *planned;
    ASSERT_EQ(plan.size(), 2u);
    for (const SpillPlan &spill : plan) {
        EXPECT_EQ(spill.from, hot);
        EXPECT_NE(spill.park, hot);
        EXPECT_LT(machine.copyDistance(spill.from, spill.park),
                  Machine::kUnreachable);
        EXPECT_LT(machine.copyDistance(spill.park, spill.from),
                  Machine::kUnreachable);
        EXPECT_EQ(spill.copies, 2);
    }
    // Longest intervals evicted first.
    EXPECT_EQ(plan[0].value.index(), capacity + 1u);
    EXPECT_EQ(plan[1].value.index(), capacity + 0u);
}

TEST(Pressure, FirDelayLineOverflowsSmallDistributedFiles)
{
    // An honest modeling consequence: a 56-deep register-resident
    // delay line cannot fit 8-entry distributed files; the analysis
    // must say so rather than pretend.
    Machine machine = makeDistributed();
    const KernelSpec &spec = kernelByName("FIR-FP");
    Kernel kernel = spec.build();
    PipelineResult pipe =
        schedulePipelined(kernel, BlockId(0), machine);
    ASSERT_TRUE(pipe.success);
    PressureReport report = analyzeRegisterPressure(
        pipe.inner.kernel, machine, pipe.inner.schedule);
    EXPECT_FALSE(report.fits());
    EXPECT_GT(report.worstUtilization(), 1.0);
}

} // namespace
} // namespace cs
