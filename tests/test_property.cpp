/**
 * @file
 * Property tests: randomly generated dataflow kernels scheduled on
 * every standard machine must always yield structurally legal
 * schedules that execute without route violations. This fuzzes the
 * interplay of stub permutation, retargeting, and copy insertion far
 * beyond the hand-written kernels.
 */

#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "core/list_scheduler.hpp"
#include "core/modulo_scheduler.hpp"
#include "machine/builders.hpp"
#include "sim/datapath_sim.hpp"
#include "support/random.hpp"

namespace cs {
namespace {

/** Random DAG kernel: arithmetic ops over earlier results. */
Kernel
randomKernel(std::uint64_t seed, int numOps, bool carried)
{
    Rng rng(seed);
    KernelBuilder b("fuzz" + std::to_string(seed));
    b.block("loop", true);
    std::vector<Val> values;
    values.push_back(b.load(1000, 1, "in0"));
    values.push_back(b.load(2000, 1, "in1"));

    auto pick = [&]() -> Val {
        return values[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(values.size()) - 1))];
    };

    for (int i = 0; i < numOps; ++i) {
        int kind = static_cast<int>(rng.uniformInt(0, 9));
        Val a = pick();
        Val b2 = pick();
        Val out;
        switch (kind) {
          case 0: out = b.iadd(a, b2); break;
          case 1: out = b.isub(a, b2); break;
          case 2: out = b.imin(a, b2); break;
          case 3: out = b.imax(a, b2); break;
          case 4: out = b.ixor(a, b2); break;
          case 5: out = b.imul(a, b2); break;
          case 6: out = b.iand(a, b2); break;
          case 7: out = b.iadd(a, rng.uniformInt(-9, 9)); break;
          case 8:
            if (carried) {
                out = b.iadd(
                    a.at(static_cast<int>(rng.uniformInt(1, 3))),
                    b2);
            } else {
                out = b.ior(a, b2);
            }
            break;
          default: out = b.load(3000 + i, 1); break;
        }
        values.push_back(out);
    }
    // Store a couple of results so everything is observable.
    b.store(5000, values.back(), 1);
    b.store(6000, values[values.size() / 2], 1);
    return b.take();
}

class Fuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(Fuzz, PlainSchedulesAreLegalEverywhere)
{
    std::uint64_t seed = GetParam();
    Kernel kernel = randomKernel(seed, 24, false);
    ASSERT_TRUE(verifyKernel(kernel).empty());

    std::vector<Machine> machines;
    machines.push_back(makeCentral());
    machines.push_back(makeClustered({}, 2));
    machines.push_back(makeClustered({}, 4));
    machines.push_back(makeDistributed());
    machines.push_back(makeFigure5Machine());

    for (const Machine &machine : machines) {
        if (machine.name() == "figure5") {
            // The toy machine has no multiplier; skip kernels that
            // multiply.
            auto h = kernel.opcodeClassHistogram();
            if (h[static_cast<std::size_t>(OpClass::Multiply)] > 0)
                continue;
        }
        ScheduleResult result =
            scheduleBlock(kernel, BlockId(0), machine);
        ASSERT_TRUE(result.success)
            << machine.name() << ": " << result.failure;
        auto problems =
            validateSchedule(result.kernel, machine, result.schedule);
        for (const auto &p : problems)
            ADD_FAILURE() << machine.name() << ": " << p;
        MemoryImage mem;
        Rng data(seed);
        for (int i = 0; i < 16; ++i) {
            mem.storeInt(1000 + i, data.uniformInt(-50, 50));
            mem.storeInt(2000 + i, data.uniformInt(-50, 50));
        }
        SimResult sim = simulateBlock(result.kernel, machine,
                                      result.schedule, mem, 2);
        for (const auto &p : sim.problems)
            ADD_FAILURE() << machine.name() << ": sim: " << p;
    }
}

TEST_P(Fuzz, PipelinedSchedulesAreLegalEverywhere)
{
    std::uint64_t seed = GetParam() + 1000;
    Kernel kernel = randomKernel(seed, 16, true);
    ASSERT_TRUE(verifyKernel(kernel).empty());

    std::vector<Machine> machines;
    machines.push_back(makeCentral());
    machines.push_back(makeClustered({}, 4));
    machines.push_back(makeDistributed());

    for (const Machine &machine : machines) {
        PipelineResult pipe =
            schedulePipelined(kernel, BlockId(0), machine);
        ASSERT_TRUE(pipe.success)
            << machine.name() << ": " << pipe.inner.failure;
        EXPECT_GE(pipe.ii, std::max(pipe.resMii, pipe.recMii));
        auto problems = validateSchedule(pipe.inner.kernel, machine,
                                         pipe.inner.schedule);
        for (const auto &p : problems)
            ADD_FAILURE() << machine.name() << ": " << p;
        MemoryImage mem;
        Rng data(seed);
        for (int i = 0; i < 16; ++i) {
            mem.storeInt(1000 + i, data.uniformInt(-50, 50));
            mem.storeInt(2000 + i, data.uniformInt(-50, 50));
        }
        SimResult sim = simulateBlock(pipe.inner.kernel, machine,
                                      pipe.inner.schedule, mem, 4);
        for (const auto &p : sim.problems)
            ADD_FAILURE() << machine.name() << ": sim: " << p;
    }
}

TEST_P(Fuzz, PlainAndPipelinedAgreeFunctionally)
{
    // The same kernel executed via a plain schedule and a pipelined
    // schedule must produce identical memory.
    std::uint64_t seed = GetParam() + 2000;
    Kernel kernel = randomKernel(seed, 18, true);
    Machine machine = makeDistributed();

    auto run = [&](bool pipelined) {
        MemoryImage mem;
        Rng data(seed);
        for (int i = 0; i < 16; ++i) {
            mem.storeInt(1000 + i, data.uniformInt(-50, 50));
            mem.storeInt(2000 + i, data.uniformInt(-50, 50));
        }
        if (pipelined) {
            PipelineResult pipe =
                schedulePipelined(kernel, BlockId(0), machine);
            EXPECT_TRUE(pipe.success);
            return simulateBlock(pipe.inner.kernel, machine,
                                 pipe.inner.schedule, mem, 4);
        }
        ScheduleResult block =
            scheduleBlock(kernel, BlockId(0), machine);
        EXPECT_TRUE(block.success);
        return simulateBlock(block.kernel, machine, block.schedule,
                             mem, 4);
    };

    SimResult plain = run(false);
    SimResult pipelined = run(true);
    ASSERT_TRUE(plain.ok);
    ASSERT_TRUE(pipelined.ok);
    // Compare only output regions: carried operands differ by design
    // between the two modes (a plain schedule treats them as live-ins
    // reading the previous iteration's value, which matches).
    for (auto &[addr, word] : plain.memory.cells()) {
        if (addr >= 5000) {
            EXPECT_TRUE(pipelined.memory.load(addr) == word)
                << "at " << addr;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range(1, 13));

TEST(Determinism, SameInputsSameSchedule)
{
    Kernel kernel = randomKernel(99, 24, true);
    Machine machine = makeDistributed();
    ScheduleResult a = scheduleBlock(kernel, BlockId(0), machine);
    ScheduleResult b = scheduleBlock(kernel, BlockId(0), machine);
    ASSERT_TRUE(a.success);
    ASSERT_TRUE(b.success);
    ASSERT_EQ(a.kernel.numOperations(), b.kernel.numOperations());
    for (std::size_t i = 0; i < a.kernel.numOperations(); ++i) {
        OperationId op(static_cast<std::uint32_t>(i));
        const Placement &pa = a.schedule.placement(op);
        const Placement &pb = b.schedule.placement(op);
        EXPECT_EQ(pa.cycle, pb.cycle);
        EXPECT_EQ(pa.fu, pb.fu);
    }
    EXPECT_EQ(a.schedule.routes().size(), b.schedule.routes().size());
}

} // namespace
} // namespace cs
