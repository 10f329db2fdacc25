/**
 * @file
 * Communication-table and lifecycle unit tests: creation and lookup,
 * deactivation/reactivation (the copy-split transformation and its
 * undo), the reader/writer indices (checked against a brute-force
 * scan on random traces), and the open -> closed transition as
 * observed through scheduled results.
 */

#include <gtest/gtest.h>

#include "core/communication.hpp"
#include "core/list_scheduler.hpp"
#include "ir/builder.hpp"
#include "machine/builders.hpp"
#include "support/logging.hpp"
#include "support/random.hpp"

namespace cs {
namespace {

TEST(CommTable, CreateFindAndQueries)
{
    CommTable table;
    CommId c0 =
        table.create(OperationId(1), ValueId(0), OperationId(2), 0, 0);
    CommId c1 =
        table.create(OperationId(1), ValueId(0), OperationId(3), 1, 2);
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.find(OperationId(2), 0), c0);
    EXPECT_EQ(table.find(OperationId(3), 1), c1);
    EXPECT_FALSE(table.find(OperationId(3), 0).valid());

    auto from = table.writtenBy(OperationId(1));
    ASSERT_EQ(from.size(), 2u);
    EXPECT_EQ(from[0], c0);
    EXPECT_EQ(from[1], c1);
    auto to = table.readBy(OperationId(2));
    ASSERT_EQ(to.size(), 1u);
    EXPECT_EQ(to[0], c0);
    EXPECT_TRUE(table.readBy(OperationId(1)).empty());
    EXPECT_TRUE(table.writtenBy(OperationId(2)).empty());
    EXPECT_TRUE(table.readBy(OperationId(99)).empty());

    EXPECT_EQ(table.get(c1).distance, 2);
    EXPECT_FALSE(table.get(c0).isLiveIn());
    CommId live =
        table.create(OperationId(), ValueId(1), OperationId(4), 0, 0);
    EXPECT_TRUE(table.get(live).isLiveIn());
    ASSERT_EQ(table.readBy(OperationId(4)).size(), 1u);
    EXPECT_EQ(table.readBy(OperationId(4))[0], live);
    EXPECT_TRUE(table.writtenBy(OperationId()).empty());
}

TEST(CommTable, DuplicateOperandRejected)
{
    CommTable table;
    table.create(OperationId(1), ValueId(0), OperationId(2), 0, 0);
    EXPECT_THROW(table.create(OperationId(9), ValueId(3),
                              OperationId(2), 0, 0),
                 PanicError);
}

TEST(CommTable, DeactivateReactivateRoundTrip)
{
    CommTable table;
    CommId c0 =
        table.create(OperationId(1), ValueId(0), OperationId(2), 0, 0);
    table.deactivate(c0);
    EXPECT_FALSE(table.find(OperationId(2), 0).valid());
    // The indices keep inactive entries; only the flag moves.
    ASSERT_EQ(table.writtenBy(OperationId(1)).size(), 1u);
    EXPECT_FALSE(table.get(table.writtenBy(OperationId(1))[0]).active);

    // The split operand's replacement is the one find returns.
    CommId c1 =
        table.create(OperationId(3), ValueId(4), OperationId(2), 0, 0);
    EXPECT_EQ(table.find(OperationId(2), 0), c1);
    auto readers = table.readBy(OperationId(2));
    ASSERT_EQ(readers.size(), 2u);
    EXPECT_EQ(readers[0], c0);
    EXPECT_EQ(readers[1], c1);

    table.removeLast(c1);
    table.reactivate(c0);
    EXPECT_EQ(table.find(OperationId(2), 0), c0);
    EXPECT_EQ(table.readBy(OperationId(2)).size(), 1u);
    EXPECT_TRUE(table.writtenBy(OperationId(3)).empty());
    EXPECT_THROW(table.reactivate(c0), PanicError);
}

TEST(CommTable, RemoveLastEnforcesLifo)
{
    CommTable table;
    CommId c0 =
        table.create(OperationId(1), ValueId(0), OperationId(2), 0, 0);
    CommId c1 =
        table.create(OperationId(1), ValueId(0), OperationId(3), 0, 0);
    EXPECT_THROW(table.removeLast(c0), PanicError);
    table.removeLast(c1);
    EXPECT_EQ(table.size(), 1u);
    EXPECT_FALSE(table.find(OperationId(3), 0).valid());
}

/**
 * The reader and writer indices against a brute-force filter of
 * all(), on random traces that follow the scheduler's discipline:
 * create and deactivate move forward, and an undo reverses the newest
 * of them (removeLast for a create, reactivate for a deactivate). At
 * most one communication per (reader, slot) is active at a time.
 */
TEST(CommTable, IndicesMatchScanOnRandomLifoTraces)
{
    constexpr std::uint32_t kOps = 6;
    constexpr int kSlots = 3;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 0x51ed27u);
        CommTable table;
        struct Step
        {
            bool created; ///< else deactivated
            CommId id;
        };
        std::vector<Step> journal;

        auto check = [&](int step) {
            for (std::uint32_t o = 0; o <= kOps; ++o) {
                OperationId op(o);
                std::vector<CommId> reads, writes;
                for (const Communication &comm : table.all()) {
                    if (comm.reader == op)
                        reads.push_back(comm.id);
                    if (comm.writer == op)
                        writes.push_back(comm.id);
                }
                auto by_reader = table.readBy(op);
                auto by_writer = table.writtenBy(op);
                ASSERT_EQ(std::vector<CommId>(by_reader.begin(),
                                              by_reader.end()),
                          reads)
                    << "readBy(" << o << ") at step " << step;
                ASSERT_EQ(std::vector<CommId>(by_writer.begin(),
                                              by_writer.end()),
                          writes)
                    << "writtenBy(" << o << ") at step " << step;
                for (int slot = 0; slot < kSlots; ++slot) {
                    CommId want;
                    for (const Communication &comm : table.all()) {
                        if (comm.active && comm.reader == op &&
                            comm.slot == slot) {
                            ASSERT_FALSE(want.valid())
                                << "two active comms for one operand";
                            want = comm.id;
                        }
                    }
                    ASSERT_EQ(table.find(op, slot), want)
                        << "find(" << o << ", " << slot << ") at step "
                        << step;
                }
            }
        };

        for (int step = 0; step < 400; ++step) {
            std::int64_t action = rng.uniformInt(0, 9);
            if (action < 5) { // create, splitting an active one first
                OperationId reader(static_cast<std::uint32_t>(
                    rng.uniformInt(0, kOps - 1)));
                int slot = static_cast<int>(rng.uniformInt(0, kSlots - 1));
                CommId held = table.find(reader, slot);
                if (held.valid()) {
                    table.deactivate(held);
                    journal.push_back({false, held});
                }
                OperationId writer;
                if (!rng.chance(0.2)) {
                    writer = OperationId(static_cast<std::uint32_t>(
                        rng.uniformInt(0, kOps - 1)));
                }
                CommId id = table.create(
                    writer,
                    ValueId(static_cast<std::uint32_t>(
                        rng.uniformInt(0, 9))),
                    reader, slot, 0);
                journal.push_back({true, id});
            } else if (action < 7) { // deactivate an active one
                std::vector<CommId> active;
                for (const Communication &comm : table.all()) {
                    if (comm.active)
                        active.push_back(comm.id);
                }
                if (active.empty())
                    continue;
                CommId id = active[static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(
                                          active.size()) -
                                          1))];
                table.deactivate(id);
                journal.push_back({false, id});
            } else { // undo the newest forward step
                if (journal.empty())
                    continue;
                Step last = journal.back();
                journal.pop_back();
                if (last.created)
                    table.removeLast(last.id);
                else
                    table.reactivate(last.id);
            }
            check(step);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        // Unwinding everything empties every index.
        while (!journal.empty()) {
            Step last = journal.back();
            journal.pop_back();
            if (last.created)
                table.removeLast(last.id);
            else
                table.reactivate(last.id);
        }
        EXPECT_EQ(table.size(), 0u);
        check(-1);
    }
}

TEST(CommLifecycle, AllCommunicationsClosedAfterScheduling)
{
    // Indirect observation of the open->closed lifecycle: the result
    // carries one route per value operand, each with matching-file
    // stubs — i.e. every communication reached the closed state.
    KernelBuilder b("life");
    b.block("body");
    Val x = b.load(100, 0, "x");
    Val y = b.iadd(x, 1, "y");
    Val z = b.iadd(x, y, "z");
    b.store(200, z);
    Kernel kernel = b.take();
    Machine machine = makeFigure5Machine();
    ScheduleResult result = scheduleBlock(kernel, BlockId(0), machine);
    ASSERT_TRUE(result.success);

    std::size_t value_operands = 0;
    for (const Operation &op : result.kernel.operations()) {
        for (const Operand &operand : op.operands) {
            if (operand.isValue())
                ++value_operands;
        }
    }
    EXPECT_EQ(result.schedule.routes().size(), value_operands);
    for (const RouteRecord &route : result.schedule.routes()) {
        if (!route.writer.valid())
            continue;
        EXPECT_EQ(machine.writePortRegFile(route.writeStub->writePort),
                  machine.readPortRegFile(route.readStub.readPort));
    }
}

TEST(CommLifecycle, FanoutGetsOneRoutePerReader)
{
    // One value, three readers: three communications, three routes,
    // possibly sharing the same write stub (broadcast).
    KernelBuilder b("fanout");
    b.block("body");
    Val x = b.load(100, 0, "x");
    Val a = b.iadd(x, 1, "a");
    Val c = b.iadd(x, 2, "c");
    Val d = b.iadd(x, 3, "d");
    b.store(200, a);
    b.store(201, c);
    b.store(202, d);
    Kernel kernel = b.take();
    Machine machine = makeDistributed();
    ScheduleResult result = scheduleBlock(kernel, BlockId(0), machine);
    ASSERT_TRUE(result.success);

    int x_routes = 0;
    ValueId x_val = result.kernel.operation(OperationId(0)).result;
    for (const RouteRecord &route : result.schedule.routes()) {
        if (route.value == x_val)
            ++x_routes;
    }
    // Copies may split some of them, but at least one direct x route
    // exists and the total operand coverage holds (validated below).
    EXPECT_GE(x_routes, 1);
    EXPECT_TRUE(
        validateSchedule(result.kernel, machine, result.schedule)
            .empty());
}

TEST(CommLifecycle, BroadcastSharesOneBusOnDistributed)
{
    // When one result feeds several readers in the same cycle-ish
    // window, the write stubs should ride one bus (the value-rotation
    // and sharing preferences); count distinct buses used by the
    // value's write stubs on its completion cycle.
    KernelBuilder b("bcast");
    b.block("body");
    Val x = b.load(100, 0, "x");
    Val a = b.iadd(x, 1, "a");
    Val c = b.iadd(x, 2, "c");
    b.store(200, a);
    b.store(201, c);
    Kernel kernel = b.take();
    Machine machine = makeDistributed();
    ScheduleResult result = scheduleBlock(kernel, BlockId(0), machine);
    ASSERT_TRUE(result.success);

    ValueId x_val = result.kernel.operation(OperationId(0)).result;
    std::vector<BusId> buses;
    for (const RouteRecord &route : result.schedule.routes()) {
        if (route.value == x_val && route.writeStub)
            buses.push_back(route.writeStub->bus);
    }
    ASSERT_GE(buses.size(), 2u);
    for (const BusId &bus : buses)
        EXPECT_EQ(bus, buses[0]); // one broadcast bus
}

} // namespace
} // namespace cs
