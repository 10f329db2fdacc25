/**
 * @file
 * Unit tests for the reservation table: the paper's stub sharing and
 * conflict rules, functional-unit occupancy, and modulo folding.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "core/reservation.hpp"
#include "machine/builder.hpp"
#include "support/logging.hpp"

namespace cs {
namespace {

/** Two units, two files, one shared result bus. */
Machine
testMachine()
{
    MachineBuilder b("resv");
    RegFileId rf0 = b.addRegFile("RF0", 8);
    RegFileId rf1 = b.addRegFile("RF1", 8);
    FuncUnitId fu0 =
        b.addFuncUnit("A", {OpClass::Add, OpClass::CopyCls}, 2);
    FuncUnitId fu1 =
        b.addFuncUnit("B", {OpClass::Add, OpClass::CopyCls}, 2);
    for (int s = 0; s < 2; ++s) {
        b.connectReadDirect(rf0, b.input(fu0, s));
        b.connectReadDirect(rf1, b.input(fu1, s));
    }
    BusId bus = b.addBus("shared");
    WritePortId wp0 = b.addWritePort(rf0);
    WritePortId wp1 = b.addWritePort(rf1);
    b.connectOutputToBus(b.output(fu0), bus);
    b.connectOutputToBus(b.output(fu1), bus);
    b.connectBusToWritePort(bus, wp0);
    b.connectBusToWritePort(bus, wp1);
    return b.build();
}

class ReservationTest : public ::testing::Test
{
  protected:
    ReservationTest() : machine(testMachine()) {}

    Machine machine;
};

TEST_F(ReservationTest, FuOccupancy)
{
    ReservationTable table(machine);
    FuncUnitId fu(0);
    EXPECT_TRUE(table.fuFree(fu, 3));
    table.acquireFu(fu, 3, OperationId(7));
    EXPECT_FALSE(table.fuFree(fu, 3));
    EXPECT_TRUE(table.fuFree(fu, 4));
    EXPECT_TRUE(table.fuFree(FuncUnitId(1), 3));
    table.releaseFu(fu, 3, OperationId(7));
    EXPECT_TRUE(table.fuFree(fu, 3));
}

TEST_F(ReservationTest, IssuedAtListsTheRowsUnits)
{
    using Issued = std::vector<std::pair<FuncUnitId, OperationId>>;
    auto issued = [](const ReservationTable &table, int cycle) {
        auto row = table.issuedAt(cycle);
        return Issued(row.begin(), row.end());
    };

    ReservationTable plain(machine);
    EXPECT_TRUE(plain.issuedAt(3).empty()); // never-touched row
    plain.acquireFu(FuncUnitId(1), 3, OperationId(7));
    plain.acquireFu(FuncUnitId(0), 3, OperationId(2));
    plain.acquireFu(FuncUnitId(0), 4, OperationId(5));
    EXPECT_EQ(issued(plain, 3),
              (Issued{{FuncUnitId(1), OperationId(7)},
                      {FuncUnitId(0), OperationId(2)}}));
    EXPECT_EQ(issued(plain, 4),
              (Issued{{FuncUnitId(0), OperationId(5)}}));
    EXPECT_TRUE(plain.issuedAt(2).empty()); // row below a grown one
    plain.releaseFu(FuncUnitId(1), 3, OperationId(7));
    EXPECT_EQ(issued(plain, 3),
              (Issued{{FuncUnitId(0), OperationId(2)}}));

    // Folded: cycles 2, 6 and -2 share one row.
    ReservationTable folded(machine, 4);
    folded.acquireFu(FuncUnitId(0), 2, OperationId(1));
    folded.acquireFu(FuncUnitId(1), 6, OperationId(3));
    EXPECT_EQ(issued(folded, -2),
              (Issued{{FuncUnitId(0), OperationId(1)},
                      {FuncUnitId(1), OperationId(3)}}));
    EXPECT_TRUE(folded.issuedAt(5).empty());
}

TEST_F(ReservationTest, WriteStubSharingSameValue)
{
    ReservationTable table(machine);
    const auto &stubs = machine.writeStubs(FuncUnitId(0));
    ASSERT_EQ(stubs.size(), 2u);
    ValueId v(0);

    table.acquireWrite(stubs[0], v, 5);
    // Identical stub, same value: refcounted share.
    EXPECT_TRUE(table.canAcquireWrite(stubs[0], v, 5));
    // Same value broadcast into the other file over the same bus.
    EXPECT_TRUE(table.canAcquireWrite(stubs[1], v, 5));
    // A different value on the shared bus conflicts.
    EXPECT_FALSE(table.canAcquireWrite(stubs[0], ValueId(1), 5));
    EXPECT_FALSE(table.canAcquireWrite(stubs[1], ValueId(1), 5));
    // Other cycles are free.
    EXPECT_TRUE(table.canAcquireWrite(stubs[1], ValueId(1), 6));
}

TEST_F(ReservationTest, WriteRefcounting)
{
    ReservationTable table(machine);
    const auto &stubs = machine.writeStubs(FuncUnitId(0));
    ValueId v(0);
    table.acquireWrite(stubs[0], v, 5);
    table.acquireWrite(stubs[0], v, 5); // shared
    table.releaseWrite(stubs[0], v, 5);
    // Still held by the second reference.
    EXPECT_FALSE(table.canAcquireWrite(stubs[0], ValueId(1), 5));
    table.releaseWrite(stubs[0], v, 5);
    EXPECT_TRUE(table.canAcquireWrite(stubs[0], ValueId(1), 5));
}

TEST_F(ReservationTest, SameValueDifferentOutputConflicts)
{
    ReservationTable table(machine);
    const auto &a_stubs = machine.writeStubs(FuncUnitId(0));
    const auto &b_stubs = machine.writeStubs(FuncUnitId(1));
    ValueId v(0);
    table.acquireWrite(a_stubs[0], v, 5);
    // "Same value" from a different physical output is still a second
    // driver on the bus.
    EXPECT_FALSE(table.canAcquireWrite(b_stubs[0], v, 5));
}

TEST_F(ReservationTest, ReadStubRules)
{
    ReservationTable table(machine);
    const auto &slot0 = machine.readStubs(FuncUnitId(0), 0);
    OperationId reader(3);

    table.acquireRead(slot0[0], reader, 0, 4);
    // Identical stub for the same operand: shareable.
    EXPECT_TRUE(table.canAcquireRead(slot0[0], reader, 0, 4));
    // A different operand cannot use the same port/wire.
    EXPECT_FALSE(table.canAcquireRead(slot0[0], OperationId(9), 0, 4));
    // Different cycle is fine.
    EXPECT_TRUE(table.canAcquireRead(slot0[0], OperationId(9), 0, 5));
    table.releaseRead(slot0[0], reader, 0, 4);
    EXPECT_TRUE(table.canAcquireRead(slot0[0], OperationId(9), 0, 4));
}

TEST_F(ReservationTest, BusRoleExclusion)
{
    // A write on a bus excludes reads of that bus in the same cycle
    // (and vice versa). Build a machine where one bus serves both
    // roles: read port -> bus -> input and output -> bus -> port.
    MachineBuilder b("dual");
    RegFileId rf = b.addRegFile("RF", 8);
    FuncUnitId fu = b.addFuncUnit("A", {OpClass::Add}, 1);
    BusId bus = b.addBus("dual");
    ReadPortId rp = b.addReadPort(rf);
    WritePortId wp = b.addWritePort(rf);
    b.connectReadPortToBus(rp, bus);
    b.connectBusToInput(bus, b.input(fu, 0));
    b.connectOutputToBus(b.output(fu), bus);
    b.connectBusToWritePort(bus, wp);
    Machine m = b.build();

    ReservationTable table(m);
    ReadStub read{rp, bus, m.funcUnit(fu).inputs[0]};
    WriteStub write{m.funcUnit(fu).output, bus, wp};
    table.acquireRead(read, OperationId(0), 0, 2);
    EXPECT_FALSE(table.canAcquireWrite(write, ValueId(0), 2));
    EXPECT_TRUE(table.canAcquireWrite(write, ValueId(0), 3));
}

TEST_F(ReservationTest, ModuloFolding)
{
    ReservationTable table(machine, 4);
    FuncUnitId fu(0);
    table.acquireFu(fu, 2, OperationId(1));
    // Cycle 6 == 2 mod 4: same reservation slot.
    EXPECT_FALSE(table.fuFree(fu, 6));
    EXPECT_FALSE(table.fuFree(fu, 10));
    EXPECT_TRUE(table.fuFree(fu, 5));
    EXPECT_EQ(table.norm(7), 3);
    EXPECT_EQ(table.norm(-1), 3);
}

TEST_F(ReservationTest, BusesOccupiedAndAvailability)
{
    ReservationTable table(machine);
    const auto &stubs = machine.writeStubs(FuncUnitId(0));
    ValueId v(0);
    EXPECT_EQ(table.busesOccupied(5), 0);
    table.acquireWrite(stubs[0], v, 5);
    EXPECT_EQ(table.busesOccupied(5), 1);
    EXPECT_TRUE(table.busAvailableForValue(stubs[0].bus, v, 5));
    EXPECT_FALSE(
        table.busAvailableForValue(stubs[0].bus, ValueId(1), 5));
    EXPECT_TRUE(table.busCarriesValue(stubs[0].bus, v, 5));
    EXPECT_FALSE(table.busCarriesValue(stubs[0].bus, ValueId(1), 5));
    EXPECT_TRUE(table.hasIdenticalWrite(stubs[0], v, 5));
    EXPECT_FALSE(table.hasIdenticalWrite(stubs[1], v, 5));
}

TEST_F(ReservationTest, ReleasingUnheldPanics)
{
    ReservationTable table(machine);
    const auto &stubs = machine.writeStubs(FuncUnitId(0));
    EXPECT_THROW(table.releaseWrite(stubs[0], ValueId(0), 1),
                 PanicError);
    EXPECT_THROW(table.releaseFu(FuncUnitId(0), 1, OperationId(0)),
                 PanicError);
}

TEST_F(ReservationTest, ModuloFoldingIiOne)
{
    // ii == 1: every cycle shares the single reservation slot.
    ReservationTable table(machine, 1);
    EXPECT_EQ(table.norm(0), 0);
    EXPECT_EQ(table.norm(17), 0);
    EXPECT_EQ(table.norm(-3), 0);
    const auto &stubs = machine.writeStubs(FuncUnitId(0));
    ValueId v(0);
    table.acquireWrite(stubs[0], v, 9);
    EXPECT_TRUE(table.hasIdenticalWrite(stubs[0], v, 0));
    EXPECT_TRUE(table.hasIdenticalWrite(stubs[0], v, 123));
    EXPECT_FALSE(table.canAcquireWrite(stubs[0], ValueId(1), 42));
    table.releaseWrite(stubs[0], v, 2);
    EXPECT_TRUE(table.canAcquireWrite(stubs[0], ValueId(1), 42));
}

TEST_F(ReservationTest, BroadcastWriteReleaseKeepsSharedResources)
{
    // Two stubs of one value broadcast over the shared bus into both
    // files: they share the output and the bus. Releasing one must
    // keep the shared occupancy visible until the last use goes.
    ReservationTable table(machine);
    const auto &stubs = machine.writeStubs(FuncUnitId(0));
    ValueId v(0);
    table.acquireWrite(stubs[0], v, 5);
    table.acquireWrite(stubs[1], v, 5);
    EXPECT_EQ(table.busesOccupied(5), 1);

    table.releaseWrite(stubs[0], v, 5);
    // The bus still carries the value through the remaining use, and
    // the shared output is still driven: another value must conflict.
    EXPECT_TRUE(table.busCarriesValue(stubs[1].bus, v, 5));
    EXPECT_TRUE(table.busHasWrite(stubs[1].bus, 5));
    EXPECT_EQ(table.busWriteValue(stubs[1].bus, 5), v);
    EXPECT_EQ(table.busesOccupied(5), 1);
    EXPECT_FALSE(table.canAcquireWrite(stubs[0], ValueId(1), 5));
    EXPECT_TRUE(table.hasIdenticalWrite(stubs[1], v, 5));
    EXPECT_FALSE(table.hasIdenticalWrite(stubs[0], v, 5));
    // Rejoining the broadcast is still allowed.
    EXPECT_TRUE(table.canAcquireWrite(stubs[0], v, 5));

    table.releaseWrite(stubs[1], v, 5);
    EXPECT_EQ(table.busesOccupied(5), 0);
    EXPECT_FALSE(table.busHasWrite(stubs[1].bus, 5));
    EXPECT_FALSE(table.busWriteValue(stubs[1].bus, 5).valid());
    EXPECT_TRUE(table.canAcquireWrite(stubs[0], ValueId(1), 5));
}

TEST_F(ReservationTest, IdenticalReadSharingRefcounts)
{
    ReservationTable table(machine);
    const auto &slot0 = machine.readStubs(FuncUnitId(0), 0);
    OperationId reader(3);
    table.acquireRead(slot0[0], reader, 0, 4);
    table.acquireRead(slot0[0], reader, 0, 4); // identical: shared
    EXPECT_TRUE(table.busHasRead(slot0[0].bus, 4));
    table.releaseRead(slot0[0], reader, 0, 4);
    // Still held by the second reference.
    EXPECT_FALSE(table.canAcquireRead(slot0[0], OperationId(9), 0, 4));
    EXPECT_TRUE(table.busHasRead(slot0[0].bus, 4));
    table.releaseRead(slot0[0], reader, 0, 4);
    EXPECT_TRUE(table.canAcquireRead(slot0[0], OperationId(9), 0, 4));
    EXPECT_FALSE(table.busHasRead(slot0[0].bus, 4));
}

/**
 * Reference implementation of the sharing rules: the plain use-list
 * scan the table used before the bitset fast paths. The randomized
 * test below drives both through identical traces and demands
 * identical answers for every probe.
 */
class RefTable
{
  public:
    RefTable(const Machine &machine, int ii)
        : machine_(machine), ii_(ii)
    {}

    int
    norm(int cycle) const
    {
        if (ii_ <= 0)
            return cycle;
        int m = cycle % ii_;
        return m < 0 ? m + ii_ : m;
    }

    bool
    canAcquireWrite(const WriteStub &stub, ValueId value, int cycle) const
    {
        auto it = cycles_.find(norm(cycle));
        if (it == cycles_.end())
            return true;
        for (const ReadUse &use : it->second.reads) {
            if (use.stub.bus == stub.bus)
                return false;
        }
        for (const WriteUse &use : it->second.writes) {
            if (use.value == value) {
                if (use.stub == stub)
                    continue;
                if (sameResultWriteStubsConflict(machine_, use.stub,
                                                 stub)) {
                    return false;
                }
                if (use.stub.output != stub.output)
                    return false;
            } else if (writeStubsShareResource(use.stub, stub)) {
                return false;
            }
        }
        return true;
    }

    bool
    canAcquireRead(const ReadStub &stub, OperationId reader, int slot,
                   int cycle) const
    {
        auto it = cycles_.find(norm(cycle));
        if (it == cycles_.end())
            return true;
        for (const WriteUse &use : it->second.writes) {
            if (use.stub.bus == stub.bus)
                return false;
        }
        for (const ReadUse &use : it->second.reads) {
            if (use.reader == reader && use.slot == slot) {
                if (use.stub != stub)
                    return false;
            } else if (readStubsShareResource(use.stub, stub)) {
                return false;
            }
        }
        return true;
    }

    void
    acquireWrite(const WriteStub &stub, ValueId value, int cycle)
    {
        auto &writes = cycles_[norm(cycle)].writes;
        for (WriteUse &use : writes) {
            if (use.stub == stub && use.value == value) {
                ++use.refs;
                return;
            }
        }
        writes.push_back({stub, value, 1});
    }

    void
    releaseWrite(const WriteStub &stub, ValueId value, int cycle)
    {
        auto &writes = cycles_[norm(cycle)].writes;
        for (std::size_t i = 0; i < writes.size(); ++i) {
            if (writes[i].stub == stub && writes[i].value == value) {
                if (--writes[i].refs == 0)
                    writes.erase(writes.begin() + i);
                return;
            }
        }
        ADD_FAILURE() << "reference: releasing unheld write";
    }

    void
    acquireRead(const ReadStub &stub, OperationId reader, int slot,
                int cycle)
    {
        auto &reads = cycles_[norm(cycle)].reads;
        for (ReadUse &use : reads) {
            if (use.stub == stub && use.reader == reader &&
                use.slot == slot) {
                ++use.refs;
                return;
            }
        }
        reads.push_back({stub, reader, slot, 1});
    }

    void
    releaseRead(const ReadStub &stub, OperationId reader, int slot,
                int cycle)
    {
        auto &reads = cycles_[norm(cycle)].reads;
        for (std::size_t i = 0; i < reads.size(); ++i) {
            if (reads[i].stub == stub && reads[i].reader == reader &&
                reads[i].slot == slot) {
                if (--reads[i].refs == 0)
                    reads.erase(reads.begin() + i);
                return;
            }
        }
        ADD_FAILURE() << "reference: releasing unheld read";
    }

    bool
    hasIdenticalWrite(const WriteStub &stub, ValueId value,
                      int cycle) const
    {
        auto it = cycles_.find(norm(cycle));
        if (it == cycles_.end())
            return false;
        for (const WriteUse &use : it->second.writes) {
            if (use.stub == stub && use.value == value)
                return true;
        }
        return false;
    }

    int
    busesOccupied(int cycle) const
    {
        auto it = cycles_.find(norm(cycle));
        if (it == cycles_.end())
            return 0;
        std::vector<BusId> seen;
        for (const WriteUse &use : it->second.writes) {
            if (std::find(seen.begin(), seen.end(), use.stub.bus) ==
                seen.end()) {
                seen.push_back(use.stub.bus);
            }
        }
        for (const ReadUse &use : it->second.reads) {
            if (std::find(seen.begin(), seen.end(), use.stub.bus) ==
                seen.end()) {
                seen.push_back(use.stub.bus);
            }
        }
        return static_cast<int>(seen.size());
    }

    bool
    busCarriesValue(BusId bus, ValueId value, int cycle) const
    {
        auto it = cycles_.find(norm(cycle));
        if (it == cycles_.end())
            return false;
        for (const WriteUse &use : it->second.writes) {
            if (use.stub.bus == bus && use.value == value)
                return true;
        }
        return false;
    }

    bool
    busAvailableForValue(BusId bus, ValueId value, int cycle) const
    {
        auto it = cycles_.find(norm(cycle));
        if (it == cycles_.end())
            return true;
        for (const ReadUse &use : it->second.reads) {
            if (use.stub.bus == bus)
                return false;
        }
        for (const WriteUse &use : it->second.writes) {
            if (use.stub.bus == bus && use.value != value)
                return false;
        }
        return true;
    }

  private:
    struct WriteUse
    {
        WriteStub stub;
        ValueId value;
        int refs;
    };
    struct ReadUse
    {
        ReadStub stub;
        OperationId reader;
        int slot;
        int refs;
    };
    struct Cyc
    {
        std::vector<WriteUse> writes;
        std::vector<ReadUse> reads;
    };

    const Machine &machine_;
    int ii_;
    std::map<int, Cyc> cycles_;
};

class ReservationRandomEquivalence : public ::testing::TestWithParam<int>
{};

TEST_P(ReservationRandomEquivalence, MatchesReferenceOnRandomTraces)
{
    const int ii = GetParam();
    Machine machine = testMachine();
    ReservationTable table(machine, ii);
    RefTable ref(machine, ii);

    // Everything acquirable: write stubs of both units, read stubs of
    // every slot of both units.
    std::vector<WriteStub> wstubs;
    std::vector<ReadStub> rstubs;
    for (std::uint32_t f = 0; f < machine.numFuncUnits(); ++f) {
        FuncUnitId fu(f);
        for (const WriteStub &stub : machine.writeStubs(fu))
            wstubs.push_back(stub);
        for (int s = 0; s < 2; ++s) {
            for (const ReadStub &stub : machine.readStubs(fu, s))
                rstubs.push_back(stub);
        }
    }
    ASSERT_FALSE(wstubs.empty());
    ASSERT_FALSE(rstubs.empty());

    struct HeldWrite
    {
        WriteStub stub;
        ValueId value;
        int cycle;
    };
    struct HeldRead
    {
        ReadStub stub;
        OperationId reader;
        int slot;
        int cycle;
    };
    std::vector<HeldWrite> held_writes;
    std::vector<HeldRead> held_reads;

    std::mt19937 rng(20260806u + static_cast<unsigned>(ii));
    auto pick = [&](int n) {
        return static_cast<int>(rng() % static_cast<unsigned>(n));
    };

    for (int iter = 0; iter < 6000; ++iter) {
        int action = pick(6);
        int cycle = pick(8);
        switch (action) {
          case 0: { // probe + maybe acquire a write stub
            const WriteStub &stub = wstubs[pick(
                static_cast<int>(wstubs.size()))];
            ValueId value(static_cast<std::uint32_t>(pick(3)));
            bool can = table.canAcquireWrite(stub, value, cycle);
            ASSERT_EQ(can, ref.canAcquireWrite(stub, value, cycle))
                << "canAcquireWrite diverged at iter " << iter;
            if (can && pick(2) == 0) {
                table.acquireWrite(stub, value, cycle);
                ref.acquireWrite(stub, value, cycle);
                held_writes.push_back({stub, value, cycle});
            }
            break;
          }
          case 1: { // probe + maybe acquire a read stub
            const ReadStub &stub =
                rstubs[pick(static_cast<int>(rstubs.size()))];
            OperationId reader(static_cast<std::uint32_t>(pick(3)));
            int slot = pick(2);
            bool can = table.canAcquireRead(stub, reader, slot, cycle);
            ASSERT_EQ(can, ref.canAcquireRead(stub, reader, slot, cycle))
                << "canAcquireRead diverged at iter " << iter;
            if (can && pick(2) == 0) {
                table.acquireRead(stub, reader, slot, cycle);
                ref.acquireRead(stub, reader, slot, cycle);
                held_reads.push_back({stub, reader, slot, cycle});
            }
            break;
          }
          case 2: { // release a random held write
            if (held_writes.empty())
                break;
            int i = pick(static_cast<int>(held_writes.size()));
            HeldWrite held = held_writes[i];
            held_writes.erase(held_writes.begin() + i);
            table.releaseWrite(held.stub, held.value, held.cycle);
            ref.releaseWrite(held.stub, held.value, held.cycle);
            break;
          }
          case 3: { // release a random held read
            if (held_reads.empty())
                break;
            int i = pick(static_cast<int>(held_reads.size()));
            HeldRead held = held_reads[i];
            held_reads.erase(held_reads.begin() + i);
            table.releaseRead(held.stub, held.reader, held.slot,
                              held.cycle);
            ref.releaseRead(held.stub, held.reader, held.slot,
                            held.cycle);
            break;
          }
          case 4: { // bus-level queries
            BusId bus(static_cast<std::uint32_t>(
                pick(static_cast<int>(machine.numBuses()))));
            ValueId value(static_cast<std::uint32_t>(pick(3)));
            ASSERT_EQ(table.busesOccupied(cycle),
                      ref.busesOccupied(cycle))
                << "busesOccupied diverged at iter " << iter;
            ASSERT_EQ(table.busCarriesValue(bus, value, cycle),
                      ref.busCarriesValue(bus, value, cycle))
                << "busCarriesValue diverged at iter " << iter;
            ASSERT_EQ(table.busAvailableForValue(bus, value, cycle),
                      ref.busAvailableForValue(bus, value, cycle))
                << "busAvailableForValue diverged at iter " << iter;
            break;
          }
          default: { // identical-write query
            const WriteStub &stub = wstubs[pick(
                static_cast<int>(wstubs.size()))];
            ValueId value(static_cast<std::uint32_t>(pick(3)));
            ASSERT_EQ(table.hasIdenticalWrite(stub, value, cycle),
                      ref.hasIdenticalWrite(stub, value, cycle))
                << "hasIdenticalWrite diverged at iter " << iter;
            break;
          }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(FoldingFactors, ReservationRandomEquivalence,
                         ::testing::Values(0, 1, 4),
                         [](const auto &info) {
                             return "ii" + std::to_string(info.param);
                         });

} // namespace
} // namespace cs
