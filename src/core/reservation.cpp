#include "core/reservation.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace cs {

ReservationTable::ReservationTable(const Machine &machine, int ii)
    : machine_(&machine), ii_(ii)
{
    // Folded tables are a fixed ring of ii entries; plain tables grow
    // on first write to a cycle. States initialize lazily so that
    // constructing a table for a large ii stays cheap.
    if (ii_ > 0)
        cycles_.resize(static_cast<std::size_t>(ii_));
}

void
ReservationTable::CycleState::init(const Machine &machine)
{
    fuBits.resize(machine.numFuncUnits());
    wOut.resize(machine.numOutputPorts());
    wBus.resize(machine.numBuses());
    wPort.resize(machine.numWritePorts());
    rPort.resize(machine.numReadPorts());
    rBus.resize(machine.numBuses());
    rInput.resize(machine.numInputPorts());
    bus.assign(machine.numBuses(), BusState{});
    busesOccupied = 0;
    initialized = true;
}

int
ReservationTable::norm(int cycle) const
{
    if (ii_ <= 0)
        return cycle;
    int m = cycle % ii_;
    return m < 0 ? m + ii_ : m;
}

const ReservationTable::CycleState *
ReservationTable::stateAt(int cycle) const
{
    int n = norm(cycle);
    if (n < 0 || static_cast<std::size_t>(n) >= cycles_.size())
        return nullptr;
    const CycleState &state = cycles_[static_cast<std::size_t>(n)];
    return state.initialized ? &state : nullptr;
}

ReservationTable::CycleState &
ReservationTable::mutableStateAt(int cycle)
{
    int n = norm(cycle);
    CS_ASSERT(n >= 0, "reservation at negative cycle ", cycle);
    if (static_cast<std::size_t>(n) >= cycles_.size())
        cycles_.resize(static_cast<std::size_t>(n) + 1);
    CycleState &state = cycles_[static_cast<std::size_t>(n)];
    if (!state.initialized)
        state.init(*machine_);
    return state;
}

bool
ReservationTable::fuFree(FuncUnitId fu, int cycle) const
{
    const CycleState *state = stateAt(cycle);
    return state == nullptr || !state->fuBits.test(fu.index());
}

void
ReservationTable::acquireFu(FuncUnitId fu, int cycle, OperationId op)
{
    CS_ASSERT(fuFree(fu, cycle), "unit already busy");
    CycleState &state = mutableStateAt(cycle);
    state.fuBusy.emplace_back(fu, op);
    state.fuBits.set(fu.index());
}

void
ReservationTable::releaseFu(FuncUnitId fu, int cycle, OperationId op)
{
    CycleState &state = mutableStateAt(cycle);
    auto it = std::find(state.fuBusy.begin(), state.fuBusy.end(),
                        std::make_pair(fu, op));
    CS_ASSERT(it != state.fuBusy.end(), "releasing unheld unit");
    state.fuBusy.erase(it);
    state.fuBits.reset(fu.index());
}

bool
ReservationTable::canAcquireWrite(const WriteStub &stub, ValueId value,
                                  int cycle) const
{
    const CycleState *state = stateAt(cycle);
    if (!state)
        return true;
    // A bus carries one value per cycle regardless of role: any read
    // stub on this bus rejects the write outright.
    if (state->rBus.test(stub.bus.index()))
        return false;
    if (!state->wOut.test(stub.output.index()) &&
        !state->wBus.test(stub.bus.index()) &&
        !state->wPort.test(stub.writePort.index())) {
        // No write use shares any of this stub's resources. The only
        // remaining conflict source is another stub of the same value:
        // it necessarily uses a different output (else the output mask
        // would overlap), which the broadcast rule forbids.
        for (const WriteUse &use : state->writes) {
            if (use.value == value)
                return false;
        }
        return true;
    }
    // Resource collision: apply the exact sharing rules.
    for (const WriteUse &use : state->writes) {
        if (use.value == value) {
            if (use.stub == stub)
                continue; // identical stub: shared, refcounted
            if (sameResultWriteStubsConflict(*machine_, use.stub, stub))
                return false;
            // Same value, different file: broadcast, but the output
            // port must agree (one physical driver).
            if (use.stub.output != stub.output)
                return false;
        } else if (writeStubsShareResource(use.stub, stub)) {
            return false;
        }
    }
    return true;
}

void
ReservationTable::noteWriteUseAdded(CycleState &state,
                                    const WriteStub &stub, ValueId value)
{
    state.wOut.set(stub.output.index());
    state.wBus.set(stub.bus.index());
    state.wPort.set(stub.writePort.index());
    BusState &bs = state.bus[stub.bus.index()];
    if (bs.writeUses + bs.readUses == 0)
        ++state.busesOccupied;
    ++bs.writeUses;
    bs.value = value;
}

void
ReservationTable::noteWriteUseRemoved(CycleState &state,
                                      const WriteStub &stub)
{
    state.wPort.reset(stub.writePort.index());
    BusState &bs = state.bus[stub.bus.index()];
    if (--bs.writeUses == 0) {
        state.wBus.reset(stub.bus.index());
        bs.value = ValueId();
        if (bs.readUses == 0)
            --state.busesOccupied;
    }
    // Broadcast uses of one value share the output; drop its bit only
    // once no remaining use drives it.
    for (const WriteUse &use : state.writes) {
        if (use.stub.output == stub.output)
            return;
    }
    state.wOut.reset(stub.output.index());
}

void
ReservationTable::acquireWrite(const WriteStub &stub, ValueId value,
                               int cycle)
{
    CS_ASSERT(canAcquireWrite(stub, value, cycle),
              "conflicting write stub acquisition");
    CycleState &state = mutableStateAt(cycle);
    ++state.stubGen;
    for (WriteUse &use : state.writes) {
        if (use.stub == stub && use.value == value) {
            ++use.refs;
            return;
        }
    }
    state.writes.push_back(WriteUse{stub, value, 1});
    noteWriteUseAdded(state, stub, value);
}

void
ReservationTable::releaseWrite(const WriteStub &stub, ValueId value,
                               int cycle)
{
    CycleState &state = mutableStateAt(cycle);
    ++state.stubGen;
    for (std::size_t i = 0; i < state.writes.size(); ++i) {
        WriteUse &use = state.writes[i];
        if (use.stub == stub && use.value == value) {
            if (--use.refs == 0) {
                state.writes.erase(state.writes.begin() + i);
                noteWriteUseRemoved(state, stub);
            }
            return;
        }
    }
    CS_PANIC("releasing unheld write stub");
}

bool
ReservationTable::hasIdenticalWrite(const WriteStub &stub, ValueId value,
                                    int cycle) const
{
    const CycleState *state = stateAt(cycle);
    if (!state)
        return false;
    // An identical reservation implies every resource bit is set.
    if (!state->wOut.test(stub.output.index()) ||
        !state->wBus.test(stub.bus.index()) ||
        !state->wPort.test(stub.writePort.index())) {
        return false;
    }
    for (const WriteUse &use : state->writes) {
        if (use.stub == stub && use.value == value)
            return true;
    }
    return false;
}

int
ReservationTable::busesOccupied(int cycle) const
{
    const CycleState *state = stateAt(cycle);
    return state ? state->busesOccupied : 0;
}

bool
ReservationTable::busCarriesValue(BusId bus, ValueId value,
                                  int cycle) const
{
    const CycleState *state = stateAt(cycle);
    if (!state)
        return false;
    const BusState &bs = state->bus[bus.index()];
    return bs.writeUses > 0 && bs.value == value;
}

bool
ReservationTable::busAvailableForValue(BusId bus, ValueId value,
                                       int cycle) const
{
    const CycleState *state = stateAt(cycle);
    if (!state)
        return true;
    const BusState &bs = state->bus[bus.index()];
    if (bs.readUses > 0)
        return false;
    return bs.writeUses == 0 || bs.value == value;
}

bool
ReservationTable::busHasRead(BusId bus, int cycle) const
{
    const CycleState *state = stateAt(cycle);
    return state != nullptr && state->bus[bus.index()].readUses > 0;
}

ReservationTable::BusWriteProbe
ReservationTable::busWriteProbe(BusId bus, int cycle) const
{
    const CycleState *state = stateAt(cycle);
    if (!state)
        return {};
    const BusState &b = state->bus[bus.index()];
    return {b.readUses > 0, b.value};
}

bool
ReservationTable::busHasWrite(BusId bus, int cycle) const
{
    const CycleState *state = stateAt(cycle);
    return state != nullptr && state->bus[bus.index()].writeUses > 0;
}

ValueId
ReservationTable::busWriteValue(BusId bus, int cycle) const
{
    const CycleState *state = stateAt(cycle);
    if (!state)
        return ValueId();
    return state->bus[bus.index()].value;
}

bool
ReservationTable::canAcquireRead(const ReadStub &stub,
                                 OperationId reader, int slot,
                                 int cycle) const
{
    const CycleState *state = stateAt(cycle);
    if (!state)
        return true;
    // Any write stub on this bus rejects the read outright.
    if (state->wBus.test(stub.bus.index()))
        return false;
    if (!state->rPort.test(stub.readPort.index()) &&
        !state->rBus.test(stub.bus.index()) &&
        !state->rInput.test(stub.input.index())) {
        // No read use shares any resource; the only possible conflict
        // is a same-operand use through a different stub (an identical
        // stub would have set all three bits).
        for (const ReadUse &use : state->reads) {
            if (use.reader == reader && use.slot == slot)
                return false;
        }
        return true;
    }
    for (const ReadUse &use : state->reads) {
        if (use.reader == reader && use.slot == slot) {
            // Same operand: stubs must be identical (then shared).
            if (use.stub != stub)
                return false;
        } else if (readStubsShareResource(use.stub, stub)) {
            return false;
        }
    }
    return true;
}

void
ReservationTable::noteReadUseAdded(CycleState &state,
                                   const ReadStub &stub)
{
    state.rPort.set(stub.readPort.index());
    state.rBus.set(stub.bus.index());
    state.rInput.set(stub.input.index());
    BusState &bs = state.bus[stub.bus.index()];
    if (bs.writeUses + bs.readUses == 0)
        ++state.busesOccupied;
    ++bs.readUses;
}

void
ReservationTable::noteReadUseRemoved(CycleState &state,
                                     const ReadStub &stub)
{
    state.rPort.reset(stub.readPort.index());
    state.rBus.reset(stub.bus.index());
    state.rInput.reset(stub.input.index());
    BusState &bs = state.bus[stub.bus.index()];
    if (--bs.readUses == 0 && bs.writeUses == 0)
        --state.busesOccupied;
}

void
ReservationTable::acquireRead(const ReadStub &stub, OperationId reader,
                              int slot, int cycle)
{
    CS_ASSERT(canAcquireRead(stub, reader, slot, cycle),
              "conflicting read stub acquisition");
    CycleState &state = mutableStateAt(cycle);
    ++state.stubGen;
    for (ReadUse &use : state.reads) {
        if (use.reader == reader && use.slot == slot &&
            use.stub == stub) {
            ++use.refs;
            return;
        }
    }
    state.reads.push_back(ReadUse{stub, reader, slot, 1});
    noteReadUseAdded(state, stub);
}

void
ReservationTable::releaseRead(const ReadStub &stub, OperationId reader,
                              int slot, int cycle)
{
    CycleState &state = mutableStateAt(cycle);
    ++state.stubGen;
    for (std::size_t i = 0; i < state.reads.size(); ++i) {
        ReadUse &use = state.reads[i];
        if (use.stub == stub && use.reader == reader &&
            use.slot == slot) {
            if (--use.refs == 0) {
                state.reads.erase(state.reads.begin() + i);
                noteReadUseRemoved(state, stub);
            }
            return;
        }
    }
    CS_PANIC("releasing unheld read stub");
}

std::uint32_t
ReservationTable::stubGeneration(int cycle) const
{
    const CycleState *state = stateAt(cycle);
    return state ? state->stubGen : 0;
}

void
ReservationTable::fillBusWriteValues(int cycle,
                                     std::vector<ValueId> &out) const
{
    const CycleState *state = stateAt(cycle);
    if (!state) {
        out.assign(machine_->numBuses(), ValueId());
        return;
    }
    out.resize(state->bus.size());
    for (std::size_t b = 0; b < state->bus.size(); ++b)
        out[b] = state->bus[b].value;
}

} // namespace cs
