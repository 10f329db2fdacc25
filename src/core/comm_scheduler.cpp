#include "core/comm_scheduler.hpp"

#include <algorithm>
#include <climits>

#include "support/logging.hpp"
#include "support/trace.hpp"

namespace cs {

BlockScheduler::BlockScheduler(Kernel kernel, BlockId block,
                               const Machine &machine,
                               const SchedulerOptions &options, int ii)
    : kernel_(std::move(kernel)),
      block_(block),
      machine_(machine),
      options_(options),
      ii_(ii),
      ownedCtx_(std::make_unique<BlockSchedulingContext>(kernel_, block,
                                                         machine)),
      ctx_(ownedCtx_.get()),
      ddg_(ctx_->ddg()),
      schedule_(block, ii),
      reservations_(machine, ii)
{
    CS_ASSERT(ii >= 0, "negative initiation interval");
}

BlockScheduler::BlockScheduler(const BlockSchedulingContext &context,
                               const SchedulerOptions &options, int ii)
    : kernel_(context.kernel()),
      block_(context.block()),
      machine_(context.machine()),
      options_(options),
      ii_(ii),
      ctx_(&context),
      ddg_(ctx_->ddg()),
      schedule_(context.block(), ii),
      reservations_(context.machine(), ii)
{
    CS_ASSERT(ii >= 0, "negative initiation interval");
}

int
BlockScheduler::latencyOf(OperationId op) const
{
    return machine_.latency(kernel_.operation(op).opcode);
}

bool
BlockScheduler::isScheduled(OperationId op) const
{
    return schedule_.isScheduled(op);
}

int
BlockScheduler::issueCycleOf(OperationId op) const
{
    const Placement &p = schedule_.placement(op);
    CS_ASSERT(p.scheduled, "issue cycle of unscheduled op");
    return p.cycle;
}

int
BlockScheduler::writeStubCycleOf(OperationId op) const
{
    return issueCycleOf(op) + latencyOf(op) - 1;
}

void
BlockScheduler::undoTo(UndoLog::Mark mark)
{
    log_.unwindTo(mark, [&](const UndoEntry &entry) {
        switch (entry.kind) {
          case UndoEntry::Kind::Placed: {
            reservations_.releaseFu(entry.fu, entry.cycle, entry.op);
            schedule_.unplace(entry.op);
            std::vector<OperationId> &row =
                placedByWriteRow_[static_cast<std::size_t>(
                    writeRowOf(entry.op, entry.cycle))];
            CS_ASSERT(!row.empty() && row.back() == entry.op,
                      "write-row index out of sync");
            row.pop_back();
            break;
          }
          case UndoEntry::Kind::ReadAcquired:
            reservations_.releaseRead(entry.readStub, entry.op,
                                      entry.slot, entry.cycle);
            break;
          case UndoEntry::Kind::ReadReleased:
            reservations_.acquireRead(entry.readStub, entry.op,
                                      entry.slot, entry.cycle);
            break;
          case UndoEntry::Kind::WriteAcquired:
            reservations_.releaseWrite(entry.writeStub, entry.value,
                                       entry.cycle);
            break;
          case UndoEntry::Kind::WriteReleased:
            reservations_.acquireWrite(entry.writeStub, entry.value,
                                       entry.cycle);
            break;
          case UndoEntry::Kind::ReadStubSet:
            comms_.get(entry.comm).readStub = entry.prevRead;
            break;
          case UndoEntry::Kind::WriteStubSet:
            comms_.get(entry.comm).writeStub = entry.prevWrite;
            break;
          case UndoEntry::Kind::ClosedSet:
            comms_.get(entry.comm).closed = false;
            break;
          case UndoEntry::Kind::CommCreated:
            comms_.removeLast(entry.comm);
            break;
          case UndoEntry::Kind::CommDeactivated:
            comms_.reactivate(entry.comm);
            break;
          case UndoEntry::Kind::CopyInserted:
            kernel_.removeLastCopy(entry.op);
            stats_.bump(counter("copies_unwound"));
            break;
          case UndoEntry::Kind::UseRetargeted:
            kernel_.retargetUse(entry.op, entry.slot, entry.value);
            break;
        }
    });
}

int
BlockScheduler::writeRowOf(OperationId op, int cycle) const
{
    return reservations_.norm(cycle + latencyOf(op) - 1);
}

void
BlockScheduler::doPlace(OperationId op, int cycle, FuncUnitId fu)
{
    reservations_.acquireFu(fu, cycle, op);
    schedule_.place(op, cycle, fu);
    auto row = static_cast<std::size_t>(writeRowOf(op, cycle));
    if (row >= placedByWriteRow_.size())
        placedByWriteRow_.resize(row + 1);
    placedByWriteRow_[row].push_back(op);
    UndoEntry entry{};
    entry.kind = UndoEntry::Kind::Placed;
    entry.fu = fu;
    entry.op = op;
    entry.cycle = cycle;
    log_.push(entry);
}

void
BlockScheduler::doAcquireRead(const ReadStub &stub, OperationId reader,
                              int slot, int cycle)
{
    reservations_.acquireRead(stub, reader, slot, cycle);
    stats_.bump(counter("table_acquires"));
    UndoEntry entry{};
    entry.kind = UndoEntry::Kind::ReadAcquired;
    entry.readStub = stub;
    entry.op = reader;
    entry.slot = slot;
    entry.cycle = cycle;
    log_.push(entry);
}

void
BlockScheduler::doReleaseRead(const ReadStub &stub, OperationId reader,
                              int slot, int cycle)
{
    reservations_.releaseRead(stub, reader, slot, cycle);
    stats_.bump(counter("table_releases"));
    UndoEntry entry{};
    entry.kind = UndoEntry::Kind::ReadReleased;
    entry.readStub = stub;
    entry.op = reader;
    entry.slot = slot;
    entry.cycle = cycle;
    log_.push(entry);
}

void
BlockScheduler::doAcquireWrite(const WriteStub &stub, ValueId value,
                               int cycle)
{
    reservations_.acquireWrite(stub, value, cycle);
    stats_.bump(counter("table_acquires"));
    UndoEntry entry{};
    entry.kind = UndoEntry::Kind::WriteAcquired;
    entry.writeStub = stub;
    entry.value = value;
    entry.cycle = cycle;
    log_.push(entry);
}

void
BlockScheduler::setReadStub(CommId id, std::optional<ReadStub> stub)
{
    Communication &comm = comms_.get(id);
    UndoEntry entry{};
    entry.kind = UndoEntry::Kind::ReadStubSet;
    entry.comm = id;
    entry.prevRead = comm.readStub;
    log_.push(entry);
    comm.readStub = stub;
}

void
BlockScheduler::setWriteStub(CommId id, std::optional<WriteStub> stub)
{
    Communication &comm = comms_.get(id);
    UndoEntry entry{};
    entry.kind = UndoEntry::Kind::WriteStubSet;
    entry.comm = id;
    entry.prevWrite = comm.writeStub;
    log_.push(entry);
    comm.writeStub = stub;
}

void
BlockScheduler::setClosed(CommId id)
{
    Communication &comm = comms_.get(id);
    CS_ASSERT(!comm.closed, "communication already closed");
    comm.closed = true;
    UndoEntry entry{};
    entry.kind = UndoEntry::Kind::ClosedSet;
    entry.comm = id;
    log_.push(entry);
}

CommId
BlockScheduler::doCreateComm(OperationId writer, ValueId value,
                             OperationId reader, int slot, int distance)
{
    CommId id = comms_.create(writer, value, reader, slot, distance);
    UndoEntry entry{};
    entry.kind = UndoEntry::Kind::CommCreated;
    entry.comm = id;
    log_.push(entry);
    return id;
}

void
BlockScheduler::doDeactivate(CommId id)
{
    comms_.deactivate(id);
    UndoEntry entry{};
    entry.kind = UndoEntry::Kind::CommDeactivated;
    entry.comm = id;
    log_.push(entry);
}

void
BlockScheduler::doRetargetUse(OperationId user, int slot, ValueId to)
{
    ValueId from = kernel_.operation(user).operands[slot].value;
    kernel_.retargetUse(user, slot, to);
    UndoEntry entry{};
    entry.kind = UndoEntry::Kind::UseRetargeted;
    entry.op = user;
    entry.slot = slot;
    entry.value = from; // restore target
    log_.push(entry);
}

OperationId
BlockScheduler::doInsertCopy(ValueId value, OperationId reader, int slot)
{
    OperationId copy_op =
        kernel_.insertCopy(block_, value, {{reader, slot}});
    UndoEntry entry{};
    entry.kind = UndoEntry::Kind::CopyInserted;
    entry.op = copy_op;
    log_.push(entry);
    return copy_op;
}

void
BlockScheduler::noteReject(RejectReason reason)
{
    stats_.bump(kRejectCounters[static_cast<std::size_t>(reason)]);
#ifndef CS_TRACE_DISABLED
    if (trace::enabled()) {
        // One interned event name per reason ("reject.bus_conflict",
        // ...), resolved once for the whole process.
        static const auto ids = [] {
            std::array<std::uint16_t, kNumRejectReasons> out{};
            for (std::size_t i = 0; i < kNumRejectReasons; ++i) {
                out[i] = trace::internName(
                    std::string("reject.") + kRejectReasonNames[i]);
            }
            return out;
        }();
        trace::emitInstant(ids[static_cast<std::size_t>(reason)]);
    }
#endif
}

ScheduleResult
BlockScheduler::run()
{
    CS_TRACE_SPAN1("schedule_block", "ii", ii_);
    ScheduleResult result{false, "", Kernel("moved-out"),
                          BlockSchedule(block_, ii_), CounterSet{}};

    const std::vector<OperationId> &order =
        ctx_->scheduleOrder(options_.operationOrder);
    bool ok = true;
    for (OperationId op : order) {
        CS_TRACE_SPAN1("schedule_op", "op", op.index());
        attemptsThisOp_ = 0;
        attemptCap_ = options_.perOpAttemptBudget;
        if (!scheduleOp(op, 0, INT_MAX, 0)) {
            if (aborted_) {
                failure_ = "cancelled";
                result.cancelled = true;
            } else if (failure_.empty()) {
                failure_ = "could not schedule operation " +
                           kernel_.operation(op).name;
            }
            ok = false;
            break;
        }
        stats_.bump(counter("ops_scheduled"));
    }

    if (ok) {
        for (const Communication &comm : comms_.all()) {
            if (!comm.active)
                continue;
            CS_ASSERT(comm.closed, "open communication at completion");
            RouteRecord route;
            route.writer = comm.writer;
            route.value = comm.value;
            route.reader = comm.reader;
            route.slot = comm.slot;
            route.distance = comm.distance;
            route.writeStub = comm.writeStub;
            CS_ASSERT(comm.readStub.has_value(),
                      "closed communication without read stub");
            route.readStub = *comm.readStub;
            schedule_.addRoute(route);
        }
    }

    result.success = ok;
    result.failure = failure_;
    result.kernel = std::move(kernel_);
    result.schedule = std::move(schedule_);
    result.stats = stats_;
    return result;
}

int
BlockScheduler::earliestCycle(OperationId op) const
{
    const Operation &operation = kernel_.operation(op);
    int earliest = 0;

    for (const Operand &operand : operation.operands) {
        if (!operand.isValue())
            continue;
        OperationId def = kernel_.value(operand.value).def;
        const Operation &producer = kernel_.operation(def);
        if (producer.block != block_)
            continue; // live-in from a preamble block
        if (ii_ == 0 && operand.distance > 0)
            continue; // plain schedule: previous iteration done
        if (!isScheduled(def))
            continue; // bound applies once the producer lands
        int ready = issueCycleOf(def) + latencyOf(def) -
                    operand.distance * ii_;
        earliest = std::max(earliest, ready);
    }

    // Memory-ordering predecessors (original operations only; copies
    // never carry memory edges).
    if (!operation.isCopy()) {
        int index = ddg_.indexOf(op);
        for (int e : ddg_.predEdgesOf(index)) {
            const DepEdge &edge = ddg_.edge(e);
            if (edge.kind != DepEdge::Kind::Memory)
                continue;
            if (!isScheduled(edge.from))
                continue;
            int ready = issueCycleOf(edge.from) + edge.latency -
                        edge.distance * ii_;
            earliest = std::max(earliest, ready);
        }
    }
    return earliest;
}

int
BlockScheduler::latestCycle(OperationId op) const
{
    if (ii_ == 0)
        return INT_MAX;
    const Operation &operation = kernel_.operation(op);
    int latest = INT_MAX;
    if (operation.hasResult()) {
        for (auto [reader, slot] : kernel_.value(operation.result).uses) {
            const Operation &consumer = kernel_.operation(reader);
            if (consumer.block != block_ || !isScheduled(reader))
                continue;
            int distance = consumer.operands[slot].distance;
            latest = std::min(latest, issueCycleOf(reader) +
                                          distance * ii_ -
                                          latencyOf(op));
        }
    }
    return latest;
}

bool
BlockScheduler::scheduleOp(OperationId op, int rangeLo, int rangeHi,
                           int copyDepth)
{
    // Self-recurrence feasibility: an operation consuming its own
    // result from distance d back needs d * ii >= latency, whatever
    // the cycle. (Mutual recurrences are bounded via latestCycle.)
    if (ii_ > 0) {
        const Operation &operation = kernel_.operation(op);
        for (const Operand &operand : operation.operands) {
            if (operand.isValue() && operation.hasResult() &&
                operand.value == operation.result &&
                operand.distance * ii_ < latencyOf(op)) {
                return false;
            }
        }
    }

    int lo = std::max(earliestCycle(op), rangeLo);
    int window = ii_ > 0 ? options_.moduloWindowFactor * ii_
                         : options_.maxDelay;
    long hi_long = std::min<long>(
        {static_cast<long>(latestCycle(op)),
         static_cast<long>(rangeHi),
         static_cast<long>(lo) + window - 1});
    for (int cycle = lo; cycle <= hi_long; ++cycle) {
        for (FuncUnitId fu : unitChoices(op, cycle, copyDepth)) {
            if (++attemptsThisOp_ > attemptCap_) {
                stats_.bump(counter("attempt_budget_exhausted"));
                noteReject(RejectReason::BudgetExhausted);
                return false;
            }
            if (abortRequested())
                return false;
            stats_.bump(counter("placement_attempts"));
            if (tryPlace(op, cycle, fu, copyDepth))
                return true;
            if (lastFailureCycleLevel_)
                break; // completion cycle saturated: next cycle
        }
    }
    return false;
}

std::span<const FuncUnitId>
BlockScheduler::unitChoices(OperationId op, int cycle,
                            int copyDepth) const
{
    const Operation &operation = kernel_.operation(op);
    std::vector<FuncUnitId> &choices = driverFrame(copyDepth).choices;
    choices.clear();
    for (FuncUnitId fu : machine_.unitsForOpcode(operation.opcode)) {
        if (reservations_.fuFree(fu, cycle))
            choices.push_back(fu);
    }

    // A copy must run on a unit that can read its operand from a
    // register file the producer can write (directly, or after the
    // producer's tentative stub is retargeted). A unit that cannot
    // would need a copy to feed the copy — a recursion the engine
    // forbids (closeRoutes fails instead); the placement loop then
    // simply tries a later cycle for a reachable unit.
    if (operation.isCopy() && operation.operands[0].isValue()) {
        OperationId producer =
            kernel_.value(operation.operands[0].value).def;
        if (isScheduled(producer)) {
            const auto &writable = machine_.writableRegFiles(
                schedule_.placement(producer).fu);
            std::size_t keep = 0;
            for (FuncUnitId fu : choices) {
                const auto &readable = machine_.readableAnySlot(fu);
                bool ok = false;
                for (RegFileId rf : writable) {
                    if (std::find(readable.begin(), readable.end(),
                                  rf) != readable.end()) {
                        ok = true;
                        break;
                    }
                }
                if (ok)
                    choices[keep++] = fu;
            }
            choices.resize(keep);
        }

        // Rank remaining choices. Primary: units that can read a file
        // the value already (tentatively) lands in — the feed
        // communication then closes by sharing the existing write
        // stub, with no retargeting of the producer at all. Secondary:
        // least-pressured class, so a copy on a saturated class (e.g.
        // the multipliers when one issues every cycle) does not steal
        // an issue slot the schedule cannot spare.
        std::vector<RegFileId> &residences =
            driverFrame(copyDepth).residences;
        valueResidences(operation.operands[0].value, residences);
        auto reads_residence = [&](FuncUnitId fu) {
            const auto &readable = machine_.readableAnySlot(fu);
            for (RegFileId rf : residences) {
                if (std::find(readable.begin(), readable.end(), rf) !=
                    readable.end()) {
                    return 0;
                }
            }
            return 1;
        };
        const auto &pressure = ctx_->classPressure();
        auto pressure_of = [&](FuncUnitId fu) {
            const FuncUnit &unit = machine_.funcUnit(fu);
            double worst = 0.0;
            for (std::size_t c = 0; c < kNumOpClasses; ++c) {
                if (c == static_cast<std::size_t>(OpClass::CopyCls))
                    continue;
                if (unit.classes.test(c))
                    worst = std::max(worst, pressure[c]);
            }
            return worst;
        };
        std::stable_sort(
            choices.begin(), choices.end(),
            [&](FuncUnitId a, FuncUnitId b) {
                int ra = reads_residence(a), rb = reads_residence(b);
                if (ra != rb)
                    return ra < rb;
                return pressure_of(a) < pressure_of(b);
            });
        return choices;
    }
    if (choices.size() > 1) {
        // Tie-break by a per-operation rotation so consumers spread
        // across units (and therefore across input register files and
        // their single write ports) instead of piling onto unit zero.
        auto rotation = [&](FuncUnitId fu) {
            auto n = static_cast<std::uint32_t>(choices.size());
            return (fu.index() + n - op.index() % n) % n;
        };
        auto &ranked = driverFrame(copyDepth).ranked;
        ranked.clear();
        ranked.reserve(choices.size());
        for (FuncUnitId fu : choices) {
            double cost = options_.commCostHeuristic
                              ? commCost(op, fu, cycle)
                              : 0.0;
            ranked.push_back({{cost, rotation(fu)}, fu});
        }
        std::stable_sort(ranked.begin(), ranked.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        for (std::size_t i = 0; i < ranked.size(); ++i)
            choices[i] = ranked[i].second;
    }
    return choices;
}

bool
BlockScheduler::tryPlace(OperationId op, int cycle, FuncUnitId fu,
                         int copyDepth)
{
    UndoLog::Mark mark = log_.mark();
    doPlace(op, cycle, fu);
    if (commSchedule(op, cycle, fu, copyDepth))
        return true;
    undoTo(mark);
    return false;
}

void
BlockScheduler::createCommsFor(OperationId op)
{
    const Operation &operation = kernel_.operation(op);

    // Communications to this operation (one per value operand).
    for (std::size_t s = 0; s < operation.operands.size(); ++s) {
        const Operand &operand = operation.operands[s];
        if (!operand.isValue())
            continue;
        if (comms_.find(op, static_cast<int>(s)).valid())
            continue;
        OperationId def = kernel_.value(operand.value).def;
        const Operation &producer = kernel_.operation(def);
        bool live_in = producer.block != block_ ||
                       (ii_ == 0 && operand.distance > 0);
        doCreateComm(live_in ? OperationId() : def, operand.value, op,
                     static_cast<int>(s), operand.distance);
    }

    // Communications from this operation (one per same-block use).
    if (operation.hasResult()) {
        for (auto [reader, slot] : kernel_.value(operation.result).uses) {
            const Operation &consumer = kernel_.operation(reader);
            if (consumer.block != block_)
                continue; // live-out: the preamble machinery's problem
            int distance = consumer.operands[slot].distance;
            if (ii_ == 0 && distance > 0)
                continue; // consumer sees a live-in instead
            if (comms_.find(reader, slot).valid())
                continue;
            doCreateComm(op, operation.result, reader, slot, distance);
        }
    }
}

void
BlockScheduler::commsReadingAt(int cycle, std::vector<CommId> &out) const
{
    out.clear();
    for (auto [fu, reader] : reservations_.issuedAt(cycle)) {
        for (CommId id : comms_.readBy(reader)) {
            const Communication &comm = comms_.get(id);
            if (comm.active && !comm.closed)
                out.push_back(id);
        }
    }
}

void
BlockScheduler::commsWritingAt(int cycle, std::vector<CommId> &out) const
{
    out.clear();
    auto row = static_cast<std::size_t>(reservations_.norm(cycle));
    if (row >= placedByWriteRow_.size())
        return;
    for (OperationId writer : placedByWriteRow_[row]) {
        for (CommId id : comms_.writtenBy(writer)) {
            const Communication &comm = comms_.get(id);
            if (comm.active && !comm.closed)
                out.push_back(id);
        }
    }
}

void
BlockScheduler::valueResidences(ValueId value,
                                std::vector<RegFileId> &residences) const
{
    // Only the value's definition writes it: live-ins carry no write
    // stub, and a copy writes its own result, not its operand.
    residences.clear();
    for (CommId id : comms_.writtenBy(kernel_.value(value).def)) {
        const Communication &comm = comms_.get(id);
        if (!comm.active || !comm.writeStub)
            continue;
        RegFileId rf =
            machine_.writePortRegFile(comm.writeStub->writePort);
        if (std::find(residences.begin(), residences.end(), rf) ==
            residences.end()) {
            residences.push_back(rf);
        }
    }
}

bool
BlockScheduler::commSchedule(OperationId op, int cycle, FuncUnitId fu,
                             int copyDepth)
{
    (void)fu;
    lastFailureCycleLevel_ = false;
    createCommsFor(op);

    // Steps 2 and 3: non-conflicting stub permutations for the issue
    // cycle's reads and the completion cycle's writes.
    if (!permuteReadStubs(cycle)) {
        stats_.bump(counter("read_perm_failures"));
        return false;
    }
    if (kernel_.operation(op).hasResult() &&
        !permuteWriteStubs(cycle + latencyOf(op) - 1)) {
        stats_.bump(counter("write_perm_failures"));
        lastFailureCycleLevel_ = true;
        return false;
    }

    // Steps 4 and 5: close every communication whose second endpoint
    // this placement supplies.
    if (!closeRoutes(op, copyDepth)) {
        stats_.bump(counter("route_close_failures"));
        // Nested copy scheduling may have set the cycle-level flag for
        // *its* cycles; this failure is specific to (cycle, fu).
        lastFailureCycleLevel_ = false;
        return false;
    }
    return true;
}

bool
BlockScheduler::closeRoutes(OperationId op, int copyDepth)
{
    // Gather this operation's closing communications: reads whose
    // writer is placed (or live-ins), then writes whose reader is
    // placed, each in id order (the stable sort below keeps it among
    // equal copy ranges), into the depth's reusable frame.
    std::vector<CommId> &closing = driverFrame(copyDepth).closing;
    closing.clear();
    for (CommId id : comms_.readBy(op)) {
        const Communication &comm = comms_.get(id);
        if (!comm.active || comm.closed)
            continue;
        if (comm.isLiveIn() || isScheduled(comm.writer))
            closing.push_back(id);
    }
    for (CommId id : comms_.writtenBy(op)) {
        const Communication &comm = comms_.get(id);
        if (!comm.active || comm.closed)
            continue;
        if (isScheduled(comm.reader) && comm.reader != op)
            closing.push_back(id);
    }

    // Smallest copy range first: those have the least room to recover,
    // so they get first pick of the interconnect (Section 4.4).
    auto copy_range = [&](CommId id) {
        const Communication &comm = comms_.get(id);
        if (comm.isLiveIn())
            return INT_MAX;
        return issueCycleOf(comm.reader) + comm.distance * ii_ -
               (issueCycleOf(comm.writer) + latencyOf(comm.writer));
    };
    std::stable_sort(closing.begin(), closing.end(),
                     [&](CommId a, CommId b) {
                         return copy_range(a) < copy_range(b);
                     });

    for (CommId id : closing) {
        // Note: take no long-lived reference; copy insertion for an
        // earlier communication in this list may grow the table.
        {
            const Communication &comm = comms_.get(id);
            CS_ASSERT(comm.readStub.has_value(),
                      "closing communication lacks a read stub");
            if (comm.isLiveIn()) {
                setClosed(id); // value pre-placed by the preamble
                continue;
            }
            CS_ASSERT(comm.writeStub.has_value(),
                      "closing communication lacks a write stub");
            RegFileId read_rf =
                machine_.readPortRegFile(comm.readStub->readPort);
            RegFileId write_rf =
                machine_.writePortRegFile(comm.writeStub->writePort);
            if (write_rf == read_rf) {
                setClosed(id);
                continue;
            }
        }
        // Step 4 second chance: move the far side's tentative stub so
        // the stubs meet in one register file.
        {
            Communication &comm = comms_.get(id);
            RegFileId read_rf =
                machine_.readPortRegFile(comm.readStub->readPort);
            RegFileId write_rf =
                machine_.writePortRegFile(comm.writeStub->writePort);
            if (tryRetargetWriteSide(comm, read_rf) ||
                tryRetargetReadSide(comm, write_rf)) {
                const Communication &fresh = comms_.get(id);
                read_rf = machine_.readPortRegFile(
                    fresh.readStub->readPort);
                write_rf = machine_.writePortRegFile(
                    fresh.writeStub->writePort);
                if (write_rf == read_rf) {
                    stats_.bump(counter("stub_retargets"));
                    setClosed(id);
                    continue;
                }
            }
        }
        // Step 5: connect the stubs with a copy operation. Never
        // insert a copy to feed another copy: a copy that cannot read
        // its operand directly was mis-placed, and failing here sends
        // the placement loop to a cycle where its home unit is free.
        if (kernel_.operation(comms_.get(id).reader).isCopy()) {
            stats_.bump(counter("copy_feed_unroutable"));
            noteReject(RejectReason::RouteInfeasible);
            return false;
        }
        if (!insertAndScheduleCopy(id, copyDepth))
            return false;
    }
    return true;
}

} // namespace cs
