/**
 * @file
 * Step 5 of communication scheduling: when a closing communication's
 * stubs access different register files, split it with a copy
 * operation (paper Figures 21-24) and schedule the copy inside the
 * communication's copy range. The copy is scheduled through the
 * ordinary placement path, so further copies can be inserted
 * recursively; failures unwind through the caller's snapshot.
 */

#include <algorithm>

#include "core/comm_scheduler.hpp"
#include "support/logging.hpp"
#include "support/trace.hpp"

namespace cs {

bool
BlockScheduler::tryReuseExistingCopy(CommId commId)
{
    const Communication original = comms_.get(commId);
    CS_ASSERT(original.readStub.has_value(), "reuse needs a read stub");
    RegFileId read_rf =
        machine_.readPortRegFile(original.readStub->readPort);
    int reader_ready =
        issueCycleOf(original.reader) + original.distance * ii_;
    int copy_latency = machine_.latency(Opcode::Copy);

    // The scheduled copies of the value are the copy readers of its
    // use list; taking them in operation order keeps the first fit
    // the one a walk over every operation would pick.
    std::vector<OperationId> &copies = reuseScratch_;
    copies.clear();
    for (auto [user, slot] : kernel_.value(original.value).uses) {
        if (slot == 0 && kernel_.operation(user).isCopy() &&
            isScheduled(user)) {
            copies.push_back(user);
        }
    }
    std::sort(copies.begin(), copies.end());

    for (OperationId cand : copies) {
        const Operation &op = kernel_.operation(cand);
        if (issueCycleOf(cand) + copy_latency > reader_ready)
            continue; // arrives too late
        // The copy already broadcasts its result somewhere; add (or
        // share) a write stub into the reader's file.
        const Placement &cp = schedule_.placement(cand);
        int write_cycle = writeStubCycleOf(cand);
        for (const WriteStub &stub : machine_.writeStubs(cp.fu)) {
            if (machine_.writePortRegFile(stub.writePort) != read_rf)
                continue;
            if (!reservations_.canAcquireWrite(stub, op.result,
                                               write_cycle)) {
                continue;
            }
            doRetargetUse(original.reader, original.slot, op.result);
            doDeactivate(commId);
            CommId rerouted =
                doCreateComm(cand, op.result, original.reader,
                             original.slot, original.distance);
            setReadStub(rerouted, original.readStub);
            doAcquireWrite(stub, op.result, write_cycle);
            setWriteStub(rerouted, stub);
            setClosed(rerouted);
            stats_.bump(counter("copies_reused"));
            return true;
        }
    }
    return false;
}

bool
BlockScheduler::insertAndScheduleCopy(CommId commId, int copyDepth)
{
    CS_TRACE_SPAN1("copy_insertion", "depth", copyDepth);
    if (tryReuseExistingCopy(commId))
        return true;
    if (copyDepth >= options_.maxCopyDepth) {
        stats_.bump(counter("copy_depth_exhausted"));
        noteReject(RejectReason::RouteInfeasible);
        return false;
    }

    // Copy the fields we need: inserting operations may reallocate the
    // communication table.
    const Communication original = comms_.get(commId);
    CS_ASSERT(original.writer.valid() && isScheduled(original.writer),
              "copy insertion needs a scheduled writer");
    CS_ASSERT(isScheduled(original.reader),
              "copy insertion needs a scheduled reader");

    // Copy range (Figure 23, same-block case): after the writer
    // completes, early enough that the copy completes before the
    // reader issues (shifted by the carried distance when pipelined).
    int copy_latency = machine_.latency(Opcode::Copy);
    int lo = issueCycleOf(original.writer) + latencyOf(original.writer);
    int hi = issueCycleOf(original.reader) + original.distance * ii_ -
             copy_latency;
    if (lo > hi) {
        stats_.bump(counter("copy_range_empty"));
        noteReject(RejectReason::RouteInfeasible);
        return false;
    }

    // Figure 21 transformation: the reader's operand now consumes the
    // copy's value; the original communication splits in two.
    OperationId copy_op =
        doInsertCopy(original.value, original.reader, original.slot);
    ValueId copy_val = kernel_.operation(copy_op).result;
    doDeactivate(commId);

    // writer -> copy inherits the tentative write stub (the
    // reservation is keyed by (stub, value), both unchanged).
    CommId first = doCreateComm(original.writer, original.value,
                                copy_op, 0, 0);
    setWriteStub(first, original.writeStub);

    // copy -> reader inherits the pinned read stub likewise.
    CommId second = doCreateComm(copy_op, copy_val, original.reader,
                                 original.slot, original.distance);
    setReadStub(second, original.readStub);

    stats_.bump(counter("copies_inserted"));

    // Schedule the copy like any other operation (Section 4.3 step 5);
    // its own communication scheduling closes both halves, recursing
    // if the route still cannot be formed in one hop. The copy gets a
    // small sub-budget so a hopeless insertion fails fast and the
    // outer operation can try a later cycle instead.
    std::uint64_t saved_cap = attemptCap_;
    attemptCap_ = std::min(attemptCap_,
                           attemptsThisOp_ + options_.copyAttemptBudget);
    bool ok = scheduleOp(copy_op, lo, hi, copyDepth + 1);
    attemptCap_ = saved_cap;
    if (ok)
        return true;
    stats_.bump(counter("copy_schedule_failures"));
    if (!aborted_)
        noteReject(RejectReason::RouteInfeasible);
    return false;
}

} // namespace cs
