/**
 * @file
 * Steps 1-3 of communication scheduling: candidate stub enumeration
 * and the bounded backtracking permutation search of Section 4.4, plus
 * the step-4 retargeting entry points.
 *
 * The search satisfies the paper's two sufficiency requirements: a
 * lone communication always finds a stub (candidates are never empty
 * on a copy-connected machine), and the search is repeatable (it is
 * deterministic, and previous assignments are restored verbatim on
 * failure). Closing communications are ordered before open ones,
 * smallest copy range first.
 *
 * Everything here runs inside the placement loop, so it works out of
 * pooled scratch buffers (no allocation per probe) and cuts DFS
 * branches with O(1) bus-occupancy checks before paying for a full
 * reservation probe. Every cut is a pure subset of what the probe
 * would reject.
 *
 * The write search pays only for what it examines (DESIGN.md §5d):
 * candidate lists are cursors that emit one bus at a time; a row
 * whose leading levels still hold their rank-0 stubs resumes after
 * them instead of releasing and re-picking them; and the trial
 * acquires and releases go straight to the reservation table, with
 * only the net change journaled. Each shortcut charges the budget and
 * the counters exactly what the from-scratch search would, so the
 * chosen permutations — and the final schedules and search counters —
 * are unchanged (tests/test_sched_equivalence.cpp pins both).
 */

#include <algorithm>
#include <climits>
#include <utility>

#include "core/comm_scheduler.hpp"
#include "support/logging.hpp"
#include "support/trace.hpp"

namespace cs {

namespace {

/**
 * Packed ordering key: closing communications first (bit 32 clear),
 * tightest copy range first (range sign-flipped into the low 32 bits
 * so signed order becomes unsigned order). Ties broken by id, making
 * keys unique — a plain sort over (key, id) reproduces what a stable
 * sort over (closing, range) produced, with the key computed once per
 * communication instead of once per comparison.
 */
std::uint64_t
packCommOrderKey(bool open, int copyRange)
{
    return (static_cast<std::uint64_t>(open) << 32) |
           (static_cast<std::uint32_t>(copyRange) ^ 0x80000000u);
}

} // namespace

BlockScheduler::ScratchGuard::ScratchGuard(BlockScheduler &owner)
    : owner_(owner),
      sc(*[&]() -> PermScratch * {
          if (owner.permDepth_ == owner.permPool_.size())
              owner.permPool_.push_back(
                  std::make_unique<PermScratch>());
          return owner.permPool_[owner.permDepth_++].get();
      }())
{}

BlockScheduler::ScratchGuard::~ScratchGuard()
{
    --owner_.permDepth_;
}

std::span<const ReadStub>
BlockScheduler::readCandidatesFor(const Communication &comm,
                                  std::vector<ReadStub> &storage) const
{
    const Placement &rp = schedule_.placement(comm.reader);
    CS_ASSERT(rp.scheduled, "read candidates need a placed reader");
    // A copy fetches its operand through any input of its unit.
    const std::vector<ReadStub> &all =
        kernel_.operation(comm.reader).isCopy()
            ? machine_.readStubsAnySlot(rp.fu)
            : machine_.readStubs(rp.fu, comm.slot);

    bool closing = comm.isLiveIn() ||
                   (comm.writer.valid() && isScheduled(comm.writer));
    if (!closing || comm.isLiveIn()) {
        // Open or live-in: keep machine order, but prefer the current
        // assignment for stability across re-permutations. When there
        // is no current assignment — or it already heads the list —
        // the machine's own list has the right order verbatim.
        if (!comm.readStub || (!all.empty() && all.front() == *comm.readStub))
            return all;
        storage.clear();
        storage.push_back(*comm.readStub);
        for (const ReadStub &stub : all) {
            if (stub != *comm.readStub)
                storage.push_back(stub);
        }
        return storage;
    }

    // Closing: prefer stubs that form a route with the writer's
    // tentative write stub, then files the writer could retarget to,
    // then by copy distance.
    const Placement &wp = schedule_.placement(comm.writer);
    RegFileId current_write_rf;
    if (comm.writeStub)
        current_write_rf =
            machine_.writePortRegFile(comm.writeStub->writePort);
    const InlineBitset &writable_mask = machine_.writableMask(wp.fu);

    // Rank depends only on the stub's register file; the copy-distance
    // minimum over the writer's files is a shared-context table lookup.
    auto rank_of = [&](RegFileId rf) {
        if (rf == current_write_rf)
            return 0;
        if (writable_mask.test(rf.index()))
            return 1;
        return 2 + ctx_->minCopiesFromFu(wp.fu, rf);
    };

    auto &ranked = rankedRead_;
    ranked.clear();
    ranked.reserve(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        auto r = static_cast<std::uint64_t>(static_cast<std::uint32_t>(
            rank_of(machine_.readPortRegFile(all[i].readPort))));
        ranked.emplace_back((r << 32) | i, all[i]);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    storage.clear();
    storage.reserve(ranked.size());
    for (auto &[r, stub] : ranked)
        storage.push_back(stub);
    return storage;
}

const BlockScheduler::WriteEmitPlan &
BlockScheduler::openWritePlan(std::span<const std::uint8_t> codes,
                              FuncUnitId fu) const
{
    auto [it, fresh] =
        writePlans_.try_emplace(WritePlanKey{codes.data(), fu.index()});
    WriteEmitPlan &plan = it->second;
    if (!fresh)
        return plan;
    const std::vector<WriteStub> &all = machine_.writeStubs(fu);
    const auto &groups = machine_.writeStubsByBus(fu);
    std::size_t n = machine_.numBuses();
    plan.stubs.reserve(all.size());
    for (std::size_t b = 0; b < n; ++b) {
        auto first_run = static_cast<std::uint32_t>(plan.runs.size());
        // Reachable stubs of the bus first, then serviceable-only:
        // within a bucket the unplanned loop keeps one bus's stubs in
        // list order, and no bucket mixes the two classes (reachable
        // ranks 0-3 and serviceable ranks 4-7 are disjoint), so the
        // regrouping never reorders a bucket.
        auto begin = static_cast<std::uint32_t>(plan.stubs.size());
        for (std::uint32_t idx : groups[b]) {
            std::uint8_t cls =
                codes[machine_.writePortRegFile(all[idx].writePort)
                          .index()];
            if (cls == BlockSchedulingContext::kStubPruned)
                ++plan.pruned;
            else if (cls == BlockSchedulingContext::kStubReachable)
                plan.stubs.push_back(all[idx]);
        }
        auto mid = static_cast<std::uint32_t>(plan.stubs.size());
        for (std::uint32_t idx : groups[b]) {
            std::uint8_t cls =
                codes[machine_.writePortRegFile(all[idx].writePort)
                          .index()];
            if (cls == BlockSchedulingContext::kStubServiceableOnly)
                plan.stubs.push_back(all[idx]);
        }
        auto end = static_cast<std::uint32_t>(plan.stubs.size());
        if (mid > begin)
            plan.runs.push_back({3, begin, mid});
        if (end > mid)
            plan.runs.push_back({7, mid, end});
        auto end_run = static_cast<std::uint32_t>(plan.runs.size());
        if (end_run > first_run) {
            plan.buses.push_back({static_cast<std::uint32_t>(b),
                                  first_run, end_run});
        }
    }
    return plan;
}

const BlockScheduler::WriteEmitPlan &
BlockScheduler::closeWritePlan(std::span<const std::uint16_t> base,
                               FuncUnitId fu) const
{
    auto [it, fresh] =
        writePlans_.try_emplace(WritePlanKey{base.data(), fu.index()});
    WriteEmitPlan &plan = it->second;
    if (!fresh)
        return plan;
    const std::vector<WriteStub> &all = machine_.writeStubs(fu);
    const auto &groups = machine_.writeStubsByBus(fu);
    std::size_t n = machine_.numBuses();
    plan.stubs.reserve(all.size());
    // Group one bus's stubs by base rank, each group in list order
    // (run order within a bus is irrelevant: every run feeds its own
    // bucket). Quadratic in the bus's stub count with tiny factors,
    // and paid once per (read file, unit) pair.
    for (std::size_t b = 0; b < n; ++b) {
        auto first_run = static_cast<std::uint32_t>(plan.runs.size());
        const std::vector<std::uint32_t> &group = groups[b];
        for (std::size_t i = 0; i < group.size(); ++i) {
            std::uint16_t rank =
                base[machine_
                         .writePortRegFile(all[group[i]].writePort)
                         .index()];
            bool seen = false;
            for (std::size_t j = 0; j < i && !seen; ++j) {
                seen = base[machine_
                                .writePortRegFile(
                                    all[group[j]].writePort)
                                .index()] == rank;
            }
            if (seen)
                continue;
            auto begin = static_cast<std::uint32_t>(plan.stubs.size());
            for (std::size_t j = i; j < group.size(); ++j) {
                if (base[machine_
                             .writePortRegFile(
                                 all[group[j]].writePort)
                             .index()] == rank) {
                    plan.stubs.push_back(all[group[j]]);
                }
            }
            auto end = static_cast<std::uint32_t>(plan.stubs.size());
            plan.runs.push_back({rank, begin, end});
        }
        auto end_run = static_cast<std::uint32_t>(plan.runs.size());
        if (end_run > first_run) {
            plan.buses.push_back({static_cast<std::uint32_t>(b),
                                  first_run, end_run});
        }
    }
    return plan;
}

std::span<const std::uint8_t>
BlockScheduler::openCodesFor(const Communication &comm) const
{
    const Operation &consumer = kernel_.operation(comm.reader);
    if (isScheduled(comm.reader)) {
        FuncUnitId fu = schedule_.placement(comm.reader).fu;
        return consumer.isCopy() ? ctx_->openCodesScheduledCopy(fu)
                                 : ctx_->openCodesScheduled(fu, comm.slot);
    }
    return consumer.isCopy()
               ? ctx_->openCodesUnscheduledCopy()
               : ctx_->openCodesUnscheduled(consumer.opcode, comm.slot);
}

void
BlockScheduler::openWriteCursor(WriteCursor &cursor,
                                const Communication &comm, int cycle,
                                const std::vector<ValueId> &busValues,
                                RegFileId wantRf) const
{
    CS_ASSERT(comm.writer.valid(), "write candidates need a writer");
    const Placement &wp = schedule_.placement(comm.writer);
    CS_ASSERT(wp.scheduled, "write candidates need a placed writer");

    // Finite copy distances are bounded by the register-file count, so
    // every rank above `overflow` is the single kUnreachable sentinel.
    const int overflow = static_cast<int>(machine_.numRegFiles()) + 3;
    cursor.left.assign(static_cast<std::size_t>(std::max(overflow, 7)) + 1,
                       0);
    cursor.machine = &machine_;
    cursor.wantRf = wantRf;
    cursor.stubRank.clear();
    cursor.out.clear();
    cursor.rank = 0;
    cursor.step = 0;

    bool closing = isScheduled(comm.reader) && comm.readStub.has_value();
    const WriteEmitPlan *plan;
    if (closing) {
        // Base ranks against the read file are a context table row;
        // only the bus-sharing preference (rank 0 vs 1 in the same
        // file) depends on live state, and it is uniform across a bus.
        RegFileId read_rf =
            machine_.readPortRegFile(comm.readStub->readPort);
        plan = &closeWritePlan(ctx_->closeBaseRow(read_rf), wp.fu);
        cursor.runRank.resize(plan->runs.size());
        for (const WriteEmitPlan::BusRuns &br : plan->buses) {
            bool carrying = busValues[br.bus] == comm.value;
            for (std::uint32_t r = br.firstRun; r < br.endRun; ++r) {
                const WriteEmitPlan::Run &run = plan->runs[r];
                std::uint16_t rank =
                    run.rank == BlockSchedulingContext::kSameFile
                        ? (carrying ? 0 : 1)
                        : run.rank;
                cursor.runRank[r] = {rank, 0};
                cursor.left[rank] += run.end - run.begin;
            }
        }
    } else {
        // Open: the reader is not placed yet, but the set of register
        // files any capable unit could read the operand from is known.
        // Preferring those files surfaces port contention *now*, while
        // the scheduler can still delay this producer; a stub into an
        // unreadable file is guaranteed to need fixing at close time,
        // and a stub into a file that cannot reach the reader even
        // through copies would strand the value (the Section 4.5 trap)
        // — the plan drops those outright, making the *producer's*
        // placement fail so it slides to a cycle where a useful port
        // is free. The plan bakes the reader-shape analysis into
        // default ranks (3 reachable / 7 serviceable-only); only
        // "special" buses — one already broadcasting this value, or
        // the one holding the tentative stub — need stub-level ranks.
        plan = &openWritePlan(openCodesFor(comm), wp.fu);
        stats_[counter("prune_route_mask")] += plan->pruned;
        std::uint32_t ws_bus = comm.writeStub
                                   ? comm.writeStub->bus.index()
                                   : UINT32_MAX;
        cursor.runRank.resize(plan->runs.size());
        for (const WriteEmitPlan::BusRuns &br : plan->buses) {
            bool carrying = busValues[br.bus] == comm.value;
            bool special = carrying || br.bus == ws_bus;
            for (std::uint32_t r = br.firstRun; r < br.endRun; ++r) {
                const WriteEmitPlan::Run &run = plan->runs[r];
                if (!special) {
                    cursor.runRank[r] = {run.rank, 0};
                    cursor.left[run.rank] += run.end - run.begin;
                    continue;
                }
                cursor.runRank[r] = {
                    WriteCursor::kMixedRank,
                    static_cast<std::uint32_t>(cursor.stubRank.size())};
                bool reachable = run.rank == 3;
                for (std::uint32_t i = run.begin; i < run.end; ++i) {
                    const WriteStub &stub = plan->stubs[i];
                    std::uint8_t rank;
                    if (comm.writeStub && stub == *comm.writeStub) {
                        rank = reachable ? 0 : 4;
                    } else if (carrying) {
                        // The bus already broadcasts this value; an
                        // identical reservation (sharable stub) ranks
                        // above merely riding the bus through another
                        // port. A write of the same value on another
                        // bus never has an identical stub, so the bus
                        // compare is an exact prefilter.
                        rank = reservations_.hasIdenticalWrite(
                                   stub, comm.value, cycle)
                                   ? (reachable ? 1 : 5)
                                   : (reachable ? 2 : 6);
                    } else {
                        rank = reachable ? 3 : 7;
                    }
                    cursor.stubRank.push_back(rank);
                    ++cursor.left[rank];
                }
            }
        }
    }
    cursor.plan = plan;

    // Every stub of one value tries buses in the same order, different
    // values start from different buses: bus (value mod n) first, then
    // wrapping upward.
    std::uint32_t start =
        comm.value.index() % static_cast<std::uint32_t>(machine_.numBuses());
    std::uint32_t split = 0;
    while (split < plan->buses.size() && plan->buses[split].bus < start)
        ++split;
    cursor.split = split;
}

bool
BlockScheduler::WriteCursor::emitBus()
{
    const auto nb = static_cast<std::uint32_t>(plan->buses.size());
    while (rank < left.size()) {
        // Ranks with nothing left are skipped without a bus walk.
        while (left[rank] > 0 && step < nb) {
            std::uint32_t bi = split + step++;
            if (bi >= nb)
                bi -= nb;
            const WriteEmitPlan::BusRuns &br = plan->buses[bi];
            std::size_t before = out.size();
            auto emit = [&](const WriteStub &stub) {
                --left[rank];
                if (!wantRf.valid() ||
                    machine->writePortRegFile(stub.writePort) == wantRf)
                    out.push_back(stub);
            };
            for (std::uint32_t r = br.firstRun; r < br.endRun; ++r) {
                const WriteEmitPlan::Run &run = plan->runs[r];
                RunRank rr = runRank[r];
                if (rr.rank == kMixedRank) {
                    for (std::uint32_t i = run.begin; i < run.end; ++i) {
                        if (stubRank[rr.offset + (i - run.begin)] == rank)
                            emit(plan->stubs[i]);
                    }
                } else if (rr.rank == rank) {
                    for (std::uint32_t i = run.begin; i < run.end; ++i)
                        emit(plan->stubs[i]);
                }
            }
            if (out.size() > before)
                return true;
        }
        ++rank;
        step = 0;
    }
    return false;
}

bool
BlockScheduler::permuteReadStubs(int cycle)
{
    return permuteReadStubsImpl(cycle, CommId(), RegFileId());
}

bool
BlockScheduler::permuteWriteStubs(int cycle)
{
    return permuteWriteStubsImpl(cycle, CommId(), RegFileId());
}

bool
BlockScheduler::permuteReadStubsImpl(int cycle, CommId constrain,
                                     RegFileId wantRf)
{
    ScratchGuard guard(*this);
    PermScratch &sc = guard.sc;
    std::vector<CommId> &ids = sc.ids;
    commsReadingAt(cycle, ids);
    if (constrain.valid() &&
        std::find(ids.begin(), ids.end(), constrain) == ids.end()) {
        return false;
    }
    if (ids.empty())
        return true;
    CS_TRACE_SPAN1("perm_search.read", "comms", ids.size());

    // Order: closing before open, smallest copy range first. Keys are
    // computed once per communication, not once per comparison.
    auto &order = sc.orderKeys;
    order.clear();
    order.reserve(ids.size());
    for (CommId id : ids) {
        const Communication &comm = comms_.get(id);
        bool closing = comm.isLiveIn() ||
                       (comm.writer.valid() && isScheduled(comm.writer));
        int range = INT_MAX;
        if (closing && !comm.isLiveIn()) {
            range = issueCycleOf(comm.reader) + comm.distance * ii_ -
                    (issueCycleOf(comm.writer) +
                     latencyOf(comm.writer));
        }
        order.emplace_back(packCommOrderKey(!closing, range), id);
    }
    std::sort(order.begin(), order.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first
                             ? a.first < b.first
                             : a.second.index() < b.second.index();
              });
    for (std::size_t i = 0; i < ids.size(); ++i)
        ids[i] = order[i].second;

    // Release current assignments; remember them for rollback.
    auto &previous = sc.prevRead;
    previous.assign(ids.size(), std::nullopt);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        Communication &comm = comms_.get(ids[i]);
        previous[i] = comm.readStub;
        if (comm.readStub) {
            doReleaseRead(*comm.readStub, comm.reader, comm.slot,
                          issueCycleOf(comm.reader));
        }
    }

    // Candidate lists (post-release so sharing probes see the truth).
    if (sc.readStore.size() < ids.size())
        sc.readStore.resize(ids.size());
    auto &candidates = sc.readCands;
    candidates.resize(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const Communication &comm = comms_.get(ids[i]);
        candidates[i] = readCandidatesFor(comm, sc.readStore[i]);
        if (ids[i] == constrain) {
            std::vector<ReadStub> &store = sc.readStore[i];
            if (candidates[i].data() != store.data())
                store.assign(candidates[i].begin(), candidates[i].end());
            std::erase_if(store, [&](const ReadStub &stub) {
                return machine_.readPortRegFile(stub.readPort) != wantRf;
            });
            candidates[i] = store;
        }
    }

    // Bounded depth-first search (Section 4.4): first fit in candidate
    // order, backtracking one level at a time, every candidate
    // examined charged to the budget. On success every level's
    // acquisition is held and choice[] names it; on failure everything
    // acquired is released again and the previous assignments are
    // restored.
    auto &choice = sc.choice;
    auto release_all = [&](std::size_t level) {
        while (level > 0) {
            --level;
            Communication &held = comms_.get(ids[level]);
            doReleaseRead(candidates[level][choice[level]], held.reader,
                          held.slot, issueCycleOf(held.reader));
        }
    };
    auto tripsBefore = stats_.get(counter("perm_budget_exhausted"));
    bool success = [&] {
        int budget = options_.permutationBudget;
        choice.assign(ids.size(), -1);
        std::size_t level = 0;
        while (level < ids.size()) {
            Communication &comm = comms_.get(ids[level]);
            int reader_cycle = issueCycleOf(comm.reader);
            // Cooperative cancellation rides the budget: zeroing it
            // makes this expansion step take the existing exhaustion
            // rollback, so an abort costs one relaxed load per DFS
            // step and nothing on the candidate loop.
            if (abortRequested())
                budget = 0;
            stats_.bump(counter("dfs_nodes"));
            bool advanced = false;
            for (int next = choice[level] + 1;
                 next < static_cast<int>(candidates[level].size());
                 ++next) {
                if (--budget <= 0)
                    break;
                const ReadStub &stub = candidates[level][next];
                // A write stub on this bus rejects any read outright;
                // skip the probe (the probe's own first check, made
                // O(1) here).
                if (reservations_.busHasWrite(stub.bus, reader_cycle)) {
                    stats_.bump(counter("prune_read_bus"));
                    continue;
                }
                stats_.bump(counter("probe_reads"));
                if (reservations_.canAcquireRead(stub, comm.reader,
                                                 comm.slot,
                                                 reader_cycle)) {
                    doAcquireRead(stub, comm.reader, comm.slot,
                                  reader_cycle);
                    choice[level] = next;
                    ++level;
                    advanced = true;
                    break;
                }
            }
            if (advanced)
                continue;
            if (budget <= 0) {
                stats_.bump(counter("perm_budget_exhausted"));
                release_all(level);
                return false;
            }
            if (level == 0)
                return false;
            // Backtrack: release the previous level's stub and resume
            // its candidate scan at choice + 1.
            choice[level] = -1;
            --level;
            Communication &held = comms_.get(ids[level]);
            doReleaseRead(candidates[level][choice[level]], held.reader,
                          held.slot, issueCycleOf(held.reader));
            stats_.bump(counter("perm_backtracks"));
        }
        return true;
    }();
    if (!success) {
        // Classify the rejection. An aborted search was already noted
        // at the latch; a budget trip is a search-policy limit, not a
        // port fact; everything else exhausted the read-port space.
        if (!aborted_) {
            noteReject(stats_.get(counter("perm_budget_exhausted")) >
                               tripsBefore
                           ? RejectReason::BudgetExhausted
                           : RejectReason::ReadPortConflict);
        }
        // Restore previous stubs (everything acquired is already
        // released).
        for (std::size_t i = 0; i < ids.size(); ++i) {
            Communication &held = comms_.get(ids[i]);
            if (previous[i]) {
                doAcquireRead(*previous[i], held.reader, held.slot,
                              issueCycleOf(held.reader));
            }
        }
        return false;
    }

    for (std::size_t i = 0; i < ids.size(); ++i)
        setReadStub(ids[i], candidates[i][choice[i]]);
    stats_.bump(counter("read_perms_found"));
    return true;
}

bool
BlockScheduler::permuteWriteStubsImpl(int cycle, CommId constrain,
                                      RegFileId wantRf)
{
    ScratchGuard guard(*this);
    PermScratch &sc = guard.sc;
    std::vector<CommId> &ids = sc.ids;
    commsWritingAt(cycle, ids);
    if (constrain.valid() &&
        std::find(ids.begin(), ids.end(), constrain) == ids.end()) {
        return false;
    }
    if (ids.empty())
        return true;
    CS_TRACE_SPAN1("perm_search.write", "comms", ids.size());

    auto &order = sc.orderKeys;
    order.clear();
    order.reserve(ids.size());
    for (CommId id : ids) {
        const Communication &comm = comms_.get(id);
        bool closing =
            isScheduled(comm.reader) && comm.readStub.has_value();
        int range = INT_MAX;
        if (closing) {
            range = issueCycleOf(comm.reader) + comm.distance * ii_ -
                    (issueCycleOf(comm.writer) +
                     latencyOf(comm.writer));
        }
        order.emplace_back(packCommOrderKey(!closing, range), id);
    }
    std::sort(order.begin(), order.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first
                             ? a.first < b.first
                             : a.second.index() < b.second.index();
              });
    for (std::size_t i = 0; i < ids.size(); ++i)
        ids[i] = order[i].second;

    auto &previous = sc.prevWrite;
    previous.resize(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        previous[i] = comms_.get(ids[i]).writeStub;
    if (sc.writeCursors.size() < ids.size())
        sc.writeCursors.resize(ids.size());
    sc.chosenWrite.resize(ids.size());

    if (!constrain.valid() && resumeWriteSearch(sc, cycle))
        return true;
    return solveWriteStubs(sc, cycle, constrain, wantRf);
}

BlockScheduler::WriteDfs
BlockScheduler::writeDfs(PermScratch &sc, std::size_t start, int budget)
{
    // Bounded depth-first search (Section 4.4), the same shape as the
    // read search: first fit in candidate order, backtracking one level
    // at a time, every candidate examined charged to the budget. The
    // trial acquires and backtrack releases go straight to the table —
    // they cancel out within the search, and commitWriteStubs journals
    // only the net change. On Found every level in [start, n) holds
    // its stub and chosenWrite names it; otherwise every stub this call
    // acquired is released again.
    const std::vector<CommId> &ids = sc.ids;
    auto &choice = sc.choice;
    auto release = [&](std::size_t level) {
        const Communication &held = comms_.get(ids[level]);
        reservations_.releaseWrite(sc.chosenWrite[level], held.value,
                                   writeStubCycleOf(held.writer));
        stats_.bump(counter("table_releases"));
    };
    std::size_t level = start;
    while (level < ids.size()) {
        const Communication &comm = comms_.get(ids[level]);
        int write_cycle = writeStubCycleOf(comm.writer);
        // Cooperative cancellation rides the budget, as in the read
        // search.
        if (abortRequested())
            budget = 0;
        stats_.bump(counter("dfs_nodes"));
        WriteCursor &cursor = sc.writeCursors[level];
        bool advanced = false;
        for (int next = choice[level] + 1;; ++next) {
            const WriteStub *candidate =
                cursor.at(static_cast<std::size_t>(next));
            if (candidate == nullptr)
                break;
            if (--budget <= 0)
                break;
            const WriteStub stub = *candidate;
            // A read stub on the bus, or a write of another value,
            // rejects this stub outright: skip the probe.
            ReservationTable::BusWriteProbe bus_probe =
                reservations_.busWriteProbe(stub.bus, write_cycle);
            if (bus_probe.hasRead ||
                (bus_probe.value.valid() &&
                 bus_probe.value != comm.value)) {
                stats_.bump(counter("prune_write_bus"));
                continue;
            }
            stats_.bump(counter("probe_writes"));
            if (reservations_.canAcquireWrite(stub, comm.value,
                                              write_cycle)) {
                reservations_.acquireWrite(stub, comm.value, write_cycle);
                stats_.bump(counter("table_acquires"));
                sc.chosenWrite[level] = stub;
                choice[level] = next;
                ++level;
                advanced = true;
                break;
            }
        }
        if (advanced)
            continue;
        if (budget <= 0) {
            stats_.bump(counter("perm_budget_exhausted"));
            while (level > start)
                release(--level);
            return WriteDfs::BudgetTrip;
        }
        if (level == start)
            return WriteDfs::Exhausted;
        // Backtrack: release the previous level's stub and resume its
        // candidate scan at choice + 1.
        choice[level] = -1;
        release(--level);
        stats_.bump(counter("perm_backtracks"));
    }
    return WriteDfs::Found;
}

bool
BlockScheduler::resumeWriteSearch(PermScratch &sc, int cycle)
{
    // The held prefix: leading levels whose open communication holds a
    // stub into a file the reader can fetch from directly. That stub
    // is the unique rank-0 entry of its list, and the held stubs
    // coexist, so a from-scratch DFS re-picks each of them first, at
    // one candidate, one node and one probe per level (DESIGN.md §5d).
    const std::vector<CommId> &ids = sc.ids;
    const int budget = options_.permutationBudget;
    auto &prefixValues = sc.distinctValues;
    prefixValues.clear();
    std::uint64_t prefixPruned = 0;
    std::size_t p = 0;
    for (; p < ids.size(); ++p) {
        const Communication &comm = comms_.get(ids[p]);
        if ((isScheduled(comm.reader) && comm.readStub.has_value()) ||
            !comm.writeStub) {
            break;
        }
        std::span<const std::uint8_t> codes = openCodesFor(comm);
        if (codes[machine_.writePortRegFile(comm.writeStub->writePort)
                      .index()] != BlockSchedulingContext::kStubReachable)
            break;
        prefixPruned +=
            openWritePlan(codes, schedule_.placement(comm.writer).fu)
                .pruned;
        if (std::find(prefixValues.begin(), prefixValues.end(),
                      comm.value) == prefixValues.end()) {
            prefixValues.push_back(comm.value);
        }
    }
    if (p == 0 || !std::cmp_less(p, budget))
        return false;
    // The later levels must rank the same whether the prefix is held
    // or released: they hold no stub of their own, and no bus the
    // prefix occupies can carry their value either way.
    for (std::size_t i = p; i < ids.size(); ++i) {
        const Communication &comm = comms_.get(ids[i]);
        if (comm.writeStub ||
            std::find(prefixValues.begin(), prefixValues.end(),
                      comm.value) != prefixValues.end()) {
            return false;
        }
    }
    if (abortRequested())
        return false;

    // Charge what the from-scratch DFS pays to reach level p; hand it
    // back if the rest of the search needs the full run after all.
    static constexpr CounterId kCharged[] = {
        counter("dfs_nodes"),       counter("probe_writes"),
        counter("prune_write_bus"), counter("prune_route_mask"),
        counter("perm_backtracks"), counter("perm_budget_exhausted")};
    std::array<std::uint64_t, std::size(kCharged)> saved;
    for (std::size_t k = 0; k < saved.size(); ++k)
        saved[k] = stats_.get(kCharged[k]);
    stats_[counter("dfs_nodes")] += p;
    stats_[counter("probe_writes")] += p;
    stats_[counter("prune_route_mask")] += prefixPruned;

    auto &choice = sc.choice;
    choice.assign(ids.size(), -1);
    for (std::size_t i = 0; i < p; ++i) {
        choice[i] = 0;
        sc.chosenWrite[i] = *sc.prevWrite[i];
    }
    reservations_.fillBusWriteValues(cycle, sc.busValues);
    for (std::size_t i = p; i < ids.size(); ++i) {
        openWriteCursor(sc.writeCursors[i], comms_.get(ids[i]), cycle,
                        sc.busValues, RegFileId());
    }
    // First fit reaches level p with the lexicographically smallest
    // feasible prefix — the held one — so a success here is the
    // from-scratch result, and it implies the bus precheck (each
    // distinct value holds a usable candidate bus). Anything else —
    // a backtrack into the prefix, a budget trip — reruns from level 0.
    if (writeDfs(sc, p, budget - static_cast<int>(p)) == WriteDfs::Found) {
        commitWriteStubs(sc);
        stats_.bump(counter("write_perms_found"));
        return true;
    }
    for (std::size_t k = 0; k < saved.size(); ++k)
        stats_[kCharged[k]] = saved[k];
    return false;
}

bool
BlockScheduler::solveWriteStubs(PermScratch &sc, int cycle,
                                CommId constrain, RegFileId wantRf)
{
    const std::vector<CommId> &ids = sc.ids;
    const auto &previous = sc.prevWrite;
    // Release the current assignments (rollback restores them).
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (previous[i]) {
            const Communication &comm = comms_.get(ids[i]);
            reservations_.releaseWrite(*previous[i], comm.value,
                                       writeStubCycleOf(comm.writer));
            stats_.bump(counter("table_releases"));
        }
    }
    auto restore = [&] {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (previous[i]) {
                const Communication &comm = comms_.get(ids[i]);
                reservations_.acquireWrite(*previous[i], comm.value,
                                           writeStubCycleOf(comm.writer));
                stats_.bump(counter("table_acquires"));
            }
        }
    };

    // Candidate lists rank against the post-release row, fixed once.
    reservations_.fillBusWriteValues(cycle, sc.busValues);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        openWriteCursor(sc.writeCursors[i], comms_.get(ids[i]), cycle,
                        sc.busValues,
                        ids[i] == constrain ? wantRf : RegFileId());
    }

    // Fast infeasibility check: different values never share a bus,
    // so the distinct values here need at least as many usable buses
    // (idle, or already carrying one of these values in write role)
    // among the candidate stubs. An unfiltered list's buses are its
    // plan's; only the retargeted level narrows to stubs into wantRf.
    {
        auto &distinct = sc.distinctValues;
        distinct.clear();
        for (CommId id : ids) {
            ValueId v = comms_.get(id).value;
            if (std::find(distinct.begin(), distinct.end(), v) ==
                distinct.end()) {
                distinct.push_back(v);
            }
        }
        InlineBitset &cand_buses = sc.candidateBuses;
        cand_buses.resize(machine_.numBuses());
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const WriteEmitPlan &plan = *sc.writeCursors[i].plan;
            if (ids[i] != constrain) {
                for (const WriteEmitPlan::BusRuns &br : plan.buses)
                    cand_buses.set(br.bus);
                continue;
            }
            for (const WriteStub &stub : plan.stubs) {
                if (machine_.writePortRegFile(stub.writePort) == wantRf)
                    cand_buses.set(stub.bus.index());
            }
        }
        std::size_t usable_count = 0;
        for (std::size_t b = 0; b < machine_.numBuses(); ++b) {
            if (!cand_buses.test(b))
                continue;
            BusId bus(static_cast<std::uint32_t>(b));
            for (ValueId v : distinct) {
                if (reservations_.busAvailableForValue(bus, v, cycle)) {
                    ++usable_count;
                    break;
                }
            }
        }
        if (distinct.size() > usable_count) {
            noteReject(RejectReason::BusConflict);
            restore();
            return false;
        }
    }

    auto tripsBefore = stats_.get(counter("perm_budget_exhausted"));
    sc.choice.assign(ids.size(), -1);
    if (writeDfs(sc, 0, options_.permutationBudget) != WriteDfs::Found) {
        // Classify: abort already noted at the latch; a communication
        // with no candidate write stubs at all is the "no serviceable
        // write stub" case (nothing the other levels choose can fix
        // an empty list); a budget trip is a policy limit; the rest
        // exhausted the write-port space.
        if (!aborted_) {
            bool emptyList = false;
            for (std::size_t i = 0; i < ids.size() && !emptyList; ++i)
                emptyList = sc.writeCursors[i].at(0) == nullptr;
            noteReject(
                emptyList ? RejectReason::NoServiceableWriteStub
                : stats_.get(counter("perm_budget_exhausted")) > tripsBefore
                    ? RejectReason::BudgetExhausted
                    : RejectReason::WritePortConflict);
        }
        restore();
        return false;
    }
    commitWriteStubs(sc);
    stats_.bump(counter("write_perms_found"));
    return true;
}

void
BlockScheduler::commitWriteStubs(PermScratch &sc)
{
    // The table already holds the new assignment. Journal the net
    // change only, for the levels whose stub changed: every replaced
    // stub's release, then every new stub's acquire, then the stub
    // records. Releases first, so an undo frees every new stub before
    // it re-acquires any old one: after two communications of
    // different values swap stubs, per-level interleaving would
    // re-acquire a stub the other value still holds.
    const std::vector<CommId> &ids = sc.ids;
    const auto &previous = sc.prevWrite;
    auto changed = [&](std::size_t i) {
        return !previous[i] || *previous[i] != sc.chosenWrite[i];
    };
    auto journal = [&](UndoEntry::Kind kind, std::size_t i,
                       const WriteStub &stub) {
        const Communication &comm = comms_.get(ids[i]);
        UndoEntry entry{};
        entry.kind = kind;
        entry.writeStub = stub;
        entry.value = comm.value;
        entry.cycle = writeStubCycleOf(comm.writer);
        log_.push(entry);
    };
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (previous[i] && changed(i))
            journal(UndoEntry::Kind::WriteReleased, i, *previous[i]);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (changed(i))
            journal(UndoEntry::Kind::WriteAcquired, i, sc.chosenWrite[i]);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (changed(i))
            setWriteStub(ids[i], sc.chosenWrite[i]);
    }
}

bool
BlockScheduler::tryRetargetWriteSide(Communication &comm,
                                     RegFileId wantRf)
{
    if (!comm.writer.valid() || !isScheduled(comm.writer))
        return false;
    // Fast reject: can the writer's unit reach that file at all?
    const Placement &wp = schedule_.placement(comm.writer);
    if (!machine_.writableMask(wp.fu).test(wantRf.index()))
        return false;
    return permuteWriteStubsImpl(writeStubCycleOf(comm.writer), comm.id,
                                 wantRf);
}

bool
BlockScheduler::tryRetargetReadSide(Communication &comm,
                                    RegFileId wantRf)
{
    if (!isScheduled(comm.reader))
        return false;
    const Placement &rp = schedule_.placement(comm.reader);
    const InlineBitset &readable =
        kernel_.operation(comm.reader).isCopy()
            ? machine_.readableAnyMask(rp.fu)
            : machine_.readableMask(rp.fu, comm.slot);
    if (!readable.test(wantRf.index()))
        return false;
    return permuteReadStubsImpl(issueCycleOf(comm.reader), comm.id,
                                wantRf);
}

} // namespace cs
