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
 * would reject, and the search budget is charged at exactly the same
 * points as before, so the chosen permutations — and therefore the
 * final schedules — are unchanged (tests/test_sched_equivalence.cpp
 * holds the listings byte-identical).
 */

#include <algorithm>
#include <climits>

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

std::span<const WriteStub>
BlockScheduler::writeCandidatesFor(const Communication &comm,
                                   std::vector<WriteStub> &storage) const
{
    CS_ASSERT(comm.writer.valid(), "write candidates need a writer");
    const Placement &wp = schedule_.placement(comm.writer);
    CS_ASSERT(wp.scheduled, "write candidates need a placed writer");
    int cycle = writeStubCycleOf(comm.writer);

    // Per-bus value cache for this (value, cycle) query. bus_val[b]
    // is the value bus b currently broadcasts in write role (invalid
    // when idle, and writes of different values never share a bus),
    // so a single compare decides a whole bus's rank treatment. The
    // fill is memoized against the row's stub generation: all the
    // candidate queries of one permutation call see the same row, so
    // only the first pays the per-bus walk.
    auto n = static_cast<std::uint32_t>(machine_.numBuses());
    auto &bus_val = busValueScratch_;
    {
        int row = reservations_.norm(cycle);
        std::uint32_t gen = reservations_.stubGeneration(cycle);
        if (!busValValid_ || busValRow_ != row || busValGen_ != gen) {
            reservations_.fillBusWriteValues(cycle, bus_val);
            busValRow_ = row;
            busValGen_ = gen;
            busValValid_ = true;
        }
    }

    // The preference order is (rank, rotated bus, list index), where
    // rank is a small integer: a counting sort over the precompiled
    // emission plan. Pass 1 sizes the rank buckets from the plan's
    // runs; pass 2 walks the runs in rotated-bus order, bulk-copying
    // each run at its bucket's cursor — which lays the buckets out
    // contiguously in exactly the order a stable comparison sort over
    // the raw stub list would produce.
    //
    // The rotation (every stub of one value tries buses in the same
    // order, different values start from different buses) becomes the
    // bus walk order: bus (value mod n) first, then wrapping upward.
    //
    // Finite copy distances are bounded by the register-file count,
    // so every rank above `overflow` is the single kUnreachable
    // sentinel and may share one bucket without reordering.
    const int overflow = static_cast<int>(machine_.numRegFiles()) + 3;
    auto &buckets = bucketScratch_;
    buckets.assign(static_cast<std::size_t>(std::max(overflow, 7)) + 1,
                   0);

    bool closing = isScheduled(comm.reader) && comm.readStub.has_value();

    if (closing) {
        RegFileId read_rf =
            machine_.readPortRegFile(comm.readStub->readPort);
        // Base ranks against this read file are a context table row
        // (indexed by the stub's register file); only the bus-sharing
        // preference (rank 0 vs 1 in the same file) depends on live
        // reservation state, and it is uniform across a bus.
        const WriteEmitPlan &plan =
            closeWritePlan(ctx_->closeBaseRow(read_rf), wp.fu);
        auto rank_of = [&](const WriteEmitPlan::Run &run,
                           std::uint32_t b) {
            return run.rank == BlockSchedulingContext::kSameFile
                       ? (bus_val[b] == comm.value ? 0 : 1)
                       : static_cast<int>(run.rank);
        };
        for (const WriteEmitPlan::BusRuns &br : plan.buses) {
            for (std::uint32_t r = br.firstRun; r < br.endRun; ++r) {
                const WriteEmitPlan::Run &run = plan.runs[r];
                buckets[rank_of(run, br.bus)] +=
                    static_cast<int>(run.end - run.begin);
            }
        }
        int total = 0;
        for (int &c : buckets) {
            int width = c;
            c = total;
            total += width;
        }
        storage.resize(static_cast<std::size_t>(total));
        std::uint32_t start = comm.value.index() % n;
        std::size_t nb = plan.buses.size();
        std::size_t split = 0;
        while (split < nb && plan.buses[split].bus < start)
            ++split;
        for (std::size_t k = 0; k < nb; ++k) {
            std::size_t i = split + k;
            if (i >= nb)
                i -= nb;
            const WriteEmitPlan::BusRuns &br = plan.buses[i];
            for (std::uint32_t r = br.firstRun; r < br.endRun; ++r) {
                const WriteEmitPlan::Run &run = plan.runs[r];
                auto len = run.end - run.begin;
                int &cursor = buckets[rank_of(run, br.bus)];
                std::copy_n(plan.stubs.data() + run.begin, len,
                            storage.data() + cursor);
                cursor += static_cast<int>(len);
            }
        }
        return storage;
    }

    // Open: the reader is not placed yet, but the set of register
    // files any capable unit could read the operand from is known.
    // Preferring those files surfaces port contention *now*, while
    // the scheduler can still delay this producer; a stub into an
    // unreadable file is guaranteed to need fixing at close time, and
    // a stub into a file that cannot reach the reader even through
    // copies would strand the value (the Section 4.5 trap) — the plan
    // drops those outright, making the *producer's* placement fail so
    // it slides to a cycle where a useful port is free. The whole
    // Section 4.5 analysis (readable-file masks x copy reachability
    // closure) depends only on the reader's shape, so the plan bakes
    // it into default ranks (3 reachable / 7 serviceable-only); only
    // "special" buses — one already broadcasting this value, or the
    // one holding the tentative stub — need stub-level ranks.
    const Operation &consumer = kernel_.operation(comm.reader);
    std::span<const std::uint8_t> codes =
        isScheduled(comm.reader)
            ? (consumer.isCopy()
                   ? ctx_->openCodesScheduledCopy(
                         schedule_.placement(comm.reader).fu)
                   : ctx_->openCodesScheduled(
                         schedule_.placement(comm.reader).fu,
                         comm.slot))
            : (consumer.isCopy()
                   ? ctx_->openCodesUnscheduledCopy()
                   : ctx_->openCodesUnscheduled(consumer.opcode,
                                                comm.slot));
    const WriteEmitPlan &plan = openWritePlan(codes, wp.fu);
    hot_.pruneRouteMask += plan.pruned;

    std::uint32_t ws_bus = comm.writeStub
                               ? comm.writeStub->bus.index()
                               : UINT32_MAX;
    auto is_special = [&](std::uint32_t b) {
        return b == ws_bus || bus_val[b] == comm.value;
    };
    // Rank the special buses' stubs once (the scratch is reused by
    // the emission pass) and size their buckets; everything else
    // contributes whole runs at the default ranks.
    auto &sranks = stubRankScratch_;
    sranks.clear();
    auto &special = specialBusScratch_;
    special.clear();
    for (const WriteEmitPlan::BusRuns &br : plan.buses) {
        if (!is_special(br.bus))
            continue;
        special.emplace_back(
            br.bus, static_cast<std::uint32_t>(sranks.size()));
        bool carrying = bus_val[br.bus] == comm.value;
        for (std::uint32_t r = br.firstRun; r < br.endRun; ++r) {
            const WriteEmitPlan::Run &run = plan.runs[r];
            bool reachable = run.rank == 3;
            for (std::uint32_t i = run.begin; i < run.end; ++i) {
                const WriteStub &stub = plan.stubs[i];
                int rank;
                if (comm.writeStub && stub == *comm.writeStub) {
                    rank = reachable ? 0 : 4;
                } else if (carrying) {
                    // The bus already broadcasts this value; an
                    // identical reservation (sharable stub) ranks
                    // above merely riding the bus through another
                    // port. A write of the same value on another bus
                    // never has an identical stub, so the bus compare
                    // is an exact prefilter.
                    rank = reservations_.hasIdenticalWrite(
                               stub, comm.value, cycle)
                               ? (reachable ? 1 : 5)
                               : (reachable ? 2 : 6);
                } else {
                    rank = reachable ? 3 : 7;
                }
                sranks.push_back(rank);
                ++buckets[rank];
            }
        }
    }
    for (const WriteEmitPlan::BusRuns &br : plan.buses) {
        if (is_special(br.bus))
            continue;
        for (std::uint32_t r = br.firstRun; r < br.endRun; ++r) {
            const WriteEmitPlan::Run &run = plan.runs[r];
            buckets[run.rank] += static_cast<int>(run.end - run.begin);
        }
    }

    // Bucket counts -> start offsets.
    int total = 0;
    for (int &c : buckets) {
        int width = c;
        c = total;
        total += width;
    }

    storage.resize(static_cast<std::size_t>(total));
    std::uint32_t start = comm.value.index() % n;
    std::size_t nb = plan.buses.size();
    std::size_t split = 0;
    while (split < nb && plan.buses[split].bus < start)
        ++split;
    for (std::size_t k = 0; k < nb; ++k) {
        std::size_t bi = split + k;
        if (bi >= nb)
            bi -= nb;
        const WriteEmitPlan::BusRuns &br = plan.buses[bi];
        if (is_special(br.bus)) {
            std::uint32_t offset = 0;
            for (const auto &[sb, so] : special) {
                if (sb == br.bus) {
                    offset = so;
                    break;
                }
            }
            for (std::uint32_t r = br.firstRun; r < br.endRun; ++r) {
                const WriteEmitPlan::Run &run = plan.runs[r];
                for (std::uint32_t i = run.begin; i < run.end; ++i)
                    storage[static_cast<std::size_t>(
                        buckets[sranks[offset++]]++)] = plan.stubs[i];
            }
            continue;
        }
        for (std::uint32_t r = br.firstRun; r < br.endRun; ++r) {
            const WriteEmitPlan::Run &run = plan.runs[r];
            auto len = run.end - run.begin;
            int &cursor = buckets[run.rank];
            std::copy_n(plan.stubs.data() + run.begin, len,
                        storage.data() + cursor);
            cursor += static_cast<int>(len);
        }
    }
    return storage;
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
    std::uint64_t budgetExhaustedBefore = hot_.permBudgetExhausted;
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
            ++hot_.dfsNodes;
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
                    ++hot_.pruneReadBus;
                    continue;
                }
                ++hot_.probeReads;
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
                ++hot_.permBudgetExhausted;
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
            ++hot_.permBacktracks;
        }
        return true;
    }();
    if (!success) {
        // Classify the rejection. An aborted search was already noted
        // at the latch; a budget trip is a search-policy limit, not a
        // port fact; everything else exhausted the read-port space.
        if (!aborted_) {
            noteReject(hot_.permBudgetExhausted > budgetExhaustedBefore
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
    ++hot_.readPermsFound;
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
    previous.assign(ids.size(), std::nullopt);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        Communication &comm = comms_.get(ids[i]);
        previous[i] = comm.writeStub;
        if (comm.writeStub) {
            doReleaseWrite(*comm.writeStub, comm.value,
                           writeStubCycleOf(comm.writer));
        }
    }

    if (sc.writeStore.size() < ids.size())
        sc.writeStore.resize(ids.size());
    auto &candidates = sc.writeCands;
    candidates.resize(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const Communication &comm = comms_.get(ids[i]);
        candidates[i] = writeCandidatesFor(comm, sc.writeStore[i]);
        if (ids[i] == constrain) {
            std::vector<WriteStub> &store = sc.writeStore[i];
            if (candidates[i].data() != store.data())
                store.assign(candidates[i].begin(), candidates[i].end());
            std::erase_if(store, [&](const WriteStub &stub) {
                return machine_.writePortRegFile(stub.writePort) !=
                       wantRf;
            });
            candidates[i] = store;
        }
    }

    // Fast infeasibility check: different values never share a bus,
    // so the distinct values here need at least as many usable buses
    // (idle, or already carrying one of these values in write role)
    // among the candidate stubs.
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
        // One pass collects the buses any candidate stub touches; the
        // availability probes then run per bus, not per stub.
        InlineBitset &cand_buses = sc.candidateBuses;
        cand_buses.resize(machine_.numBuses());
        for (const auto &list : candidates) {
            for (const WriteStub &stub : list)
                cand_buses.set(stub.bus.index());
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
            ++hot_.writePermBusPrechecks;
            noteReject(RejectReason::BusConflict);
            for (std::size_t i = 0; i < ids.size(); ++i) {
                const Communication &held = comms_.get(ids[i]);
                if (previous[i]) {
                    doAcquireWrite(*previous[i], held.value,
                                   writeStubCycleOf(held.writer));
                }
            }
            return false;
        }
    }

    // Bounded depth-first search; same shape as the read search.
    auto &choice = sc.choice;
    auto release_all = [&](std::size_t level) {
        while (level > 0) {
            --level;
            Communication &held = comms_.get(ids[level]);
            doReleaseWrite(candidates[level][choice[level]], held.value,
                           writeStubCycleOf(held.writer));
        }
    };
    std::uint64_t budgetExhaustedBefore = hot_.permBudgetExhausted;
    bool success = [&] {
        int budget = options_.permutationBudget;
        choice.assign(ids.size(), -1);
        std::size_t level = 0;
        while (level < ids.size()) {
            Communication &comm = comms_.get(ids[level]);
            int write_cycle = writeStubCycleOf(comm.writer);
            // Same cancellation-as-budget trick as the read search.
            if (abortRequested())
                budget = 0;
            ++hot_.dfsNodes;
            bool advanced = false;
            for (int next = choice[level] + 1;
                 next < static_cast<int>(candidates[level].size());
                 ++next) {
                if (--budget <= 0)
                    break;
                const WriteStub &stub = candidates[level][next];
                // A read stub on the bus, or a write of another value,
                // rejects this stub outright: skip the probe.
                ReservationTable::BusWriteProbe bus_probe =
                    reservations_.busWriteProbe(stub.bus, write_cycle);
                if (bus_probe.hasRead ||
                    (bus_probe.value.valid() &&
                     bus_probe.value != comm.value)) {
                    ++hot_.pruneWriteBus;
                    continue;
                }
                ++hot_.probeWrites;
                if (reservations_.canAcquireWrite(stub, comm.value,
                                                  write_cycle)) {
                    doAcquireWrite(stub, comm.value, write_cycle);
                    choice[level] = next;
                    ++level;
                    advanced = true;
                    break;
                }
            }
            if (advanced)
                continue;
            if (budget <= 0) {
                ++hot_.permBudgetExhausted;
                release_all(level);
                return false;
            }
            if (level == 0)
                return false;
            choice[level] = -1;
            --level;
            Communication &held = comms_.get(ids[level]);
            doReleaseWrite(candidates[level][choice[level]], held.value,
                           writeStubCycleOf(held.writer));
            ++hot_.permBacktracks;
        }
        return true;
    }();
    if (!success) {
        // Classify: abort already noted at the latch; a communication
        // with no candidate write stubs at all is the "no serviceable
        // write stub" case (nothing the other levels choose can fix
        // an empty list); a budget trip is a policy limit; the rest
        // exhausted the write-port space.
        if (!aborted_) {
            bool emptyList = false;
            for (const auto &list : candidates)
                emptyList = emptyList || list.empty();
            noteReject(
                emptyList ? RejectReason::NoServiceableWriteStub
                : hot_.permBudgetExhausted > budgetExhaustedBefore
                    ? RejectReason::BudgetExhausted
                    : RejectReason::WritePortConflict);
        }
        for (std::size_t i = 0; i < ids.size(); ++i) {
            Communication &held = comms_.get(ids[i]);
            if (previous[i]) {
                doAcquireWrite(*previous[i], held.value,
                               writeStubCycleOf(held.writer));
            }
        }
        return false;
    }

    for (std::size_t i = 0; i < ids.size(); ++i)
        setWriteStub(ids[i], candidates[i][choice[i]]);
    ++hot_.writePermsFound;
    return true;
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
