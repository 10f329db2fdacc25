/**
 * @file
 * BlockScheduler: a UAS-style operation-order list scheduler (paper
 * Figure 11, loosely based on [13]) with communication scheduling
 * (Section 4) deciding whether each (cycle, functional unit) placement
 * is accepted. One engine covers plain block schedules (ii == 0) and
 * modulo schedules (ii > 0, resources folded every ii cycles).
 *
 * The five implementation steps of Section 4.3 map to:
 *   1. candidate stubs      -> readCandidatesFor / writeCandidatesFor
 *   2. read permutation     -> permuteReadStubs
 *   3. write permutation    -> permuteWriteStubs
 *   4. route assignment     -> closeRoutes (with write/read-side
 *                              retargeting when the tentative stub of
 *                              the already-scheduled endpoint can move)
 *   5. copy insertion       -> insertAndScheduleCopy (recursive)
 */

#ifndef CS_CORE_COMM_SCHEDULER_HPP
#define CS_CORE_COMM_SCHEDULER_HPP

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/communication.hpp"
#include "core/reject.hpp"
#include "core/reservation.hpp"
#include "core/sched_context.hpp"
#include "core/schedule.hpp"
#include "core/undo_log.hpp"
#include "ir/ddg.hpp"
#include "ir/kernel.hpp"
#include "machine/machine.hpp"
#include "support/bitset.hpp"
#include "support/stats.hpp"

namespace cs {

/** Tunables and ablation switches for the scheduler. */
struct SchedulerOptions
{
    /**
     * Schedule in operation order along the critical path (paper
     * Section 4.6). When false, schedule in cycle order (ASAP first):
     * the ablation baseline.
     */
    bool operationOrder = true;
    /** Use the communication-cost unit heuristic (Equation 1). */
    bool commCostHeuristic = true;
    /** Horizon for plain schedules (cycles past the earliest start). */
    int maxDelay = 2048;
    /**
     * Placement window for modulo schedules, in multiples of the
     * initiation interval (>= 1; 2 gives copy ranges room to grow).
     */
    int moduloWindowFactor = 2;
    /** Partial permutations examined before a stub search gives up. */
    int permutationBudget = 4000;
    /** Maximum copy-insertion recursion depth per communication. */
    int maxCopyDepth = 8;
    /**
     * Placement attempts allowed per top-level operation (including
     * all nested copy scheduling). Exhausting it fails the operation,
     * which for modulo scheduling simply advances to the next II
     * instead of exploring an exponential retry tree.
     */
    std::uint64_t perOpAttemptBudget = 50000;
    /**
     * Placement attempts one inserted copy may consume (including its
     * own recursion). Keeps a hard-to-place copy from starving the
     * outer operation's search for a later, friendlier cycle.
     */
    std::uint64_t copyAttemptBudget = 600;
    /**
     * Let the modulo scheduler retry each II with a wider window and
     * the flipped scheduling order before conceding it (a lightweight
     * stand-in for operation ejection). Disable to measure a single
     * configuration in isolation (ablation studies).
     */
    bool retryVariants = true;
};

/** Outcome of scheduling one block. */
struct ScheduleResult
{
    bool success = false;
    std::string failure; ///< why, when !success
    Kernel kernel{"unset"}; ///< the kernel including inserted copies
    BlockSchedule schedule{BlockId(), 0};
    CounterSet stats;
    /**
     * The run was cut short by a cooperative abort request (see
     * BlockScheduler::setAbortFlag). Always implies !success; the
     * partial result carries no schedule worth reading.
     */
    bool cancelled = false;
};

/**
 * Scheduling engine for one block of one kernel on one machine. Use
 * the free functions in list_scheduler.hpp / modulo_scheduler.hpp
 * rather than this class directly unless you need fine control.
 */
class BlockScheduler
{
  public:
    /**
     * @param kernel   scheduled by value: copy operations are inserted
     *                 into the engine's private copy
     * @param ii       0 for a plain schedule, else the initiation
     *                 interval (resources repeat every ii cycles)
     */
    BlockScheduler(Kernel kernel, BlockId block, const Machine &machine,
                   const SchedulerOptions &options, int ii);

    /**
     * Borrow a prebuilt analysis context instead of building one: the
     * context (and the kernel/machine it references) must outlive the
     * scheduler, and any number of schedulers — on any threads — may
     * borrow the same context concurrently. The scheduler still works
     * on its own private copy of the kernel.
     */
    BlockScheduler(const BlockSchedulingContext &context,
                   const SchedulerOptions &options, int ii);

    /**
     * Arm cooperative cancellation: once @p flag becomes true, the run
     * unwinds at the next search-budget checkpoint and returns a
     * result with cancelled = true. The flag is polled with relaxed
     * loads at points the search already pays for (the per-operation
     * attempt checkpoint and the permutation DFS expansion step), so
     * an armed-but-never-raised flag does not perturb the search —
     * results stay byte-identical to an unarmed run. The flag must
     * outlive run(); pass nullptr (the default state) to disarm.
     */
    void setAbortFlag(const std::atomic<bool> *flag) { abortFlag_ = flag; }

    /**
     * Arm a second, independent cancellation flag with the same
     * contract as setAbortFlag. The two compose: the II search owns
     * the per-attempt flag (raised when a better attempt wins) while a
     * caller-supplied flag — a serving deadline, a client disconnect —
     * rides along untouched (pipeline/job.hpp plumbs it through).
     */
    void
    setExternalAbortFlag(const std::atomic<bool> *flag)
    {
        externalAbortFlag_ = flag;
    }

    /** Run to completion; the result owns the kernel and schedule. */
    ScheduleResult run();

  private:
    /** @name Driver (Figure 11) */
    /// @{
    bool scheduleOp(OperationId op, int rangeLo, int rangeHi,
                    int copyDepth);
    bool tryPlace(OperationId op, int cycle, FuncUnitId fu,
                  int copyDepth);
    int earliestCycle(OperationId op) const;
    /** Latest legal issue cycle (carried readers bound it); INT_MAX
     *  when unbounded. */
    int latestCycle(OperationId op) const;
    std::span<const FuncUnitId> unitChoices(OperationId op, int cycle,
                                            int copyDepth) const;
    /// @}

    /** @name Communication scheduling (Section 4.3) */
    /// @{
    bool commSchedule(OperationId op, int cycle, FuncUnitId fu,
                      int copyDepth);
    void createCommsFor(OperationId op);

    /** Active, unclosed communications reading on norm(cycle). */
    void commsReadingAt(int cycle, std::vector<CommId> &out) const;
    /** Active, unclosed communications writing on norm(cycle). */
    void commsWritingAt(int cycle, std::vector<CommId> &out) const;

    /**
     * Candidate stubs in preference order. Allocation-free: the result
     * is either a view of the machine's precomputed stub list (when
     * that order is already correct) or of @p storage, refilled in
     * place. The view is valid until the next call that reuses the
     * same storage vector.
     */
    std::span<const ReadStub> readCandidatesFor(const Communication &comm,
                                                std::vector<ReadStub>
                                                    &storage) const;
    std::span<const WriteStub>
    writeCandidatesFor(const Communication &comm,
                       std::vector<WriteStub> &storage) const;

    bool permuteReadStubs(int cycle);
    bool permuteWriteStubs(int cycle);

    /**
     * Shared implementation: find a non-conflicting permutation over
     * the unclosed communications on the cycle, optionally forcing one
     * communication's stub into a particular register file (used by
     * the retargeting of step 4). On failure the previous assignments
     * are restored and false is returned.
     */
    bool permuteReadStubsImpl(int cycle, CommId constrain,
                              RegFileId wantRf);
    bool permuteWriteStubsImpl(int cycle, CommId constrain,
                               RegFileId wantRf);

    /**
     * Step 4: try to close every closing communication of @p op,
     * retargeting the far side's tentative stub when that forms a
     * route; step 5: otherwise insert copies.
     */
    bool closeRoutes(OperationId op, int copyDepth);
    bool tryRetargetWriteSide(Communication &comm, RegFileId wantRf);
    bool tryRetargetReadSide(Communication &comm, RegFileId wantRf);
    bool insertAndScheduleCopy(CommId commId, int copyDepth);
    /// @}

    /** Communication-cost heuristic, Equation 1. */
    double commCost(OperationId op, FuncUnitId fu, int cycle) const;

    /**
     * Register files the value currently lands in: the targets of the
     * assigned write stubs of its communications.
     */
    std::vector<RegFileId> valueResidences(ValueId value) const;

    /** @name Cycle bookkeeping */
    /// @{
    int issueCycleOf(OperationId op) const;
    /** Cycle on which the op's write stubs live (completion - 1). */
    int writeStubCycleOf(OperationId op) const;
    int latencyOf(OperationId op) const;
    bool isScheduled(OperationId op) const;
    /// @}

    /**
     * @name Journaled mutations
     * Every state change goes through one of these so a failed
     * placement attempt can roll back exactly with undoTo().
     */
    /// @{
    void undoTo(UndoLog::Mark mark);
    void doPlace(OperationId op, int cycle, FuncUnitId fu);
    void doAcquireRead(const ReadStub &stub, OperationId reader,
                       int slot, int cycle);
    void doReleaseRead(const ReadStub &stub, OperationId reader,
                       int slot, int cycle);
    void doAcquireWrite(const WriteStub &stub, ValueId value, int cycle);
    void doReleaseWrite(const WriteStub &stub, ValueId value, int cycle);
    void setReadStub(CommId id, std::optional<ReadStub> stub);
    void setWriteStub(CommId id, std::optional<WriteStub> stub);
    void setClosed(CommId id);
    CommId doCreateComm(OperationId writer, ValueId value,
                        OperationId reader, int slot, int distance);
    void doDeactivate(CommId id);
    OperationId doInsertCopy(ValueId value, OperationId reader, int slot);
    void doRetargetUse(OperationId user, int slot, ValueId to);

    /**
     * Copy reuse: if a scheduled copy of the communication's value
     * already deposits (or can deposit) into the reader's register
     * file in time, reroute the communication through it instead of
     * inserting another copy of the same value.
     */
    bool tryReuseExistingCopy(CommId commId);
    /// @}

    /**
     * Hot-path counters. CounterSet::bump takes a mutex and a string
     * map lookup per call, which is measurable in the permutation
     * search's inner loops, so the scheduler bumps plain fields and
     * flushes them into stats_ once per run() under the usual names.
     */
    struct HotCounters
    {
        std::uint64_t opsScheduled = 0;
        std::uint64_t placementAttempts = 0;
        std::uint64_t attemptBudgetExhausted = 0;
        std::uint64_t commSchedCalls = 0;
        std::uint64_t commSchedRejections = 0;
        std::uint64_t readPermFailures = 0;
        std::uint64_t writePermFailures = 0;
        std::uint64_t routeCloseFailures = 0;
        std::uint64_t stubRetargets = 0;
        std::uint64_t copyFeedUnroutable = 0;
        std::uint64_t copiesUnwound = 0;
        std::uint64_t permBudgetExhausted = 0;
        std::uint64_t permBacktracks = 0;
        std::uint64_t readPermsFound = 0;
        std::uint64_t writePermsFound = 0;
        std::uint64_t writePermBusPrechecks = 0;
        std::uint64_t copiesReused = 0;
        std::uint64_t copyDepthExhausted = 0;
        std::uint64_t copyRangeEmpty = 0;
        std::uint64_t copiesInserted = 0;
        std::uint64_t copyScheduleFailures = 0;
        /** Reservation-table probes issued by the permutation DFS. */
        std::uint64_t probeReads = 0;
        std::uint64_t probeWrites = 0;
        /** DFS branches cut before probing (pure subsets of rejects). */
        std::uint64_t pruneReadBus = 0;
        std::uint64_t pruneWriteBus = 0;
        std::uint64_t pruneRouteMask = 0;
        /** Journaled stub acquisitions / releases on the table. */
        std::uint64_t tableAcquires = 0;
        std::uint64_t tableReleases = 0;
        /** DFS expansion steps the permutation searches executed. */
        std::uint64_t dfsNodes = 0;
        /** Placement rejections by RejectReason (core/reject.hpp),
         *  flushed as the "reject.<name>" counters. */
        std::array<std::uint64_t, kNumRejectReasons> rejects{};
    };
    void flushHotCounters();

    /**
     * Classify one placement rejection: counts it per reason and,
     * when tracing is enabled, emits an instant event so the timeline
     * shows which constraint killed which placement.
     */
    void noteReject(RejectReason reason);

    /**
     * Reusable buffers for one stub-permutation search, pooled by
     * nesting depth (the permutation entry points never actually nest
     * today — copy insertion re-enters the scheduler only after the
     * outer search returned — but the pool keeps that a performance
     * fact instead of a correctness assumption).
     */
    struct PermScratch
    {
        std::vector<CommId> ids;
        /** Precomputed ordering keys: one key evaluation per id
         *  instead of one per sort comparison. */
        std::vector<std::pair<std::uint64_t, CommId>> orderKeys;
        std::vector<std::optional<ReadStub>> prevRead;
        std::vector<std::optional<WriteStub>> prevWrite;
        std::vector<std::vector<ReadStub>> readStore;
        std::vector<std::vector<WriteStub>> writeStore;
        std::vector<std::span<const ReadStub>> readCands;
        std::vector<std::span<const WriteStub>> writeCands;
        std::vector<int> choice;
        std::vector<ValueId> distinctValues;
        InlineBitset candidateBuses;
    };

    /** RAII lease on the scratch frame at the current nesting depth. */
    struct ScratchGuard
    {
        explicit ScratchGuard(BlockScheduler &owner);
        ~ScratchGuard();
        ScratchGuard(const ScratchGuard &) = delete;
        ScratchGuard &operator=(const ScratchGuard &) = delete;
        BlockScheduler &owner_;
        PermScratch &sc;
    };

    /**
     * Set when the last rejection was cycle-level (the write-side
     * permutation failed): every unit of the same class completes on
     * the same cycle, so trying the remaining units is pointless.
     */
    bool lastFailureCycleLevel_ = false;
    /** Attempts spent on the current top-level operation. */
    std::uint64_t attemptsThisOp_ = 0;
    /** Current cap on attemptsThisOp_ (tightened inside copies). */
    std::uint64_t attemptCap_ = 0;

    /** True once an armed abort flag has been observed raised. */
    bool abortRequested()
    {
        if (aborted_)
            return true;
        if ((abortFlag_ != nullptr &&
             abortFlag_->load(std::memory_order_relaxed)) ||
            (externalAbortFlag_ != nullptr &&
             externalAbortFlag_->load(std::memory_order_relaxed))) {
            aborted_ = true;
            // Classified once, at the latch transition: everything the
            // unwind rejects afterwards is a casualty of this abort,
            // not a scheduling fact worth counting per-site.
            noteReject(RejectReason::Aborted);
        }
        return aborted_;
    }
    /** External cancellation request (null when disarmed). */
    const std::atomic<bool> *abortFlag_ = nullptr;
    /** Second cancellation source (serving deadlines); see
     *  setExternalAbortFlag. */
    const std::atomic<bool> *externalAbortFlag_ = nullptr;
    /** Latched locally so unwinding never re-reads the atomic. */
    bool aborted_ = false;

    Kernel kernel_;
    BlockId block_;
    const Machine &machine_;
    SchedulerOptions options_;
    int ii_;
    /** Set only by the context-building constructor. */
    std::unique_ptr<BlockSchedulingContext> ownedCtx_;
    /** Shared per-(kernel, block, machine) analysis (never null). */
    const BlockSchedulingContext *ctx_;
    /** Convenience alias for ctx_->ddg(). */
    const Ddg &ddg_;
    BlockSchedule schedule_;
    ReservationTable reservations_;
    CommTable comms_;
    UndoLog log_;
    CounterSet stats_;
    mutable HotCounters hot_; // const candidate queries count prunes
    std::string failure_;

    /** Scratch frames, indexed by permutation nesting depth. */
    std::vector<std::unique_ptr<PermScratch>> permPool_;
    std::size_t permDepth_ = 0;

    /**
     * Per-copy-depth scratch for the placement driver. scheduleOp at
     * depth d iterates unitChoices' result and closeRoutes' closing
     * list while copy insertion re-enters the driver at depth d+1
     * (insertAndScheduleCopy always increments), so frames indexed by
     * copyDepth never alias a live iteration. Reusing the frames
     * keeps the driver's per-placement work allocation-free after
     * warm-up.
     */
    struct DriverScratch
    {
        std::vector<FuncUnitId> choices;
        std::vector<std::pair<std::pair<double, std::uint32_t>,
                              FuncUnitId>>
            ranked;
        std::vector<CommId> closing;
    };
    mutable std::vector<DriverScratch> driverScratch_;
    DriverScratch &driverFrame(int copyDepth) const
    {
        // Sized once for every reachable depth (copy insertion stops
        // recursing at maxCopyDepth): the pool never reallocates
        // afterwards, so frame references held across nested
        // driverFrame calls stay valid.
        if (driverScratch_.size() <= static_cast<std::size_t>(copyDepth)) {
            driverScratch_.resize(std::max<std::size_t>(
                copyDepth + 1, options_.maxCopyDepth + 1));
        }
        return driverScratch_[static_cast<std::size_t>(copyDepth)];
    }

    /**
     * Candidate-ranking scratch. The candidate functions never nest
     * (each completes before any other scheduler code runs), so one
     * frame each suffices; mutable because ranking is a const query.
     * The read entries carry a single packed sort key (rank in the
     * high bits, original list index in the low bits): keys are
     * unique, so a plain std::sort reproduces the stable order
     * without stable_sort's per-call temporary buffer. The write side
     * emits through a counting sort (ranks are small integers and the
     * bus rotation is a bucket walk), so it needs no pair vector.
     */
    mutable std::vector<std::pair<std::uint64_t, ReadStub>> rankedRead_;
    /** Per-bus value cache, memoized against the reservation row it
     *  was filled from: (normalized cycle, stub generation) identifies
     *  the row's content exactly (the generation is monotone — see
     *  ReservationTable::stubGeneration), so every candidate query of
     *  one permutation call — and any later query against an
     *  unmutated row — reuses a single fill. */
    mutable std::vector<ValueId> busValueScratch_;
    mutable int busValRow_ = -1;
    mutable std::uint32_t busValGen_ = 0;
    mutable bool busValValid_ = false;
    /** Write-candidate counting sort: per-stub rank and bucket
     *  offsets. */
    mutable std::vector<int> stubRankScratch_;
    mutable std::vector<int> bucketScratch_;

    /**
     * @name Write-candidate emission plans
     * writeCandidatesFor spends its time deriving, per stub, a rank
     * from tables that depend only on the reader's shape and the
     * writer's unit — not on live reservation state. A plan bakes
     * that derivation once: the unit's stub list regrouped bus-major
     * into rank-homogeneous runs (route-pruned stubs dropped), so a
     * query reduces to walking the runs in rotated-bus order and
     * bulk-copying each run into its rank bucket. Live state enters
     * only per bus — does the bus already broadcast the value? — plus
     * the single currently-held stub; the few buses where that
     * matters are re-ranked stub-by-stub, exactly as the unplanned
     * loop ranks them, so the emitted order is identical. Plans are
     * keyed by the context table row's address (stable — the context
     * is immutable and outlives the scheduler) and the writer's unit,
     * and build lazily on first use so small blocks never pay.
     */
    /// @{
    struct WriteEmitPlan
    {
        /** Maximal same-rank slice of one bus's stubs, in original
         *  stub-list order. Open plans use rank 3 (reachable) and 7
         *  (serviceable-only) — the default open ranks, refined per
         *  query only on special buses. Closing plans store the
         *  context's base rank; BlockSchedulingContext::kSameFile
         *  resolves to 0/1 per query from the bus's live value. */
        struct Run
        {
            std::uint16_t rank = 0;
            std::uint32_t begin = 0;
            std::uint32_t end = 0;
        };
        /** One bus with at least one usable stub: its run slice.
         *  Ascending by bus, so the rotated emission walk is a split
         *  at the first entry >= the start bus. Only occupied buses
         *  appear — a unit's stubs ride few of the machine's buses,
         *  and per-query work scales with those, not the machine. */
        struct BusRuns
        {
            std::uint32_t bus = 0;
            std::uint32_t firstRun = 0;
            std::uint32_t endRun = 0;
        };
        std::vector<WriteStub> stubs; ///< bus-major, run-grouped
        std::vector<Run> runs;
        std::vector<BusRuns> buses;
        /** Stubs dropped by the route mask: charged to the
         *  prune_route_mask counter once per query, as the unplanned
         *  loop would. */
        std::uint32_t pruned = 0;
    };
    struct WritePlanKey
    {
        const void *row = nullptr;
        std::uint32_t fu = 0;
        bool operator==(const WritePlanKey &) const = default;
    };
    struct WritePlanKeyHash
    {
        std::size_t operator()(const WritePlanKey &k) const
        {
            auto h = reinterpret_cast<std::uintptr_t>(k.row);
            h ^= (h >> 17) + std::uintptr_t{k.fu} *
                                 std::uintptr_t{0x9E3779B97F4A7C15ULL};
            return static_cast<std::size_t>(h);
        }
    };
    const WriteEmitPlan &
    openWritePlan(std::span<const std::uint8_t> codes,
                  FuncUnitId fu) const;
    const WriteEmitPlan &
    closeWritePlan(std::span<const std::uint16_t> base,
                   FuncUnitId fu) const;
    mutable std::unordered_map<WritePlanKey, WriteEmitPlan,
                               WritePlanKeyHash>
        writePlans_;
    /** Special-bus scratch for one open query: (bus, offset into
     *  stubRankScratch_) per bus needing stub-level ranks. */
    mutable std::vector<std::pair<std::uint32_t, std::uint32_t>>
        specialBusScratch_;
    /// @}
};

} // namespace cs

#endif // CS_CORE_COMM_SCHEDULER_HPP
