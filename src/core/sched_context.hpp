/**
 * @file
 * Shared per-(kernel, block, machine) scheduling analysis. Everything
 * a BlockScheduler needs that does not depend on the initiation
 * interval, the options, or the evolving schedule is computed once
 * here and borrowed read-only by every attempt:
 *
 *  - the data-dependence graph with its ResMII/RecMII lower bounds,
 *  - the operation priority orders for both scheduling directions,
 *  - the per-class issue-slot pressure of the original operation mix,
 *  - stub feasibility/rank tables: for every reader shape a per-file
 *    serviceability class row for the open write-candidate query, per
 *    read-file base-rank rows for the closing query, and the minimum
 *    copy distance from each unit's writable files to each register
 *    file.
 *
 * The tables fold the Section 4.5 serviceability test (reachability
 * closure x readable-file masks) into one array lookup per register
 * file; the scheduler bakes each row into a write emission plan per
 * writing unit (BlockScheduler::WriteEmitPlan). The modulo
 * scheduler's II search constructs the context once and shares it
 * across every (ii, variant) attempt, serial or speculative.
 *
 * Thread safety: immutable after construction; any number of
 * schedulers on any threads may read one context concurrently. The
 * referenced kernel and machine must outlive the context.
 */

#ifndef CS_CORE_SCHED_CONTEXT_HPP
#define CS_CORE_SCHED_CONTEXT_HPP

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "ir/ddg.hpp"
#include "ir/kernel.hpp"
#include "machine/machine.hpp"
#include "machine/opclass.hpp"

namespace cs {

/** Build the scheduling order the paper's Section 4.6 defines over a
 *  DDG: by descending height (operation order) or ascending ASAP
 *  (cycle order, the ablation baseline). */
std::vector<OperationId> buildScheduleOrder(const Ddg &ddg,
                                            bool operationOrder);

class BlockSchedulingContext
{
  public:
    BlockSchedulingContext(const Kernel &kernel, BlockId block,
                           const Machine &machine);

    BlockSchedulingContext(const BlockSchedulingContext &) = delete;
    BlockSchedulingContext &
    operator=(const BlockSchedulingContext &) = delete;

    const Kernel &kernel() const { return kernel_; }
    BlockId block() const { return block_; }
    const Machine &machine() const { return machine_; }
    const Ddg &ddg() const { return ddg_; }

    /** II lower bounds, computed once at construction. */
    int resMii() const { return resMii_; }
    int recMii() const { return recMii_; }
    int mii() const { return resMii_ > recMii_ ? resMii_ : recMii_; }

    /** Priority order for the requested scheduling direction. */
    const std::vector<OperationId> &
    scheduleOrder(bool operationOrder) const
    {
        return operationOrder ? orderByHeight_ : orderByCycle_;
    }

    /** Issue-slot pressure (uses / units) per operation class. */
    const std::array<double, kNumOpClasses> &
    classPressure() const
    {
        return classPressure_;
    }

    /**
     * @name Open write-candidate classes
     * One byte per register file describing how a write stub into that
     * file relates to the given reader shape: kStubPruned (the file
     * cannot reach any file the reader could fetch from, even through
     * copies — the Section 4.5 trap), kStubReachable (directly
     * readable), or kStubServiceableOnly (needs at least one copy).
     * Rows are indexed by register-file index; a candidate query looks
     * up row[writePortRegFile(stub.writePort)] per stub.
     */
    /// @{
    static constexpr std::uint8_t kStubPruned = 0;
    static constexpr std::uint8_t kStubReachable = 1;
    static constexpr std::uint8_t kStubServiceableOnly = 2;

    /** Reader already placed on @p readerFu, fetching operand @p slot. */
    std::span<const std::uint8_t>
    openCodesScheduled(FuncUnitId readerFu, int slot) const
    {
        return openRow(keyScheduled(readerFu, slot));
    }

    /** Reader is a copy already placed on @p readerFu (any slot). */
    std::span<const std::uint8_t>
    openCodesScheduledCopy(FuncUnitId readerFu) const
    {
        return openRow(keyScheduledCopy(readerFu));
    }

    /** Reader not placed yet: any unit executing @p opcode. */
    std::span<const std::uint8_t>
    openCodesUnscheduled(Opcode opcode, int slot) const
    {
        return openRow(keyUnscheduled(opcode, slot));
    }

    /** Reader is a copy not placed yet. */
    std::span<const std::uint8_t>
    openCodesUnscheduledCopy() const
    {
        return openRow(keyUnscheduledCopy());
    }
    /// @}

    /**
     * Closing write-candidate base ranks: for a stub into register
     * file rf against a reader fetching from @p readRf, the rank
     * min(2 + copyDistance(rf, readRf), numRegFiles + 3), or kSameFile
     * when rf == readRf (the query then ranks 0/1 by live bus state).
     * Row indexed by the stub's register-file index.
     */
    static constexpr std::uint16_t kSameFile = 0xFFFF;
    std::span<const std::uint16_t>
    closeBaseRow(RegFileId readRf) const
    {
        std::size_t n = machine_.numRegFiles();
        return {closeBase_.data() + readRf.index() * n, n};
    }

    /** min over files writable by @p fu of copyDistance(file, @p to);
     *  Machine::kUnreachable when no copy chain exists. */
    int
    minCopiesFromFu(FuncUnitId fu, RegFileId to) const
    {
        return minCopiesFromFu_[fu.index() * machine_.numRegFiles() +
                                to.index()];
    }

  private:
    std::size_t keyScheduled(FuncUnitId fu, int slot) const;
    std::size_t keyScheduledCopy(FuncUnitId fu) const;
    std::size_t keyUnscheduled(Opcode opcode, int slot) const;
    std::size_t keyUnscheduledCopy() const;
    std::size_t numReaderKeys() const;

    std::span<const std::uint8_t>
    openRow(std::size_t key) const
    {
        std::size_t n = machine_.numRegFiles();
        return {openCode_.data() + key * n, n};
    }

    const Kernel &kernel_;
    BlockId block_;
    const Machine &machine_;
    Ddg ddg_;
    int resMii_ = 0;
    int recMii_ = 0;
    std::vector<OperationId> orderByHeight_;
    std::vector<OperationId> orderByCycle_;
    std::array<double, kNumOpClasses> classPressure_{};

    /** Largest operand count of any functional unit (key stride). */
    std::size_t maxInputs_ = 0;
    /** [readerKey * numRegFiles + rf] -> class code. */
    std::vector<std::uint8_t> openCode_;
    /** [readRf * numRegFiles + rf] -> closing base rank. */
    std::vector<std::uint16_t> closeBase_;
    /** [fu * numRegFiles + rf] -> min copy distance. */
    std::vector<int> minCopiesFromFu_;
};

} // namespace cs

#endif // CS_CORE_SCHED_CONTEXT_HPP
