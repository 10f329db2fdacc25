/**
 * @file
 * Per-cycle resource reservation: functional-unit issue slots, buses,
 * register-file ports, and functional-unit inputs. Implements the
 * paper's stub sharing rules: a result may be broadcast (several write
 * stubs of the same value may share one bus), identical write stubs of
 * one value are reference-counted, and identical read stubs for the
 * same operand are shared. Everything else conflicts.
 *
 * For modulo schedules pass ii > 0: all cycles are folded into
 * [0, ii) so a reservation repeats every initiation interval.
 *
 * Layout: a flat, growable array of per-cycle states (a fixed ring of
 * ii entries when folding), each carrying bitset occupancy masks per
 * resource class and per-bus role counters alongside the refcounted
 * use lists. Probes (canAcquire*) answer from the masks in O(1) in the
 * common no-overlap case and fall back to the exact sharing rules only
 * when a resource genuinely collides, with answers bit-identical to
 * the reference use-list scan (tests/test_reservation.cpp keeps a
 * reference implementation and checks equivalence on random traces).
 *
 * Rollback is the caller's business: the scheduler journals the
 * inverse of each net change (core/undo_log.hpp) and replays it, so
 * the table never snapshots or restores its own state.
 */

#ifndef CS_CORE_RESERVATION_HPP
#define CS_CORE_RESERVATION_HPP

#include <span>
#include <utility>
#include <vector>

#include "machine/machine.hpp"
#include "machine/stub.hpp"
#include "support/bitset.hpp"
#include "support/ids.hpp"

namespace cs {

/** Reservation table over normalized cycles. */
class ReservationTable
{
  public:
    explicit ReservationTable(const Machine &machine, int ii = 0);

    int ii() const { return ii_; }
    int norm(int cycle) const;

    /** @name Functional-unit issue slots */
    /// @{
    bool fuFree(FuncUnitId fu, int cycle) const;
    void acquireFu(FuncUnitId fu, int cycle, OperationId op);
    void releaseFu(FuncUnitId fu, int cycle, OperationId op);

    /** The (unit, operation) pairs issued this cycle; the view is
     *  valid until the next acquireFu / releaseFu. */
    std::span<const std::pair<FuncUnitId, OperationId>>
    issuedAt(int cycle) const;
    /// @}

    /** @name Write stubs */
    /// @{
    bool canAcquireWrite(const WriteStub &stub, ValueId value,
                         int cycle) const;
    void acquireWrite(const WriteStub &stub, ValueId value, int cycle);
    void releaseWrite(const WriteStub &stub, ValueId value, int cycle);

    /**
     * True when an identical (stub, value) reservation already exists
     * this cycle: acquiring it again shares hardware for free (the
     * same result broadcast through the same path).
     */
    bool hasIdenticalWrite(const WriteStub &stub, ValueId value,
                           int cycle) const;

    /** Number of distinct buses carrying anything this cycle (O(1):
     *  maintained incrementally as uses come and go). */
    int busesOccupied(int cycle) const;

    /**
     * True when @p bus already carries @p value in write role this
     * cycle: adding another write stub of the same value on this bus
     * (into another file) costs no extra bus.
     */
    bool busCarriesValue(BusId bus, ValueId value, int cycle) const;

    /**
     * Whether @p bus could carry @p value this cycle: it is either
     * idle or already carrying exactly that value in write role.
     */
    bool busAvailableForValue(BusId bus, ValueId value, int cycle) const;

    /** True when any read stub occupies @p bus this cycle. */
    bool busHasRead(BusId bus, int cycle) const;

    /**
     * Combined write-side bus probe: busHasRead and busWriteValue in
     * one row lookup, for the permutation search's per-candidate cut
     * (two separate calls pay the cycle-normalization twice).
     */
    struct BusWriteProbe
    {
        bool hasRead = false;
        ValueId value; ///< write-role value; invalid when none
    };
    BusWriteProbe busWriteProbe(BusId bus, int cycle) const;

    /** True when any write stub occupies @p bus this cycle. */
    bool busHasWrite(BusId bus, int cycle) const;

    /**
     * The value @p bus carries in write role this cycle; invalid when
     * no write stub occupies the bus. (A bus carries at most one value
     * per cycle, so this is well defined.)
     */
    ValueId busWriteValue(BusId bus, int cycle) const;
    /// @}

    /** @name Read stubs */
    /// @{
    bool canAcquireRead(const ReadStub &stub, OperationId reader,
                        int slot, int cycle) const;
    void acquireRead(const ReadStub &stub, OperationId reader, int slot,
                     int cycle);
    void releaseRead(const ReadStub &stub, OperationId reader, int slot,
                     int cycle);
    /// @}

    /**
     * Fill @p out (resized to the bus count) with each bus's
     * write-role value this cycle: busWriteValue for every bus in a
     * single row lookup instead of one per bus.
     */
    void fillBusWriteValues(int cycle, std::vector<ValueId> &out) const;

  private:
    struct WriteUse
    {
        WriteStub stub;
        ValueId value;
        int refs = 0;
    };

    struct ReadUse
    {
        ReadStub stub;
        OperationId reader;
        int slot = 0;
        int refs = 0;
    };

    /** Per-bus role counters; distinct uses per role (not refcounts). */
    struct BusState
    {
        std::uint16_t writeUses = 0;
        std::uint16_t readUses = 0;
        ValueId value; ///< write-role value; invalid when writeUses == 0
    };

    struct CycleState
    {
        /** (fu, op) pairs issued this cycle. */
        std::vector<std::pair<FuncUnitId, OperationId>> fuBusy;
        std::vector<WriteUse> writes;
        std::vector<ReadUse> reads;

        /** Occupancy masks. Write outputs and buses may be shared by
         *  several uses (broadcast); their bits are maintained from
         *  the use lists / bus counters on removal. Write ports and
         *  all read-side resources are exclusive per use. */
        InlineBitset fuBits;
        InlineBitset wOut, wBus, wPort;
        InlineBitset rPort, rBus, rInput;
        std::vector<BusState> bus;
        int busesOccupied = 0;
        bool initialized = false;

        void init(const Machine &machine);
    };

    const CycleState *stateAt(int cycle) const;
    CycleState &mutableStateAt(int cycle);

    /** Bookkeeping around use-list insert/erase. */
    void noteWriteUseAdded(CycleState &state, const WriteStub &stub,
                           ValueId value);
    void noteWriteUseRemoved(CycleState &state, const WriteStub &stub);
    void noteReadUseAdded(CycleState &state, const ReadStub &stub);
    void noteReadUseRemoved(CycleState &state, const ReadStub &stub);

    const Machine *machine_;
    int ii_ = 0;
    std::vector<CycleState> cycles_;
};

} // namespace cs

#endif // CS_CORE_RESERVATION_HPP
