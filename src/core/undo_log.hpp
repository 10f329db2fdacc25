/**
 * @file
 * Undo journal for the scheduling engine. Every mutation of scheduler
 * state (reservations, placements, communication records, inserted
 * copies) is recorded; a failed placement attempt rolls back by
 * replaying the journal in reverse to a mark. This replaces full-state
 * snapshots, which dominated scheduling time on large kernels. A step
 * whose intermediate moves cancel out (the write-stub search's trial
 * acquires and releases) journals only its net change.
 *
 * All mutations are LIFO-compatible: communications are only appended
 * (undo pops the newest, from the table and its reader/writer
 * indices), placements are only appended to their write-stub row's
 * list (undo pops the newest), copies are only appended to the kernel
 * (undo removes the newest), so reverse replay restores state exactly.
 */

#ifndef CS_CORE_UNDO_LOG_HPP
#define CS_CORE_UNDO_LOG_HPP

#include <optional>
#include <vector>

#include "machine/stub.hpp"
#include "support/ids.hpp"

namespace cs {

/** One reversible mutation. */
struct UndoEntry
{
    enum class Kind : std::uint8_t
    {
        Placed,         ///< undo: unplace the operation, free the unit
        ReadAcquired,   ///< undo: release the read stub
        ReadReleased,   ///< undo: re-acquire the read stub
        WriteAcquired,  ///< undo: release the write stub
        WriteReleased,  ///< undo: re-acquire the write stub
        ReadStubSet,    ///< undo: restore previous comm read stub
        WriteStubSet,   ///< undo: restore previous comm write stub
        ClosedSet,      ///< undo: reopen the communication
        CommCreated,    ///< undo: pop the newest communication
        CommDeactivated,///< undo: reactivate the communication
        CopyInserted,   ///< undo: remove the newest copy operation
        UseRetargeted,  ///< undo: point the operand back at value
    };

    Kind kind;
    // Generic payload fields; which are meaningful depends on kind.
    FuncUnitId fu;
    OperationId op;
    int cycle = 0;
    int slot = 0;
    ValueId value;
    CommId comm;
    ReadStub readStub{};
    WriteStub writeStub{};
    std::optional<ReadStub> prevRead;
    std::optional<WriteStub> prevWrite;
};

/** Append-only journal with position marks. */
class UndoLog
{
  public:
    using Mark = std::size_t;

    Mark mark() const { return entries_.size(); }
    void push(UndoEntry entry) { entries_.push_back(std::move(entry)); }

    /** Entries newest-first down to (and excluding) @p mark. */
    template <typename Fn>
    void
    unwindTo(Mark mark, Fn &&apply)
    {
        while (entries_.size() > mark) {
            apply(entries_.back());
            entries_.pop_back();
        }
    }

    std::size_t size() const { return entries_.size(); }

  private:
    std::vector<UndoEntry> entries_;
};

} // namespace cs

#endif // CS_CORE_UNDO_LOG_HPP
