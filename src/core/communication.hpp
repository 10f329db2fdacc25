/**
 * @file
 * The communication abstraction (paper Section 3): one producer ->
 * consumer-operand value transfer, with the incremental open/closed
 * lifecycle of Section 4.2 / Figure 14. A communication is *open* when
 * only one of its endpoints is scheduled (its single stub is tentative
 * and may be re-permuted); it is *closed* once both stubs are pinned
 * and form a route through one register file.
 *
 * Live-in communications (the value enters the block from a preamble
 * or a prior iteration in a non-pipelined schedule) have no writer and
 * close with a read stub alone.
 */

#ifndef CS_CORE_COMMUNICATION_HPP
#define CS_CORE_COMMUNICATION_HPP

#include <optional>
#include <span>
#include <vector>

#include "machine/stub.hpp"
#include "support/ids.hpp"

namespace cs {

/** One communication and its (partially) assigned route endpoints. */
struct Communication
{
    CommId id;
    /** Producing operation; invalid for live-ins. */
    OperationId writer;
    /** The communicated value. */
    ValueId value;
    /** Consuming operation and operand slot. */
    OperationId reader;
    int slot = 0;
    /** Iteration distance of the reader's operand. */
    int distance = 0;

    bool closed = false;
    bool active = true; ///< false once split by a copy insertion

    std::optional<WriteStub> writeStub;
    std::optional<ReadStub> readStub;

    bool isLiveIn() const { return !writer.valid(); }
};

/**
 * All communications of one block scheduling session. Communications
 * are created lazily as the endpoints get scheduled; the table is
 * copyable so the scheduler can snapshot and roll back failed
 * placements.
 *
 * Each operation's communications are indexed by reader and by
 * writer, so "which communications does this operation read or
 * write?" is a lookup rather than a scan. Ids are handed out in
 * creation order and only the newest is ever removed, so appending on
 * create and popping on removeLast keeps every list in ascending id
 * order. Deactivation only flips the flag: the lists hold active and
 * inactive entries alike.
 */
class CommTable
{
  public:
    /** The active communication feeding (reader, slot), if any. */
    CommId find(OperationId reader, int slot) const;

    /** Create a communication; returns its id. */
    CommId create(OperationId writer, ValueId value, OperationId reader,
                  int slot, int distance);

    /** Deactivate a communication (it was split by a copy). */
    void deactivate(CommId id);

    /** Undo helpers (LIFO discipline enforced). */
    void removeLast(CommId id);
    void reactivate(CommId id);

    Communication &get(CommId id);
    const Communication &get(CommId id) const;

    /**
     * Every communication read by @p op, in ascending id order. The
     * view is valid until the next create or removeLast.
     */
    std::span<const CommId> readBy(OperationId op) const;

    /** Likewise, every communication written by @p op. */
    std::span<const CommId> writtenBy(OperationId op) const;

    std::size_t size() const { return comms_.size(); }
    const std::vector<Communication> &all() const { return comms_; }

  private:
    std::vector<Communication> comms_;
    /** Ids by reader / writer operation index. */
    std::vector<std::vector<CommId>> byReader_;
    std::vector<std::vector<CommId>> byWriter_;
};

} // namespace cs

#endif // CS_CORE_COMMUNICATION_HPP
