#include "core/communication.hpp"

#include "support/logging.hpp"

namespace cs {

namespace {

std::span<const CommId>
listOf(const std::vector<std::vector<CommId>> &index, OperationId op)
{
    if (!op.valid() || op.index() >= index.size())
        return {};
    return index[op.index()];
}

void
append(std::vector<std::vector<CommId>> &index, OperationId op,
       CommId id)
{
    if (op.index() >= index.size())
        index.resize(op.index() + 1);
    index[op.index()].push_back(id);
}

void
popNewest(std::vector<std::vector<CommId>> &index, OperationId op,
          CommId id)
{
    std::vector<CommId> &list = index[op.index()];
    CS_ASSERT(!list.empty() && list.back() == id,
              "communication index out of sync");
    list.pop_back();
}

} // namespace

CommId
CommTable::find(OperationId reader, int slot) const
{
    for (CommId id : readBy(reader)) {
        const Communication &comm = comms_[id.index()];
        if (comm.active && comm.slot == slot)
            return id;
    }
    return CommId();
}

CommId
CommTable::create(OperationId writer, ValueId value, OperationId reader,
                  int slot, int distance)
{
    CS_ASSERT(reader.valid(), "communication without a reader");
    CS_ASSERT(!find(reader, slot).valid(),
              "communication already exists for this operand");
    CommId id(static_cast<std::uint32_t>(comms_.size()));
    Communication comm;
    comm.id = id;
    comm.writer = writer;
    comm.value = value;
    comm.reader = reader;
    comm.slot = slot;
    comm.distance = distance;
    comms_.push_back(comm);
    append(byReader_, reader, id);
    if (writer.valid())
        append(byWriter_, writer, id);
    return id;
}

void
CommTable::deactivate(CommId id)
{
    Communication &comm = get(id);
    CS_ASSERT(comm.active, "communication already inactive");
    comm.active = false;
}

void
CommTable::removeLast(CommId id)
{
    CS_ASSERT(!comms_.empty() && comms_.back().id == id,
              "removeLast must pop the newest communication");
    const Communication &comm = comms_.back();
    popNewest(byReader_, comm.reader, id);
    if (comm.writer.valid())
        popNewest(byWriter_, comm.writer, id);
    comms_.pop_back();
}

void
CommTable::reactivate(CommId id)
{
    Communication &comm = get(id);
    CS_ASSERT(!comm.active, "communication already active");
    comm.active = true;
}

Communication &
CommTable::get(CommId id)
{
    CS_ASSERT(id.valid() && id.index() < comms_.size(), "bad comm id ",
              id);
    return comms_[id.index()];
}

const Communication &
CommTable::get(CommId id) const
{
    CS_ASSERT(id.valid() && id.index() < comms_.size(), "bad comm id ",
              id);
    return comms_[id.index()];
}

std::span<const CommId>
CommTable::readBy(OperationId op) const
{
    return listOf(byReader_, op);
}

std::span<const CommId>
CommTable::writtenBy(OperationId op) const
{
    return listOf(byWriter_, op);
}

} // namespace cs
