#include "pipeline/result_io.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "ir/serialize.hpp"

namespace cs {

namespace {

constexpr std::uint32_t kResultFormatVersion = 1;
constexpr std::uint32_t kInvalidIndex = 0xffffffffu;

template <typename Tag>
void
encodeId(wire::ByteWriter &writer, Id<Tag> id)
{
    writer.u32(id.valid() ? id.index() : kInvalidIndex);
}

template <typename Tag>
Id<Tag>
decodeId(wire::ByteReader &reader)
{
    std::uint32_t v = reader.u32();
    return v == kInvalidIndex ? Id<Tag>() : Id<Tag>(v);
}

void
encodeCounters(wire::ByteWriter &writer, const CounterSet &stats)
{
    writer.u32(static_cast<std::uint32_t>(std::ranges::count_if(
        kAllCounters, [&stats](CounterId id) { return stats.listed(id); })));
    stats.forEach([&writer](std::string_view name, std::uint64_t value) {
        writer.str(name);
        writer.u64(value);
    });
}

/** Counters by name: a name not declared (a retired counter) is
 *  skipped, so records of older builds still read. */
bool
decodeCounters(wire::ByteReader &reader, CounterSet *stats)
{
    std::uint32_t count = reader.arrayCount(12);
    for (std::uint32_t i = 0; i < count && !reader.failed(); ++i) {
        std::string name = reader.str();
        std::uint64_t value = reader.u64();
        std::optional<CounterId> id = findCounter(name);
        if (id && !reader.failed())
            stats->bump(*id, value);
    }
    return !reader.failed();
}

} // namespace

void
encodeJobResult(wire::ByteWriter &writer, const JobResult &result)
{
    writer.u32(kResultFormatVersion);
    writer.boolean(result.success);
    writer.boolean(result.cacheHit);
    writer.boolean(result.cancelled);
    writer.i32(result.ii);
    writer.i32(result.resMii);
    writer.i32(result.recMii);
    writer.i32(result.iiAttempts);
    writer.i32(result.iiAttemptsWasted);
    writer.i32(result.length);
    writer.i32(result.copiesInserted);
    writer.f64(result.wallMs);
    writer.str(result.listing);
    writer.u32(static_cast<std::uint32_t>(result.verifierErrors.size()));
    for (const std::string &error : result.verifierErrors)
        writer.str(error);

    const ScheduleResult &sched = result.sched;
    writer.boolean(sched.success);
    writer.boolean(sched.cancelled);
    writer.str(sched.failure);
    encodeKernel(writer, sched.kernel);
    encodeCounters(writer, sched.stats);

    const BlockSchedule &schedule = sched.schedule;
    encodeId(writer, schedule.block());
    writer.i32(schedule.ii());
    std::uint32_t placed = 0;
    for (std::size_t i = 0; i < sched.kernel.numOperations(); ++i) {
        if (schedule.isScheduled(
                OperationId(static_cast<std::uint32_t>(i)))) {
            ++placed;
        }
    }
    writer.u32(placed);
    for (std::size_t i = 0; i < sched.kernel.numOperations(); ++i) {
        OperationId op(static_cast<std::uint32_t>(i));
        if (!schedule.isScheduled(op))
            continue;
        const Placement &p = schedule.placement(op);
        writer.u32(op.index());
        writer.i32(p.cycle);
        encodeId(writer, p.fu);
    }
    writer.u32(static_cast<std::uint32_t>(schedule.routes().size()));
    for (const RouteRecord &route : schedule.routes()) {
        encodeId(writer, route.writer);
        encodeId(writer, route.value);
        encodeId(writer, route.reader);
        writer.i32(route.slot);
        writer.i32(route.distance);
        writer.boolean(route.writeStub.has_value());
        if (route.writeStub.has_value()) {
            encodeId(writer, route.writeStub->output);
            encodeId(writer, route.writeStub->bus);
            encodeId(writer, route.writeStub->writePort);
        }
        encodeId(writer, route.readStub.readPort);
        encodeId(writer, route.readStub.bus);
        encodeId(writer, route.readStub.input);
    }
}

bool
decodeJobResult(wire::ByteReader &reader, JobResult *out)
{
    std::uint32_t version = reader.u32();
    if (!reader.failed() && version != kResultFormatVersion) {
        reader.fail("unsupported result format version " +
                    std::to_string(version));
        return false;
    }
    out->success = reader.boolean();
    out->cacheHit = reader.boolean();
    out->cancelled = reader.boolean();
    out->ii = reader.i32();
    out->resMii = reader.i32();
    out->recMii = reader.i32();
    out->iiAttempts = reader.i32();
    out->iiAttemptsWasted = reader.i32();
    out->length = reader.i32();
    out->copiesInserted = reader.i32();
    out->wallMs = reader.f64();
    out->listing = reader.str();
    std::uint32_t numErrors = reader.arrayCount(4);
    out->verifierErrors.clear();
    for (std::uint32_t i = 0; i < numErrors && !reader.failed(); ++i)
        out->verifierErrors.push_back(reader.str());

    ScheduleResult &sched = out->sched;
    sched.success = reader.boolean();
    sched.cancelled = reader.boolean();
    sched.failure = reader.str();
    std::optional<Kernel> kernel;
    if (!decodeKernel(reader, &kernel))
        return false;
    sched.kernel = std::move(*kernel);
    sched.stats = CounterSet();
    if (!decodeCounters(reader, &sched.stats))
        return false;

    BlockId block = decodeId<BlockTag>(reader);
    std::int32_t ii = reader.i32();
    if (reader.failed())
        return false;
    if (!block.valid() || block.index() >= sched.kernel.numBlocks()) {
        reader.fail("schedule references bad block");
        return false;
    }
    if (ii < 0 || ii > (1 << 20)) {
        reader.fail("bad initiation interval");
        return false;
    }
    BlockSchedule schedule(block, ii);
    const std::uint32_t numOps =
        static_cast<std::uint32_t>(sched.kernel.numOperations());
    std::uint32_t placed = reader.arrayCount(12);
    for (std::uint32_t i = 0; i < placed && !reader.failed(); ++i) {
        std::uint32_t op = reader.u32();
        std::int32_t cycle = reader.i32();
        FuncUnitId fu = decodeId<FuncUnitTag>(reader);
        if (reader.failed())
            return false;
        if (op >= numOps) {
            reader.fail("placement references bad operation");
            return false;
        }
        if (schedule.isScheduled(OperationId(op))) {
            reader.fail("operation placed twice");
            return false;
        }
        schedule.place(OperationId(op), cycle, fu);
    }
    std::uint32_t numRoutes = reader.arrayCount(25);
    for (std::uint32_t i = 0; i < numRoutes && !reader.failed(); ++i) {
        RouteRecord route;
        route.writer = decodeId<OperationTag>(reader);
        route.value = decodeId<ValueTag>(reader);
        route.reader = decodeId<OperationTag>(reader);
        route.slot = reader.i32();
        route.distance = reader.i32();
        if (reader.boolean()) {
            WriteStub stub;
            stub.output = decodeId<OutputPortTag>(reader);
            stub.bus = decodeId<BusTag>(reader);
            stub.writePort = decodeId<WritePortTag>(reader);
            route.writeStub = stub;
        }
        route.readStub.readPort = decodeId<ReadPortTag>(reader);
        route.readStub.bus = decodeId<BusTag>(reader);
        route.readStub.input = decodeId<InputPortTag>(reader);
        if (reader.failed())
            return false;
        if (route.writer.valid() && route.writer.index() >= numOps) {
            reader.fail("route references bad writer");
            return false;
        }
        if (!route.reader.valid() || route.reader.index() >= numOps) {
            reader.fail("route references bad reader");
            return false;
        }
        if (route.value.valid() &&
            route.value.index() >= sched.kernel.numValues()) {
            reader.fail("route references bad value");
            return false;
        }
        schedule.addRoute(std::move(route));
    }
    sched.schedule = std::move(schedule);
    return !reader.failed();
}

} // namespace cs
