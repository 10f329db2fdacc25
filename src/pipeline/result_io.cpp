#include "pipeline/result_io.hpp"

namespace cs {

namespace {

constexpr std::uint32_t kResultFormatVersion = 2;
/** Went on after sched.failure with the scheduled kernel, its
 *  counters, placements and routes, which a reader ignores. */
constexpr std::uint32_t kVersionWithSchedule = 1;

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
    writer.boolean(result.sched.success);
    writer.boolean(result.sched.cancelled);
    writer.str(result.sched.failure);
}

bool
decodeJobResult(std::span<const std::uint8_t> record, JobResult *out,
                std::string *error)
{
    wire::ByteReader reader(record);
    std::uint32_t version = reader.u32();
    if (!reader.failed() && version != kResultFormatVersion &&
        version != kVersionWithSchedule) {
        reader.fail("unsupported result format version " +
                    std::to_string(version));
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
    out->sched.success = reader.boolean();
    out->sched.cancelled = reader.boolean();
    out->sched.failure = reader.str();
    if (version == kResultFormatVersion && !reader.atEnd())
        reader.fail("bytes after the end of a result record");
    if (reader.failed() && error != nullptr)
        *error = reader.error();
    return !reader.failed();
}

} // namespace cs
