/**
 * @file
 * Binary serialization of the reply part of a JobResult, the payload
 * of a persistent schedule-cache record (pipeline/persistent_cache.hpp).
 * A record holds what a reply, a batch row or a sweep row reads: the
 * summary fields, the listing, the verifier errors, and the
 * scheduler's success, cancelled and failure fields. A decoded result
 * therefore equals the stored one in everything a reply reads, but its
 * sched has an empty kernel, schedule and counter set.
 *
 * Version 2 is the first part of version 1, cut after sched.failure:
 * version 1 went on with the scheduled kernel, its counters, its
 * placements and its routes. The decoder reads both versions and
 * ignores the rest of a version-1 record.
 */

#ifndef CS_PIPELINE_RESULT_IO_HPP
#define CS_PIPELINE_RESULT_IO_HPP

#include <cstdint>
#include <span>
#include <string>

#include "pipeline/job.hpp"
#include "support/wire.hpp"

namespace cs {

/** Append the version-2 record of @p result to the writer. */
void encodeJobResult(wire::ByteWriter &writer, const JobResult &result);

/**
 * Decode the one record that @p record holds, of either version. A
 * version-2 record must end after sched.failure. The fields a record
 * does not hold (sched.kernel, sched.schedule, sched.stats) are left
 * as they are in @p out. On failure false is returned, @p error (when
 * not null) says why, and @p out is left in an unspecified state.
 */
bool decodeJobResult(std::span<const std::uint8_t> record, JobResult *out,
                     std::string *error = nullptr);

} // namespace cs

#endif // CS_PIPELINE_RESULT_IO_HPP
