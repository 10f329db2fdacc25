/**
 * @file
 * Serializable job sets and the cs_serve wire protocol.
 *
 * A JobSet is the self-contained unit of work a client hands to the
 * scheduler-as-a-service stack: the machines and kernels it references
 * (full descriptions, not names — the server holds no catalog) plus a
 * list of job descriptions binding (machine, kernel, block, options).
 * Both the text format ("jobset { machine {...} kernel {...} job
 * {...} }") and the compact binary format round-trip exactly, because
 * they embed the exact machine/kernel serializers of
 * machine/serialize.hpp and ir/serialize.hpp — so a schedule computed
 * from a parsed description is byte-identical to one computed from the
 * in-process builders (DESIGN.md §5f).
 *
 * The wire protocol is deliberately small: length-prefixed frames
 * ([u32 LE length][payload], readFrame/writeFrame) carrying one binary
 * Request or Response. A Schedule request embeds a binary JobSet with
 * exactly one job; the response carries the lean result summary plus
 * the full listing, which is the byte-equivalence contract surface.
 */

#ifndef CS_SERVE_PROTO_HPP
#define CS_SERVE_PROTO_HPP

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/comm_scheduler.hpp"
#include "ir/kernel.hpp"
#include "machine/machine.hpp"
#include "pipeline/job.hpp"
#include "support/wire.hpp"

namespace cs::serve {

/** One job: indices into the owning JobSet's machines/kernels. */
struct JobDescription
{
    std::string label;
    std::uint32_t machineIndex = 0;
    std::uint32_t kernelIndex = 0;
    std::uint32_t blockIndex = 0;
    bool pipelined = true;
    int maxIiSlack = 64;
    SchedulerOptions options;
};

/** A self-contained batch description. */
struct JobSet
{
    std::vector<Machine> machines;
    std::vector<Kernel> kernels;
    std::vector<JobDescription> jobs;
};

/** Emit the text form: "jobset { ... }" with trailing newline. */
void printJobSet(std::ostream &os, const JobSet &set);

/** Text form as a string. */
std::string printJobSetToString(const JobSet &set);

/**
 * Parse one "jobset { ... }" block. All cross-references (machine,
 * kernel, and block indices) are validated; on failure the scanner
 * latches a diagnostic and false is returned.
 */
bool parseJobSet(wire::TextScanner &scanner, std::optional<JobSet> *out);

/** Parse a complete text document containing exactly one jobset. */
bool parseJobSetText(std::string_view text, std::optional<JobSet> *out,
                     std::string *error);

/** Append the binary form to the writer. */
void encodeJobSet(wire::ByteWriter &writer, const JobSet &set);

/** Decode one binary jobset; false + reader.error() on failure. */
bool decodeJobSet(wire::ByteReader &reader, std::optional<JobSet> *out);

/**
 * Materialize runnable jobs from a validated set. Machine pointers
 * refer into @p set.machines: the caller keeps the set alive until
 * every job has completed. Empty labels default to
 * "job<i>" for diagnosability.
 */
std::vector<ScheduleJob> jobSetToScheduleJobs(const JobSet &set);

// ---------------------------------------------------------------------
// Wire protocol (cs_serve / cs_client)
// ---------------------------------------------------------------------

/**
 * Protocol version carried in every request. v2 adds (a) the Watch
 * request type and (b) a trailing server-allocated request id on
 * every Response. The server still speaks to v1 clients: it accepts
 * any version in [kMinProtocolVersion, kProtocolVersion], remembers
 * the peer's version per request, and only appends the v2 response
 * tail for v2 peers — v1 clients never see bytes they would not
 * expect, and v2 clients decode the tail only when it is present
 * (so v1 servers' responses still parse, with serverRequestId == 0).
 */
inline constexpr std::uint8_t kProtocolVersion = 2;

/** Oldest request version the server still accepts. */
inline constexpr std::uint8_t kMinProtocolVersion = 1;

/** Hard cap on one frame; hostile lengths fail before allocation. */
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

enum class RequestType : std::uint8_t {
    Schedule = 1, ///< schedule the embedded one-job JobSet
    Stats = 2,    ///< server counters as a JSON string
    Ping = 3,     ///< liveness probe
    Watch = 4,    ///< v2+: stream periodic stats frames on this
                  ///< connection until it closes
};

enum class ResponseStatus : std::uint8_t {
    Ok = 0,
    Error = 1,            ///< scheduling ran and failed (or internal error)
    RejectedOverload = 2, ///< admission control: queue full, retry later
    DeadlineExceeded = 3, ///< deadline expired before or during the job
    BadRequest = 4,       ///< malformed frame/request/jobset
    ShuttingDown = 5,     ///< server is draining; no new work accepted
};

/** Human-readable status label, e.g. "rejected_overload". */
const char *statusName(ResponseStatus status);

struct Request
{
    /**
     * Version this request was encoded with. Encoders always write
     * kProtocolVersion; after decodeRequest it holds the *peer's*
     * version, which the server threads through to encodeResponse so
     * old clients get old-shaped responses.
     */
    std::uint8_t protocolVersion = kProtocolVersion;
    RequestType type = RequestType::Ping;
    /** Client-chosen id, echoed verbatim in the response. */
    std::uint64_t requestId = 0;
    /**
     * Deadline budget in milliseconds, relative to server receipt.
     * 0 means no deadline; a negative value is *already expired* and
     * must come back DeadlineExceeded without any scheduling work
     * (clients use this to probe the deadline path deterministically).
     * Watch requests reuse the field as the tick interval in ms
     * (0 = the server default of 1000).
     */
    std::int64_t deadlineMs = 0;
    /** Schedule requests only: a set with exactly one job. */
    JobSet jobs;
};

struct Response
{
    std::uint64_t requestId = 0;
    ResponseStatus status = ResponseStatus::Error;
    /** Diagnostic for error statuses; stats JSON for Stats requests. */
    std::string message;

    // Lean result summary (Ok Schedule responses).
    bool success = false;
    bool cacheHit = false;
    bool cancelled = false;
    std::int32_t ii = -1;
    std::int32_t length = -1;
    std::int32_t resMii = 0;
    std::int32_t recMii = 0;
    std::int32_t copiesInserted = 0;
    double wallMs = 0.0;
    std::string listing;
    std::vector<std::string> verifierErrors;

    /**
     * v2 tail: server-allocated lifecycle id (0 from v1 servers and
     * for responses that never entered the schedule path). Watch
     * stats frames echo the Watch request's id here too.
     */
    std::uint64_t serverRequestId = 0;
};

/**
 * Bytes of the fixed request header: version u8, type u8, requestId
 * u64, deadlineMs i64. A Schedule request's binary JobSet follows it.
 */
inline constexpr std::size_t kRequestHeaderBytes = 1 + 1 + 8 + 8;

void encodeRequest(wire::ByteWriter &writer, const Request &request);

/** decodeRequestHeader() then decodeRequestBody(). */
bool decodeRequest(wire::ByteReader &reader, Request *out);

/**
 * Decode and check the fixed header: a supported version, a known
 * type (Watch only from v2), the request id and the deadline. False +
 * reader.error() on failure.
 */
bool decodeRequestHeader(wire::ByteReader &reader, Request *out);

/**
 * Decode what follows the header of a request of type out->type: for
 * Schedule, the JobSet, which must be valid and carry exactly one job;
 * nothing for the other types.
 */
bool decodeRequestBody(wire::ByteReader &reader, Request *out);

/**
 * Encode @p response for a peer speaking @p peerVersion: the
 * serverRequestId tail is appended only for v2+ peers. The default
 * emits the current full shape.
 */
void encodeResponse(wire::ByteWriter &writer, const Response &response,
                    std::uint8_t peerVersion = kProtocolVersion);
bool decodeResponse(wire::ByteReader &reader, Response *out);

/** Fill a Response's result summary from a completed JobResult. */
void summarizeResult(const JobResult &result, Response *out);

/**
 * Blocking frame I/O on a connected socket (or any fd). writeFrame
 * sends [u32 LE length][payload] atomically from the caller's view
 * (loops over partial writes, retries EINTR). readFrame returns false
 * on clean EOF before any byte, on a short/failed read, or on a length
 * above @p maxBytes.
 */
bool writeFrame(int fd, const std::vector<std::uint8_t> &payload);
bool readFrame(int fd, std::vector<std::uint8_t> *payload,
               std::size_t maxBytes = kMaxFrameBytes);

/**
 * Split a "host:port" spec at the last ':' (so bare IPv6 works as
 * "[::1]:9000" — brackets are stripped). False + diagnostic when
 * either side is empty or the ':' is missing.
 */
bool splitHostPort(const std::string &spec, std::string *host,
                   std::string *port, std::string *error);

} // namespace cs::serve

#endif // CS_SERVE_PROTO_HPP
