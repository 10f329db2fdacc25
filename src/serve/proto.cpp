#include "serve/proto.hpp"

#include <cerrno>
#include <cstring>
#include <ostream>
#include <sstream>
#include <sys/uio.h>
#include <unistd.h>
#include <utility>

#include "ir/serialize.hpp"
#include "machine/serialize.hpp"

namespace cs::serve {

namespace {

constexpr std::uint32_t kJobSetFormatVersion = 1;
constexpr std::int64_t kMaxIndex = 1 << 20;

// -------------------------------------------------------------------
// SchedulerOptions (text keys are the snake_case field names; every
// key is printed so a listing is a complete record, parsers accept
// any subset and reject unknown keys)
//
// The search once had three failure-learning switches, and job sets
// written then still carry them: the text parser accepts their keys
// with a boolean value and ignores it, and the binary codec keeps
// their three bytes as reserved (written as the old default, true;
// read and discarded), so the v1/v2 frame layout is unchanged.
// -------------------------------------------------------------------

bool
isRetiredOptionKey(const std::string &key)
{
    return key == "no_good_cache" || key == "conflict_backjumping" ||
           key == "cross_attempt_no_goods";
}

constexpr int kRetiredOptionBytes = 3;

void
printOptions(std::ostream &os, const SchedulerOptions &opt,
             const char *indent)
{
    os << indent << "options {\n";
    const char *in2 = "      ";
    os << in2 << "operation_order "
       << (opt.operationOrder ? "true" : "false") << "\n";
    os << in2 << "comm_cost_heuristic "
       << (opt.commCostHeuristic ? "true" : "false") << "\n";
    os << in2 << "max_delay " << opt.maxDelay << "\n";
    os << in2 << "modulo_window_factor " << opt.moduloWindowFactor
       << "\n";
    os << in2 << "permutation_budget " << opt.permutationBudget << "\n";
    os << in2 << "max_copy_depth " << opt.maxCopyDepth << "\n";
    os << in2 << "per_op_attempt_budget " << opt.perOpAttemptBudget
       << "\n";
    os << in2 << "copy_attempt_budget " << opt.copyAttemptBudget << "\n";
    os << in2 << "retry_variants "
       << (opt.retryVariants ? "true" : "false") << "\n";
    os << indent << "}\n";
}

/** Range sanity shared by the text and binary decoders. */
bool
validateOptions(const SchedulerOptions &opt, std::string *error)
{
    auto bad = [&](const char *what) {
        *error = std::string("option ") + what + " out of range";
        return false;
    };
    if (opt.maxDelay < 1 || opt.maxDelay > kMaxIndex)
        return bad("max_delay");
    if (opt.moduloWindowFactor < 1 || opt.moduloWindowFactor > 64)
        return bad("modulo_window_factor");
    if (opt.permutationBudget < 0 ||
        opt.permutationBudget > (1 << 30)) {
        return bad("permutation_budget");
    }
    if (opt.maxCopyDepth < 0 || opt.maxCopyDepth > 64)
        return bad("max_copy_depth");
    if (opt.perOpAttemptBudget > (1ull << 40))
        return bad("per_op_attempt_budget");
    if (opt.copyAttemptBudget > (1ull << 40))
        return bad("copy_attempt_budget");
    return true;
}

bool
parseOptionsBody(wire::TextScanner &scanner, SchedulerOptions *opt)
{
    if (!scanner.expect("{"))
        return false;
    while (!scanner.failed() && !scanner.accept("}")) {
        std::string key(scanner.next());
        std::int64_t v = 0;
        std::uint64_t u = 0;
        if (key == "operation_order") {
            scanner.boolean(&opt->operationOrder);
        } else if (key == "comm_cost_heuristic") {
            scanner.boolean(&opt->commCostHeuristic);
        } else if (key == "max_delay") {
            if (scanner.intInRange("max_delay", 1, kMaxIndex, &v))
                opt->maxDelay = static_cast<int>(v);
        } else if (key == "modulo_window_factor") {
            if (scanner.intInRange("modulo_window_factor", 1, 64, &v))
                opt->moduloWindowFactor = static_cast<int>(v);
        } else if (key == "permutation_budget") {
            if (scanner.intInRange("permutation_budget", 0, 1 << 30,
                                   &v)) {
                opt->permutationBudget = static_cast<int>(v);
            }
        } else if (key == "max_copy_depth") {
            if (scanner.intInRange("max_copy_depth", 0, 64, &v))
                opt->maxCopyDepth = static_cast<int>(v);
        } else if (key == "per_op_attempt_budget") {
            if (scanner.unsignedInt(&u)) {
                if (u > (1ull << 40))
                    scanner.fail("per_op_attempt_budget out of range");
                else
                    opt->perOpAttemptBudget = u;
            }
        } else if (key == "copy_attempt_budget") {
            if (scanner.unsignedInt(&u)) {
                if (u > (1ull << 40))
                    scanner.fail("copy_attempt_budget out of range");
                else
                    opt->copyAttemptBudget = u;
            }
        } else if (key == "retry_variants") {
            scanner.boolean(&opt->retryVariants);
        } else if (isRetiredOptionKey(key)) {
            bool ignored = false;
            scanner.boolean(&ignored);
        } else if (key.empty()) {
            scanner.fail("unterminated options block");
        } else {
            scanner.fail("unknown option '" + key + "'");
        }
    }
    return !scanner.failed();
}

void
encodeOptions(wire::ByteWriter &writer, const SchedulerOptions &opt)
{
    writer.boolean(opt.operationOrder);
    writer.boolean(opt.commCostHeuristic);
    writer.i32(opt.maxDelay);
    writer.i32(opt.moduloWindowFactor);
    writer.i32(opt.permutationBudget);
    writer.i32(opt.maxCopyDepth);
    writer.u64(opt.perOpAttemptBudget);
    writer.u64(opt.copyAttemptBudget);
    writer.boolean(opt.retryVariants);
    for (int i = 0; i < kRetiredOptionBytes; ++i)
        writer.boolean(true);
}

bool
decodeOptions(wire::ByteReader &reader, SchedulerOptions *opt)
{
    opt->operationOrder = reader.boolean();
    opt->commCostHeuristic = reader.boolean();
    opt->maxDelay = reader.i32();
    opt->moduloWindowFactor = reader.i32();
    opt->permutationBudget = reader.i32();
    opt->maxCopyDepth = reader.i32();
    opt->perOpAttemptBudget = reader.u64();
    opt->copyAttemptBudget = reader.u64();
    opt->retryVariants = reader.boolean();
    for (int i = 0; i < kRetiredOptionBytes; ++i)
        reader.boolean();
    if (reader.failed())
        return false;
    std::string error;
    if (!validateOptions(*opt, &error)) {
        reader.fail(error);
        return false;
    }
    return true;
}

/** Cross-reference validation shared by both decoders. */
bool
validateJobSet(const JobSet &set, std::string *error)
{
    for (std::size_t i = 0; i < set.jobs.size(); ++i) {
        const JobDescription &job = set.jobs[i];
        auto bad = [&](const std::string &what) {
            *error = "job " + std::to_string(i) + ": " + what;
            return false;
        };
        if (job.machineIndex >= set.machines.size())
            return bad("machine index out of range");
        if (job.kernelIndex >= set.kernels.size())
            return bad("kernel index out of range");
        const Kernel &kernel = set.kernels[job.kernelIndex];
        if (job.blockIndex >= kernel.numBlocks())
            return bad("block index out of range");
        if (job.maxIiSlack < 0 || job.maxIiSlack > kMaxIndex)
            return bad("max_ii_slack out of range");
        std::string optError;
        if (!validateOptions(job.options, &optError))
            return bad(optError);
    }
    return true;
}

bool
parseJobBody(wire::TextScanner &scanner, JobDescription *job)
{
    if (!scanner.expect("job") || !scanner.expect("{"))
        return false;
    while (!scanner.failed() && !scanner.accept("}")) {
        std::string key(scanner.next());
        std::int64_t v = 0;
        if (key == "label") {
            scanner.quoted(&job->label);
        } else if (key == "machine") {
            if (scanner.intInRange("machine index", 0, kMaxIndex, &v))
                job->machineIndex = static_cast<std::uint32_t>(v);
        } else if (key == "kernel") {
            if (scanner.intInRange("kernel index", 0, kMaxIndex, &v))
                job->kernelIndex = static_cast<std::uint32_t>(v);
        } else if (key == "block") {
            if (scanner.intInRange("block index", 0, kMaxIndex, &v))
                job->blockIndex = static_cast<std::uint32_t>(v);
        } else if (key == "pipelined") {
            scanner.boolean(&job->pipelined);
        } else if (key == "max_ii_slack") {
            if (scanner.intInRange("max_ii_slack", 0, kMaxIndex, &v))
                job->maxIiSlack = static_cast<int>(v);
        } else if (key == "options") {
            parseOptionsBody(scanner, &job->options);
        } else if (key.empty()) {
            scanner.fail("unterminated job block");
        } else {
            scanner.fail("unknown job directive '" + key + "'");
        }
    }
    return !scanner.failed();
}

} // namespace

void
printJobSet(std::ostream &os, const JobSet &set)
{
    os << "jobset {\n";
    for (const Machine &machine : set.machines)
        printMachine(os, machine);
    for (const Kernel &kernel : set.kernels)
        printKernel(os, kernel);
    for (std::size_t i = 0; i < set.jobs.size(); ++i) {
        const JobDescription &job = set.jobs[i];
        os << "  job {\n";
        if (!job.label.empty())
            os << "    label " << wire::quoteString(job.label) << "\n";
        os << "    machine " << job.machineIndex << "\n";
        os << "    kernel " << job.kernelIndex << "\n";
        os << "    block " << job.blockIndex << "\n";
        os << "    pipelined " << (job.pipelined ? "true" : "false")
           << "\n";
        os << "    max_ii_slack " << job.maxIiSlack << "\n";
        printOptions(os, job.options, "    ");
        os << "  }\n";
    }
    os << "}\n";
}

std::string
printJobSetToString(const JobSet &set)
{
    std::ostringstream os;
    printJobSet(os, set);
    return os.str();
}

bool
parseJobSet(wire::TextScanner &scanner, std::optional<JobSet> *out)
{
    out->reset();
    if (!scanner.expect("jobset") || !scanner.expect("{"))
        return false;
    JobSet set;
    while (!scanner.failed() && !scanner.accept("}")) {
        std::string_view next = scanner.peek();
        if (next == "machine") {
            std::optional<Machine> machine;
            if (!parseMachine(scanner, &machine))
                return false;
            set.machines.push_back(std::move(*machine));
        } else if (next == "kernel") {
            std::optional<Kernel> kernel;
            if (!parseKernel(scanner, &kernel))
                return false;
            set.kernels.push_back(std::move(*kernel));
        } else if (next == "job") {
            JobDescription job;
            if (!parseJobBody(scanner, &job))
                return false;
            set.jobs.push_back(std::move(job));
        } else if (next.empty()) {
            scanner.fail("unterminated jobset block");
        } else {
            scanner.fail("expected machine, kernel, or job; got '" +
                         std::string(next) + "'");
        }
    }
    if (scanner.failed())
        return false;
    std::string error;
    if (!validateJobSet(set, &error)) {
        scanner.fail(error);
        return false;
    }
    out->emplace(std::move(set));
    return true;
}

bool
parseJobSetText(std::string_view text, std::optional<JobSet> *out,
                std::string *error)
{
    wire::TextScanner scanner(text);
    bool ok = parseJobSet(scanner, out);
    if (ok && !scanner.atEnd()) {
        scanner.fail("trailing input after jobset");
        ok = false;
    }
    if (!ok) {
        out->reset();
        if (error != nullptr)
            *error = scanner.error();
    }
    return ok;
}

void
encodeJobSet(wire::ByteWriter &writer, const JobSet &set)
{
    writer.u32(kJobSetFormatVersion);
    writer.u32(static_cast<std::uint32_t>(set.machines.size()));
    for (const Machine &machine : set.machines)
        encodeMachine(writer, machine);
    writer.u32(static_cast<std::uint32_t>(set.kernels.size()));
    for (const Kernel &kernel : set.kernels)
        encodeKernel(writer, kernel);
    writer.u32(static_cast<std::uint32_t>(set.jobs.size()));
    for (const JobDescription &job : set.jobs) {
        writer.str(job.label);
        writer.u32(job.machineIndex);
        writer.u32(job.kernelIndex);
        writer.u32(job.blockIndex);
        writer.boolean(job.pipelined);
        writer.i32(job.maxIiSlack);
        encodeOptions(writer, job.options);
    }
}

bool
decodeJobSet(wire::ByteReader &reader, std::optional<JobSet> *out)
{
    out->reset();
    std::uint32_t version = reader.u32();
    if (!reader.failed() && version != kJobSetFormatVersion) {
        reader.fail("unsupported jobset format version " +
                    std::to_string(version));
        return false;
    }
    JobSet set;
    std::uint32_t numMachines = reader.arrayCount(8);
    for (std::uint32_t i = 0; i < numMachines && !reader.failed();
         ++i) {
        std::optional<Machine> machine;
        if (!decodeMachine(reader, &machine))
            return false;
        set.machines.push_back(std::move(*machine));
    }
    std::uint32_t numKernels = reader.arrayCount(8);
    for (std::uint32_t i = 0; i < numKernels && !reader.failed(); ++i) {
        std::optional<Kernel> kernel;
        if (!decodeKernel(reader, &kernel))
            return false;
        set.kernels.push_back(std::move(*kernel));
    }
    std::uint32_t numJobs = reader.arrayCount(20);
    for (std::uint32_t i = 0; i < numJobs && !reader.failed(); ++i) {
        JobDescription job;
        job.label = reader.str();
        job.machineIndex = reader.u32();
        job.kernelIndex = reader.u32();
        job.blockIndex = reader.u32();
        job.pipelined = reader.boolean();
        job.maxIiSlack = reader.i32();
        if (!decodeOptions(reader, &job.options))
            return false;
        set.jobs.push_back(std::move(job));
    }
    if (reader.failed())
        return false;
    std::string error;
    if (!validateJobSet(set, &error)) {
        reader.fail(error);
        return false;
    }
    out->emplace(std::move(set));
    return true;
}

std::vector<ScheduleJob>
jobSetToScheduleJobs(const JobSet &set)
{
    std::vector<ScheduleJob> jobs;
    jobs.reserve(set.jobs.size());
    for (std::size_t i = 0; i < set.jobs.size(); ++i) {
        const JobDescription &desc = set.jobs[i];
        ScheduleJob job;
        job.label = desc.label.empty() ? "job" + std::to_string(i)
                                       : desc.label;
        job.kernel = set.kernels[desc.kernelIndex];
        job.block = BlockId(desc.blockIndex);
        job.machine = &set.machines[desc.machineIndex];
        job.options = desc.options;
        job.pipelined = desc.pipelined;
        job.maxIiSlack = desc.maxIiSlack;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

// -------------------------------------------------------------------
// Wire protocol
// -------------------------------------------------------------------

const char *
statusName(ResponseStatus status)
{
    switch (status) {
    case ResponseStatus::Ok:
        return "ok";
    case ResponseStatus::Error:
        return "error";
    case ResponseStatus::RejectedOverload:
        return "rejected_overload";
    case ResponseStatus::DeadlineExceeded:
        return "deadline_exceeded";
    case ResponseStatus::BadRequest:
        return "bad_request";
    case ResponseStatus::ShuttingDown:
        return "shutting_down";
    }
    return "unknown";
}

void
encodeRequest(wire::ByteWriter &writer, const Request &request)
{
    // Normally kProtocolVersion (the field's default); tests override
    // it to impersonate old clients — the v1 body layout for
    // Schedule/Stats/Ping is identical, only the tail of the response
    // differs.
    writer.u8(request.protocolVersion);
    writer.u8(static_cast<std::uint8_t>(request.type));
    writer.u64(request.requestId);
    writer.i64(request.deadlineMs);
    if (request.type == RequestType::Schedule)
        encodeJobSet(writer, request.jobs);
}

bool
decodeRequest(wire::ByteReader &reader, Request *out)
{
    std::uint8_t version = reader.u8();
    if (!reader.failed() && (version < kMinProtocolVersion ||
                             version > kProtocolVersion)) {
        reader.fail("unsupported protocol version " +
                    std::to_string(version));
        return false;
    }
    out->protocolVersion = version;
    std::uint8_t type = reader.u8();
    out->requestId = reader.u64();
    out->deadlineMs = reader.i64();
    if (reader.failed())
        return false;
    switch (type) {
    case static_cast<std::uint8_t>(RequestType::Schedule):
    case static_cast<std::uint8_t>(RequestType::Stats):
    case static_cast<std::uint8_t>(RequestType::Ping):
        out->type = static_cast<RequestType>(type);
        break;
    case static_cast<std::uint8_t>(RequestType::Watch):
        if (version < 2) {
            reader.fail("watch requires protocol version 2");
            return false;
        }
        out->type = RequestType::Watch;
        break;
    default:
        reader.fail("unknown request type " + std::to_string(type));
        return false;
    }
    if (out->type == RequestType::Schedule) {
        std::optional<JobSet> jobs;
        if (!decodeJobSet(reader, &jobs))
            return false;
        if (jobs->jobs.size() != 1) {
            reader.fail("schedule request must carry exactly one job");
            return false;
        }
        out->jobs = std::move(*jobs);
    }
    return !reader.failed();
}

void
encodeResponse(wire::ByteWriter &writer, const Response &response,
               std::uint8_t peerVersion)
{
    writer.u64(response.requestId);
    writer.u8(static_cast<std::uint8_t>(response.status));
    writer.str(response.message);
    writer.boolean(response.success);
    writer.boolean(response.cacheHit);
    writer.boolean(response.cancelled);
    writer.i32(response.ii);
    writer.i32(response.length);
    writer.i32(response.resMii);
    writer.i32(response.recMii);
    writer.i32(response.copiesInserted);
    writer.f64(response.wallMs);
    writer.str(response.listing);
    writer.u32(
        static_cast<std::uint32_t>(response.verifierErrors.size()));
    for (const std::string &error : response.verifierErrors)
        writer.str(error);
    // v2 tail: v1 peers get the exact v1 byte layout above.
    if (peerVersion >= 2)
        writer.u64(response.serverRequestId);
}

bool
decodeResponse(wire::ByteReader &reader, Response *out)
{
    out->requestId = reader.u64();
    std::uint8_t status = reader.u8();
    if (!reader.failed() &&
        status > static_cast<std::uint8_t>(ResponseStatus::ShuttingDown)) {
        reader.fail("unknown response status " + std::to_string(status));
        return false;
    }
    out->status = static_cast<ResponseStatus>(status);
    out->message = reader.str();
    out->success = reader.boolean();
    out->cacheHit = reader.boolean();
    out->cancelled = reader.boolean();
    out->ii = reader.i32();
    out->length = reader.i32();
    out->resMii = reader.i32();
    out->recMii = reader.i32();
    out->copiesInserted = reader.i32();
    out->wallMs = reader.f64();
    out->listing = reader.str();
    std::uint32_t numErrors = reader.arrayCount(4);
    out->verifierErrors.clear();
    for (std::uint32_t i = 0; i < numErrors && !reader.failed(); ++i)
        out->verifierErrors.push_back(reader.str());
    // Optional v2 tail: absent from v1 servers, so only read it when
    // bytes remain. Defaults to 0 otherwise.
    out->serverRequestId = 0;
    if (!reader.failed() && !reader.atEnd())
        out->serverRequestId = reader.u64();
    return !reader.failed();
}

void
summarizeResult(const JobResult &result, Response *out)
{
    out->success = result.success;
    out->cacheHit = result.cacheHit;
    out->cancelled = result.cancelled;
    out->ii = result.ii;
    out->length = result.length;
    out->resMii = result.resMii;
    out->recMii = result.recMii;
    out->copiesInserted = result.copiesInserted;
    out->wallMs = result.wallMs;
    out->listing = result.listing;
    out->verifierErrors = result.verifierErrors;
}

// -------------------------------------------------------------------
// Framing
// -------------------------------------------------------------------

namespace {

/** 1 = ok, 0 = clean EOF before any byte, -1 = error/short read. */
int
readFully(int fd, std::uint8_t *data, std::size_t size)
{
    std::size_t done = 0;
    while (done < size) {
        ssize_t n = ::read(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (n == 0)
            return done == 0 ? 0 : -1;
        done += static_cast<std::size_t>(n);
    }
    return 1;
}

} // namespace

bool
writeFrame(int fd, const std::vector<std::uint8_t> &payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    std::uint8_t header[4];
    wire::storeU32le(header,
                     static_cast<std::uint32_t>(payload.size()));
    // Scatter-gather: header and payload leave in one writev(2), so a
    // response is one syscall and (on TCP with NODELAY) one segment
    // instead of a tiny header packet followed by the payload.
    std::size_t total = sizeof header + payload.size();
    std::size_t done = 0;
    while (done < total) {
        iovec iov[2];
        int iovCount = 0;
        if (done < sizeof header) {
            iov[iovCount++] = {header + done, sizeof header - done};
            if (!payload.empty()) {
                iov[iovCount++] = {
                    const_cast<std::uint8_t *>(payload.data()),
                    payload.size()};
            }
        } else {
            std::size_t off = done - sizeof header;
            iov[iovCount++] = {
                const_cast<std::uint8_t *>(payload.data()) + off,
                payload.size() - off};
        }
        ssize_t n = ::writev(fd, iov, iovCount);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        done += static_cast<std::size_t>(n);
    }
    return true;
}

bool
readFrame(int fd, std::vector<std::uint8_t> *payload,
          std::size_t maxBytes)
{
    std::uint8_t header[4];
    if (readFully(fd, header, sizeof header) != 1)
        return false;
    std::uint32_t length = 0;
    for (int i = 0; i < 4; ++i)
        length |= static_cast<std::uint32_t>(header[i]) << (8 * i);
    if (length > maxBytes)
        return false;
    payload->resize(length);
    return length == 0 ||
           readFully(fd, payload->data(), length) == 1;
}

bool
splitHostPort(const std::string &spec, std::string *host,
              std::string *port, std::string *error)
{
    std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == spec.size()) {
        if (error != nullptr)
            *error = "expected host:port, got '" + spec + "'";
        return false;
    }
    *host = spec.substr(0, colon);
    *port = spec.substr(colon + 1);
    if (host->size() >= 2 && host->front() == '[' &&
        host->back() == ']')
        *host = host->substr(1, host->size() - 2);
    return true;
}

} // namespace cs::serve
