#include "serve/server.hpp"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <utility>

#include "support/logging.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace cs::serve {

namespace {

PipelineConfig
pipelineConfig(const ServerConfig &config)
{
    PipelineConfig out;
    out.numThreads = config.workerThreads;
    out.cacheCapacity = config.cacheCapacity;
    out.cacheDirectory = config.cacheDirectory;
    out.cacheShards = config.cacheShards;
    out.ownershipRetryMs = config.ownershipRetryMs;
    out.iiSearchWorkers = config.iiSearchWorkers;
    return out;
}

/**
 * Bind and listen a TCP socket per "host:port" spec. Returns the fd
 * (or -1 + diagnostic) and reports the actually-bound port — the
 * kernel-assigned one when the spec said ":0".
 */
int
bindTcpListener(const std::string &spec, int backlog, int *portOut,
                std::string *error)
{
    std::string host, port;
    if (!splitHostPort(spec, &host, &port, error))
        return -1;
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo *result = nullptr;
    int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints,
                           &result);
    if (rc != 0) {
        *error = std::string("resolve: ") + ::gai_strerror(rc);
        return -1;
    }
    int fd = -1;
    int lastErrno = 0;
    for (addrinfo *ai = result; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            lastErrno = errno;
            continue;
        }
        int on = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof on);
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(fd, backlog) == 0)
            break;
        lastErrno = errno;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(result);
    if (fd < 0) {
        *error = std::string("bind/listen: ") +
                 std::strerror(lastErrno);
        return -1;
    }
    sockaddr_storage ss{};
    socklen_t len = sizeof ss;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&ss), &len) ==
        0) {
        if (ss.ss_family == AF_INET) {
            *portOut = ntohs(
                reinterpret_cast<sockaddr_in *>(&ss)->sin_port);
        } else if (ss.ss_family == AF_INET6) {
            *portOut = ntohs(
                reinterpret_cast<sockaddr_in6 *>(&ss)->sin6_port);
        }
    }
    return fd;
}

} // namespace

ScheduleServer::ScheduleServer(const ServerConfig &config)
    : config_(config), pipeline_(pipelineConfig(config)),
      latencyAll_(
          &metrics_.streamingHistogram("serve.latency_us.all")),
      latencyWarm_(
          &metrics_.streamingHistogram("serve.latency_us.warm")),
      latencyDispatched_(
          &metrics_.streamingHistogram("serve.latency_us.dispatched")),
      latencyDeadline_(
          &metrics_.streamingHistogram("serve.latency_us.deadline")),
      latencyOverload_(
          &metrics_.streamingHistogram("serve.latency_us.overload")),
      phaseDecode_(
          &metrics_.streamingHistogram("serve.phase_us.decode")),
      phaseAdmit_(&metrics_.streamingHistogram("serve.phase_us.admit")),
      phaseQueue_(&metrics_.streamingHistogram("serve.phase_us.queue")),
      phaseSchedule_(
          &metrics_.streamingHistogram("serve.phase_us.schedule")),
      phaseReply_(&metrics_.streamingHistogram("serve.phase_us.reply")),
      inflightGauge_(&metrics_.gauge("serve.inflight"))
{}

ScheduleServer::~ScheduleServer()
{
    stop();
}

bool
ScheduleServer::start()
{
    if (running_.load())
        return true;
    if (config_.socketPath.empty() && config_.listenTcp.empty()) {
        CS_WARN("cs_serve: no listener configured (need a socket path "
                "or a TCP listen spec)");
        return false;
    }

    // A peer that vanishes mid-reply must surface as a write error,
    // not kill the daemon.
    ::signal(SIGPIPE, SIG_IGN);

    if (!config_.socketPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (config_.socketPath.size() >= sizeof(addr.sun_path)) {
            CS_WARN("cs_serve: socket path too long: ",
                    config_.socketPath);
            return false;
        }
        std::strncpy(addr.sun_path, config_.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0) {
            CS_WARN("cs_serve: socket(): ", std::strerror(errno));
            return false;
        }
        ::unlink(config_.socketPath.c_str());
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0) {
            CS_WARN("cs_serve: bind('", config_.socketPath,
                    "'): ", std::strerror(errno));
            ::close(listenFd_);
            listenFd_ = -1;
            return false;
        }
        if (::listen(listenFd_, config_.listenBacklog) != 0) {
            CS_WARN("cs_serve: listen(): ", std::strerror(errno));
            ::close(listenFd_);
            listenFd_ = -1;
            return false;
        }
    }
    if (!config_.listenTcp.empty()) {
        std::string error;
        int fd = bindTcpListener(config_.listenTcp,
                                 config_.listenBacklog,
                                 &boundTcpPort_, &error);
        if (fd < 0) {
            CS_WARN("cs_serve: tcp '", config_.listenTcp, "': ",
                    error);
            int udsFd = listenFd_.exchange(-1);
            if (udsFd >= 0) {
                ::close(udsFd);
                ::unlink(config_.socketPath.c_str());
            }
            return false;
        }
        tcpListenFd_ = fd;
    }

    running_.store(true);
    draining_.store(false);
    deadlineStop_ = false;
    watchStop_ = false;
    if (listenFd_.load() >= 0) {
        acceptThread_ =
            std::thread([this] { acceptLoop(listenFd_, false); });
        CS_INFORM("cs_serve: listening on ", config_.socketPath);
    }
    if (tcpListenFd_.load() >= 0) {
        tcpAcceptThread_ =
            std::thread([this] { acceptLoop(tcpListenFd_, true); });
        CS_INFORM("cs_serve: listening on tcp ", config_.listenTcp,
                  " (port ", boundTcpPort_, ")");
    }
    deadlineThread_ = std::thread([this] { deadlineLoop(); });
    watchThread_ = std::thread([this] { watchLoop(); });
    return true;
}

void
ScheduleServer::stop()
{
    if (!running_.exchange(false))
        return;
    draining_.store(true);

    // 1. Stop accepting: closing the listeners unblocks accept().
    int listenFd = listenFd_.exchange(-1);
    if (listenFd >= 0) {
        ::shutdown(listenFd, SHUT_RDWR);
        ::close(listenFd);
    }
    int tcpFd = tcpListenFd_.exchange(-1);
    if (tcpFd >= 0) {
        ::shutdown(tcpFd, SHUT_RDWR);
        ::close(tcpFd);
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (tcpAcceptThread_.joinable())
        tcpAcceptThread_.join();

    // 2. Drain: readers stay up (answering new Schedule requests with
    //    ShuttingDown) until every admitted job finished and replied.
    {
        std::unique_lock<std::mutex> lock(drainMutex_);
        drainCv_.wait(lock, [this] { return inFlight_.load() == 0; });
    }

    // 3. Tear down the deadline watcher and the watch streamer. Both
    //    stop before the connections close, so no stats frame races a
    //    closing fd.
    {
        std::lock_guard<std::mutex> lock(deadlineMutex_);
        deadlineStop_ = true;
    }
    deadlineCv_.notify_all();
    if (deadlineThread_.joinable())
        deadlineThread_.join();
    {
        std::lock_guard<std::mutex> lock(watchMutex_);
        watchStop_ = true;
        watches_.clear();
    }
    watchCv_.notify_all();
    // The watch thread joins below, after the connection shutdowns:
    // it may be blocked writing a stats frame to a peer that stopped
    // reading, and only shutdown() unblocks that write.

    // 4. Close connections; shutdown() unblocks blocked readFrame()s.
    std::vector<std::shared_ptr<Connection>> conns;
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        conns.swap(connections_);
        threads.swap(connThreads_);
    }
    for (const auto &conn : conns) {
        conn->open.store(false);
        std::lock_guard<std::mutex> lock(conn->writeMutex);
        if (conn->fd >= 0)
            ::shutdown(conn->fd, SHUT_RDWR);
    }
    if (watchThread_.joinable())
        watchThread_.join();
    for (std::thread &thread : threads) {
        if (thread.joinable())
            thread.join();
    }
    for (const auto &conn : conns) {
        std::lock_guard<std::mutex> lock(conn->writeMutex);
        if (conn->fd >= 0) {
            ::close(conn->fd);
            conn->fd = -1;
        }
    }

    if (!config_.socketPath.empty())
        ::unlink(config_.socketPath.c_str());
    CS_INFORM("cs_serve: drained and stopped");
}

void
ScheduleServer::acceptLoop(std::atomic<int> &listenFd, bool tcp)
{
    for (;;) {
        int fd = ::accept(listenFd.load(), nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // listener closed (stop) or fatal error
        }
        if (draining_.load()) {
            ::close(fd);
            continue;
        }
        if (tcp) {
            // Request/response frames are small; without NODELAY the
            // last short segment of a reply sits in the Nagle buffer.
            int on = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof on);
        }
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        metrics_.counters().bump("serve.connections");
        std::lock_guard<std::mutex> lock(connMutex_);
        reapFinishedLocked();
        connections_.push_back(conn);
        connThreads_.emplace_back(
            [this, conn] { connectionLoop(conn); });
    }
}

void
ScheduleServer::reapFinishedLocked()
{
    // Without this a client that connects once per request would leave
    // one exited, unjoined thread (and its stack) per request behind
    // until stop(). A finished thread is past its last use of shared
    // state, so the join returns at once.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < connections_.size(); ++i) {
        if (connections_[i]->finished.load()) {
            connThreads_[i].join();
            continue;
        }
        if (kept != i) {
            connections_[kept] = std::move(connections_[i]);
            connThreads_[kept] = std::move(connThreads_[i]);
        }
        ++kept;
    }
    connections_.resize(kept);
    connThreads_.resize(kept);
}

void
ScheduleServer::connectionLoop(std::shared_ptr<Connection> conn)
{
    std::vector<std::uint8_t> frame;
    while (conn->open.load() && readFrame(conn->fd, &frame)) {
        auto received = std::chrono::steady_clock::now();
        metrics_.counters().bump("serve.frames_in");
        wire::ByteReader reader(
            std::span<const std::uint8_t>(frame.data(), frame.size()));
        Request request;
        if (!decodeRequest(reader, &request)) {
            metrics_.counters().bump("serve.bad_requests");
            Response response;
            response.requestId = request.requestId;
            response.status = ResponseStatus::BadRequest;
            response.message = reader.error();
            sendResponse(conn, response);
            continue;
        }
        handleRequest(conn, std::move(request), received,
                      std::chrono::steady_clock::now());
    }
    // The connection is done (EOF, hostile frame, or drain): close the
    // fd now so the peer sees EOF immediately and a long-lived daemon
    // does not hold one fd per dead connection until stop(). Closing
    // happens under the write mutex — a completion callback for a job
    // still in flight may be racing sendResponse(), and the fd number
    // must not be reused under it.
    conn->open.store(false);
    {
        std::lock_guard<std::mutex> lock(conn->writeMutex);
        if (conn->fd >= 0) {
            ::close(conn->fd);
            conn->fd = -1;
        }
    }
    conn->finished.store(true);
}

namespace {

std::uint64_t
elapsedUs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                  to - from)
                  .count();
    return us < 0 ? 0u : static_cast<std::uint64_t>(us);
}

} // namespace

void
ScheduleServer::handleRequest(
    const std::shared_ptr<Connection> &conn, Request &&request,
    std::chrono::steady_clock::time_point received,
    std::chrono::steady_clock::time_point decoded)
{
    using Clock = std::chrono::steady_clock;
    CS_TRACE_SPAN1("serve_request", "type",
                   static_cast<int>(request.type));
    metrics_.counters().bump("serve.requests");
    phaseDecode_->record(elapsedUs(received, decoded));
    // Lifecycle id: allocated for every request that reaches the
    // handler, echoed in the v2 response tail. The peer's version
    // decides whether the tail is actually written.
    const std::uint8_t peer = request.protocolVersion;
    const std::uint64_t serverId = nextServerRequestId_.fetch_add(1);
    Response response;
    response.requestId = request.requestId;
    response.serverRequestId = serverId;

    if (request.type == RequestType::Ping) {
        metrics_.counters().bump("serve.pings");
        response.status = ResponseStatus::Ok;
        sendResponse(conn, response, peer);
        return;
    }
    if (request.type == RequestType::Stats) {
        metrics_.counters().bump("serve.stats_requests");
        response.status = ResponseStatus::Ok;
        response.message = statsJson();
        sendResponse(conn, response, peer);
        return;
    }
    if (request.type == RequestType::Watch) {
        metrics_.counters().bump("serve.watch_requests");
        if (draining_.load()) {
            response.status = ResponseStatus::ShuttingDown;
            response.message = "server is draining";
            sendResponse(conn, response, peer);
            return;
        }
        startWatch(conn, request, serverId);
        return;
    }

    // Schedule. Counted in-flight for the WHOLE handling, the early
    // reply paths included: stop()'s drain wait must not pass — and
    // close connections / tear down the pipeline — between a request
    // being observed and its reply being written. Every return below
    // sends its response first and only then calls finishRequest().
    metrics_.counters().bump("serve.schedule_requests");
    std::size_t admitted = inFlight_.fetch_add(1) + 1;
    inflightGauge_->store(static_cast<std::int64_t>(admitted),
                          std::memory_order_relaxed);
    // Send the reply, record the reply phase and the request's total
    // latency into @p outcome (plus the .all histogram), and release
    // the in-flight slot — the shared tail of every early-return
    // path below.
    auto replyAndFinish = [&](StreamingHistogram *outcome) {
        auto beforeReply = Clock::now();
        sendResponse(conn, response, peer);
        auto afterReply = Clock::now();
        phaseReply_->record(elapsedUs(beforeReply, afterReply));
        std::uint64_t totalUs = elapsedUs(received, afterReply);
        if (outcome)
            outcome->record(totalUs);
        latencyAll_->record(totalUs);
        finishRequest();
    };
    if (draining_.load()) {
        // Checked after the increment: if stop() flipped draining_
        // first, its drain wait now holds until this reply is out; if
        // the increment won, the submit below beats the drain.
        metrics_.counters().bump("serve.shutting_down");
        response.status = ResponseStatus::ShuttingDown;
        response.message = "server is draining";
        replyAndFinish(nullptr);
        return;
    }
    if (request.deadlineMs < 0) {
        // Already expired on arrival: the deadline path must not cost
        // any scheduling work (tests drive it with deadlineMs = -1).
        metrics_.counters().bump("serve.deadline_expired");
        response.status = ResponseStatus::DeadlineExceeded;
        response.message = "deadline expired before scheduling";
        replyAndFinish(latencyDeadline_);
        return;
    }

    // Warm-hit fast path: probe the cache here on the reader thread
    // and reply without the pipeline queue hop. Exactness:
    // lookupCached is the same code runOne dispatches through, so the
    // result summary, status mapping, and counters are identical to
    // the dispatched path — only the hop is gone. A hit holds no
    // worker and is never rejected (it occupies an in-flight slot only
    // for the microseconds of the probe and reply); a miss falls
    // through and pays one redundant (cheap) cache probe.
    ScheduleJob probe = jobSetToScheduleJobs(request.jobs).front();
    if (std::optional<JobResult> hit = pipeline_.lookupCached(probe)) {
        metrics_.counters().bump("serve.fast_path_hits");
        summarizeResult(*hit, &response);
        if (!hit->success) {
            metrics_.counters().bump("serve.errors");
            response.status = ResponseStatus::Error;
            response.message = hit->sched.failure;
        } else {
            metrics_.counters().bump("serve.ok");
            response.status = ResponseStatus::Ok;
        }
        phaseAdmit_->record(elapsedUs(decoded, Clock::now()));
        replyAndFinish(latencyWarm_);
        return;
    }
    metrics_.counters().bump("serve.fast_path_misses");

    // Admission control: a bounded in-flight count is the whole
    // policy — cheap, and overload is visible to the client instead
    // of buried in a queue.
    if (admitted > config_.maxInFlight) {
        metrics_.counters().bump("serve.rejected_overload");
        response.status = ResponseStatus::RejectedOverload;
        response.message = "in-flight limit reached, retry later";
        replyAndFinish(latencyOverload_);
        return;
    }
    // Admit phase: decode completion up to the dispatch decision
    // (fast-path probe included).
    phaseAdmit_->record(elapsedUs(decoded, Clock::now()));

    auto state = std::make_shared<RequestState>();
    state->conn = conn;
    state->requestId = request.requestId;
    state->protocolVersion = peer;
    state->serverRequestId = serverId;
    state->jobs = std::move(request.jobs);
    state->received = received;
    if (request.deadlineMs > 0) {
        state->hasDeadline = true;
        state->deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(request.deadlineMs);
        watchDeadline(state);
    }

    ScheduleJob job = jobSetToScheduleJobs(state->jobs).front();
    job.abortFlag = &state->abort;
    state->dispatched = Clock::now();
    bool submitted = pipeline_.submit(
        std::move(job), [this, state](JobResult result) {
            auto completed = Clock::now();
            Response reply;
            reply.requestId = state->requestId;
            reply.serverRequestId = state->serverRequestId;
            summarizeResult(result, &reply);
            if (result.cancelled) {
                metrics_.counters().bump("serve.deadline_preempted");
                reply.status = ResponseStatus::DeadlineExceeded;
                reply.message = "deadline expired during scheduling";
            } else if (!result.success) {
                metrics_.counters().bump("serve.errors");
                reply.status = ResponseStatus::Error;
                reply.message = result.sched.failure;
            } else {
                metrics_.counters().bump("serve.ok");
                reply.status = ResponseStatus::Ok;
            }
            // Phase split: wallMs is the pure scheduling time the
            // pipeline measured; what else passed since dispatch is
            // queueing (worker wait + dedup joins).
            auto scheduleUs = static_cast<std::uint64_t>(
                result.wallMs > 0.0 ? result.wallMs * 1000.0 : 0.0);
            std::uint64_t sinceDispatch =
                elapsedUs(state->dispatched, completed);
            phaseSchedule_->record(scheduleUs);
            phaseQueue_->record(sinceDispatch > scheduleUs
                                    ? sinceDispatch - scheduleUs
                                    : 0);
            auto beforeReply = Clock::now();
            sendResponse(state->conn, reply, state->protocolVersion);
            auto afterReply = Clock::now();
            phaseReply_->record(elapsedUs(beforeReply, afterReply));
            std::uint64_t totalUs =
                elapsedUs(state->received, afterReply);
            (result.cancelled ? latencyDeadline_ : latencyDispatched_)
                ->record(totalUs);
            latencyAll_->record(totalUs);
            finishRequest();
        });
    if (!submitted) {
        metrics_.counters().bump("serve.shutting_down");
        response.status = ResponseStatus::ShuttingDown;
        response.message = "server is draining";
        replyAndFinish(nullptr);
    }
}

void
ScheduleServer::finishRequest()
{
    std::size_t remaining = inFlight_.fetch_sub(1) - 1;
    inflightGauge_->store(static_cast<std::int64_t>(remaining),
                          std::memory_order_relaxed);
    if (remaining == 0) {
        std::lock_guard<std::mutex> lock(drainMutex_);
        drainCv_.notify_all();
    }
}

bool
ScheduleServer::sendResponse(const std::shared_ptr<Connection> &conn,
                             const Response &response,
                             std::uint8_t peerVersion)
{
    std::vector<std::uint8_t> payload;
    {
        wire::ByteWriter writer(payload);
        encodeResponse(writer, response, peerVersion);
    }
    std::lock_guard<std::mutex> lock(conn->writeMutex);
    if (!conn->open.load())
        return false;
    if (!writeFrame(conn->fd, payload)) {
        conn->open.store(false);
        metrics_.counters().bump("serve.write_errors");
        return false;
    }
    metrics_.counters().bump("serve.frames_out");
    return true;
}

void
ScheduleServer::watchDeadline(
    const std::shared_ptr<RequestState> &state)
{
    {
        std::lock_guard<std::mutex> lock(deadlineMutex_);
        deadlines_.push_back(state);
    }
    deadlineCv_.notify_all();
}

void
ScheduleServer::deadlineLoop()
{
    std::unique_lock<std::mutex> lock(deadlineMutex_);
    for (;;) {
        if (deadlineStop_)
            return;
        // Raise the flag on every expired request, drop dead entries,
        // and compute the next wake-up.
        auto now = std::chrono::steady_clock::now();
        auto next = now + std::chrono::hours(1);
        bool haveNext = false;
        auto it = deadlines_.begin();
        while (it != deadlines_.end()) {
            std::shared_ptr<RequestState> state = it->lock();
            if (!state) {
                it = deadlines_.erase(it);
                continue;
            }
            if (state->deadline <= now) {
                state->abort.store(true);
                it = deadlines_.erase(it);
                continue;
            }
            if (!haveNext || state->deadline < next) {
                next = state->deadline;
                haveNext = true;
            }
            ++it;
        }
        if (haveNext)
            deadlineCv_.wait_until(lock, next);
        else
            deadlineCv_.wait(lock);
    }
}

void
ScheduleServer::startWatch(const std::shared_ptr<Connection> &conn,
                           const Request &request,
                           std::uint64_t serverRequestId)
{
    auto sub = std::make_shared<WatchSubscription>();
    sub->conn = conn;
    sub->requestId = request.requestId;
    sub->serverRequestId = serverRequestId;
    // Watch reuses deadlineMs as the tick interval; clamp against
    // busy-looping on hostile values.
    std::int64_t ms = request.deadlineMs;
    if (ms <= 0)
        ms = 1000;
    if (ms < 10)
        ms = 10;
    sub->interval = std::chrono::milliseconds(ms);
    auto now = std::chrono::steady_clock::now();
    sub->nextDue = now; // first frame immediately (it is the ack)
    sub->prevTime = now;
    sub->prevRequests = metrics_.counters().get("serve.requests");
    {
        std::lock_guard<std::mutex> lock(watchMutex_);
        if (watchStop_)
            return;
        watches_.push_back(std::move(sub));
    }
    watchCv_.notify_all();
}

std::string
ScheduleServer::watchFrameJson(WatchSubscription &sub)
{
    auto now = std::chrono::steady_clock::now();
    const CounterSet &counters = metrics_.counters();
    std::uint64_t requests = counters.get("serve.requests");
    double dt = std::chrono::duration<double>(now - sub.prevTime)
                    .count();
    double reqPerS =
        dt > 0.0 ? static_cast<double>(requests - sub.prevRequests) / dt
                 : 0.0;
    sub.prevRequests = requests;
    sub.prevTime = now;
    std::uint64_t warmHits = counters.get("serve.fast_path_hits");
    std::uint64_t warmMisses = counters.get("serve.fast_path_misses");
    double hitRate =
        warmHits + warmMisses
            ? static_cast<double>(warmHits) /
                  static_cast<double>(warmHits + warmMisses)
            : 0.0;
    HistogramSummary latency =
        summarizeHistogram(latencyAll_->snapshot());
    std::uint64_t shardBytes = 0;
    std::uint64_t shardRecords = 0;
    for (const auto &info : pipeline_.cache().shardInfos()) {
        shardBytes += info.bytes;
        shardRecords += info.records;
    }
    std::ostringstream os;
    os << "{\"seq\":" << sub.seq++
       << ",\"interval_ms\":" << sub.interval.count()
       << ",\"requests_total\":" << requests
       << ",\"req_per_s\":" << reqPerS
       << ",\"ok_total\":" << counters.get("serve.ok")
       << ",\"errors_total\":" << counters.get("serve.errors")
       << ",\"inflight\":" << inFlight_.load()
       << ",\"warm_hits_total\":" << warmHits
       << ",\"hit_rate\":" << hitRate
       << ",\"p50_us\":" << latency.p50
       << ",\"p99_us\":" << latency.p99
       << ",\"max_us\":" << latency.max
       << ",\"rss_kb\":" << readRssKb()
       << ",\"shard_bytes\":" << shardBytes
       << ",\"shard_records\":" << shardRecords << ",\"context_entries\":"
       << pipeline_.contextCache().stats().entries
       << ",\"dedup_inflight\":" << pipeline_.inflightDepth() << "}";
    return os.str();
}

void
ScheduleServer::watchLoop()
{
    std::unique_lock<std::mutex> lock(watchMutex_);
    for (;;) {
        if (watchStop_)
            return;
        auto now = std::chrono::steady_clock::now();
        auto next = now + std::chrono::hours(1);
        bool haveNext = false;
        std::vector<std::shared_ptr<WatchSubscription>> due;
        auto it = watches_.begin();
        while (it != watches_.end()) {
            const std::shared_ptr<WatchSubscription> &sub = *it;
            if (!sub->conn->open.load()) {
                it = watches_.erase(it);
                continue;
            }
            if (sub->nextDue <= now) {
                due.push_back(sub);
                sub->nextDue = now + sub->interval;
            }
            if (!haveNext || sub->nextDue < next) {
                next = sub->nextDue;
                haveNext = true;
            }
            ++it;
        }
        if (!due.empty()) {
            // Send outside the lock: a frame to a slow peer must not
            // stall startWatch()/stop(). A failed write marks the
            // connection closed (sendResponse), so the open check
            // above culls the subscription next pass.
            lock.unlock();
            for (const auto &sub : due) {
                Response frame;
                frame.requestId = sub->requestId;
                frame.serverRequestId = sub->serverRequestId;
                frame.status = ResponseStatus::Ok;
                frame.message = watchFrameJson(*sub);
                sendResponse(sub->conn, frame);
            }
            lock.lock();
            continue; // re-check stop and recompute the wake-up
        }
        if (haveNext)
            watchCv_.wait_until(lock, next);
        else
            watchCv_.wait(lock);
    }
}

CounterSet
ScheduleServer::counterSnapshot() const
{
    CounterSet out = metrics_.counters();
    out.merge(pipeline_.statsSnapshot());
    auto addPrefixed = [&out](const char *prefix,
                              const CounterSet &tier) {
        tier.forEach(
            [&out, prefix](const std::string &name, std::uint64_t v) {
                out.bump(std::string(prefix) + name, v);
            });
    };
    addPrefixed("cache.memory.", toCounterSet(pipeline_.cache().stats()));
    addPrefixed("cache.disk.",
                toCounterSet(pipeline_.cache().diskStats()));
    addPrefixed("context.",
                toCounterSet(pipeline_.contextCache().stats()));
    return out;
}

void
ScheduleServer::writeTelemetryFields(std::ostream &os) const
{
    os << ",\"inflight\":" << inFlight_.load() << ",\"latency\":{";
    bool first = true;
    for (const auto &[name, snapshot] : metrics_.streamingSnapshot()) {
        if (!first)
            os << ",";
        first = false;
        writeJsonQuoted(os, name);
        os << ":";
        writeHistogramSummary(os, summarizeHistogram(snapshot));
    }
    os << "}";
    pipeline_.writeTelemetryJson(os);
}

std::string
ScheduleServer::statsJson() const
{
    ScheduleCache::Stats memory = pipeline_.cache().stats();
    PersistentScheduleCache::DiskStats disk =
        pipeline_.cache().diskStats();
    CounterSet pipelineStats = pipeline_.statsSnapshot();

    static const char *const kServeCounters[] = {
        "serve.requests",         "serve.schedule_requests",
        "serve.fast_path_hits",   "serve.fast_path_misses",
        "serve.ok",               "serve.errors",
        "serve.rejected_overload", "serve.deadline_preempted",
        "serve.deadline_expired", "serve.shutting_down",
        "serve.bad_requests",     "serve.pings",
        "serve.stats_requests",   "serve.connections",
        "serve.frames_in",        "serve.frames_out",
        "serve.write_errors",     "serve.watch_requests",
    };
    static const char *const kPipelineCounters[] = {
        "pipeline.jobs",      "pipeline.cache_hits",
        "pipeline.cache_misses", "pipeline.dedup_joins",
        "pipeline.failures",  "pipeline.cancelled",
    };

    std::ostringstream os;
    os << "{\"serve\":";
    writeCounterObject(os, metrics_.counters(), kServeCounters);
    os << ",\"pipeline\":";
    writeCounterObject(os, pipelineStats, kPipelineCounters);
    os << ",\"cache\":{\"memory\":";
    writeCounterObject(os, toCounterSet(memory), kMemoryCacheCounters);
    os << ",\"disk\":";
    writeCounterObject(os, toCounterSet(disk), kDiskCacheCounters);
    os << ",\"context\":";
    writeCounterObject(os, toCounterSet(pipeline_.contextCache().stats()),
                       kContextCacheCounters);
    os << "}}";
    return os.str();
}

} // namespace cs::serve
