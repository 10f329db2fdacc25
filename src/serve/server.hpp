/**
 * @file
 * cs_serve: scheduling as a service over a Unix-domain socket.
 *
 * Architecture (DESIGN.md §5f): one accept thread, one reader thread
 * per connection, and a deadline watcher sit in front of the shared
 * SchedulingPipeline. A reader decodes length-prefixed frames
 * (serve/proto.hpp), applies admission control (a bounded in-flight
 * count — beyond it requests bounce immediately with
 * RejectedOverload rather than queueing without bound), and submits
 * admitted jobs to the pipeline; the completion callback writes the
 * framed response back under a per-connection write mutex, so many
 * requests can be in flight per connection and responses may
 * interleave in completion order (the echoed requestId pairs them).
 *
 * Deadlines are cooperative: each admitted request carries an abort
 * flag plumbed down to the scheduler's budget checkpoints
 * (ScheduleJob::abortFlag); the watcher raises the flag when the
 * deadline passes and the job unwinds at its next checkpoint,
 * returning DeadlineExceeded. A request whose deadline is already
 * expired on arrival (deadlineMs < 0) is answered without any
 * scheduling work. Results produced under an armed-but-unraised flag
 * are byte-identical to unarmed runs, so serving never perturbs
 * schedules.
 *
 * Shutdown is a graceful drain: stop() closes the listener, answers
 * new Schedule requests with ShuttingDown, waits for every in-flight
 * job to complete and its response to be written, then closes
 * connections and joins all threads.
 */

#ifndef CS_SERVE_SERVER_HPP
#define CS_SERVE_SERVER_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "serve/proto.hpp"
#include "support/metrics.hpp"

namespace cs::serve {

struct ServerConfig
{
    /**
     * Unix-domain socket path (an existing file is replaced). Empty
     * disables the UDS listener; at least one of socketPath/listenTcp
     * must be set.
     */
    std::string socketPath;
    /**
     * TCP listen spec "host:port" ("127.0.0.1:0" binds an ephemeral
     * port — see boundTcpPort()). Empty disables the TCP listener.
     * Same framed protocol and version check as the UDS listener.
     */
    std::string listenTcp;
    /** Pipeline worker threads; 0 = hardware concurrency. */
    unsigned workerThreads = 0;
    /** Memory-tier schedule-cache entries. */
    std::size_t cacheCapacity = 1024;
    /** Persistent cache directory; empty = memory-only. */
    std::string cacheDirectory;
    int cacheShards = 8;
    /**
     * Milliseconds between flock-ownership retries on read-only disk
     * shards (PipelineConfig::ownershipRetryMs): a daemon that lost
     * the shard race keeps probing, and when the owner exits — crash
     * or drain — it promotes itself and resumes persisting. Daemons
     * default to retrying every second (a daemon is long-lived, so
     * ownership should follow liveness); 0 disables retries (the
     * batch front-ends' default, where the process is gone before a
     * retry would fire).
     */
    int ownershipRetryMs = 1000;
    /** Dedicated II-search workers (see PipelineConfig). */
    unsigned iiSearchWorkers = 0;
    /**
     * Admission bound: Schedule requests admitted (queued or running)
     * at once. Beyond it new requests are rejected with
     * RejectedOverload — backpressure the client can see, instead of
     * an unbounded queue it cannot.
     */
    std::size_t maxInFlight = 64;
    /** accept() backlog. */
    int listenBacklog = 64;
};

/**
 * The daemon. start() binds and spawns the service threads; stop()
 * drains gracefully (idempotent, also run by the destructor). One
 * instance serves many connections, each carrying many concurrent
 * requests.
 */
class ScheduleServer
{
  public:
    explicit ScheduleServer(const ServerConfig &config);
    ~ScheduleServer();

    ScheduleServer(const ScheduleServer &) = delete;
    ScheduleServer &operator=(const ScheduleServer &) = delete;

    /** Bind, listen, and start serving. False (with a log) on error. */
    bool start();

    /** Graceful drain; returns when every thread has been joined. */
    void stop();

    bool running() const { return running_.load(); }

    const std::string &socketPath() const { return config_.socketPath; }

    /**
     * Port the TCP listener actually bound (0 when TCP is disabled or
     * not yet started). With a ":0" spec this is the kernel-assigned
     * ephemeral port — tests depend on it.
     */
    int boundTcpPort() const { return boundTcpPort_; }

    /** Serving + pipeline + cache counters as one JSON object. */
    std::string statsJson() const;

    /**
     * One flat CounterSet across the whole server, for the telemetry
     * sampler: the serve.* counters, the pipeline counters, and the
     * cache tiers prefixed as cache.memory.* / cache.disk.* /
     * context.* (the tiers share counter names, so the prefixes keep
     * the merge collision-free).
     */
    CounterSet counterSnapshot() const;

    /**
     * Append the server's occupancy/latency telemetry as
     * leading-comma JSON fields — inflight depth, every streaming
     * histogram's quantile summary, and the pipeline's shard/cache
     * fields (SchedulingPipeline::writeTelemetryJson). This is the
     * extras closure cs_serve hands the TelemetrySampler.
     */
    void writeTelemetryFields(std::ostream &os) const;

    /** Serving metrics (counters + request timers). */
    const MetricsRegistry &metrics() const { return metrics_; }

    SchedulingPipeline &pipeline() { return pipeline_; }

  private:
    struct Connection
    {
        int fd = -1;
        std::mutex writeMutex;
        std::atomic<bool> open{true};
        /** Set as connectionLoop returns: the next accept joins and
         *  drops the connection's thread (reapFinishedLocked). */
        std::atomic<bool> finished{false};
    };

    /** Everything one admitted Schedule request owns while it runs. */
    struct RequestState
    {
        std::shared_ptr<Connection> conn;
        std::uint64_t requestId = 0;
        /** Peer protocol version, threaded to encodeResponse. */
        std::uint8_t protocolVersion = kProtocolVersion;
        /** Server-allocated lifecycle id (v2 response tail). */
        std::uint64_t serverRequestId = 0;
        JobSet jobs; ///< keeps the job's machine/kernel alive
        std::atomic<bool> abort{false};
        bool hasDeadline = false;
        std::chrono::steady_clock::time_point deadline{};
        /** Frame receipt / pipeline submit times (lifecycle phases). */
        std::chrono::steady_clock::time_point received{};
        std::chrono::steady_clock::time_point dispatched{};
    };

    /** One live Watch stream (v2): periodic stats frames until the
     *  connection closes or a write fails. */
    struct WatchSubscription
    {
        std::shared_ptr<Connection> conn;
        std::uint64_t requestId = 0;
        std::uint64_t serverRequestId = 0;
        std::chrono::milliseconds interval{1000};
        std::chrono::steady_clock::time_point nextDue{};
        std::uint64_t seq = 0;
        /** Previous tick's totals, for per-tick rates. */
        std::uint64_t prevRequests = 0;
        std::chrono::steady_clock::time_point prevTime{};
    };

    void acceptLoop(std::atomic<int> &listenFd, bool tcp);
    void connectionLoop(std::shared_ptr<Connection> conn);
    /** Join and drop finished connections; caller holds connMutex_. */
    void reapFinishedLocked();
    void handleRequest(const std::shared_ptr<Connection> &conn,
                       Request &&request,
                       std::chrono::steady_clock::time_point received,
                       std::chrono::steady_clock::time_point decoded);
    void deadlineLoop();
    void watchDeadline(const std::shared_ptr<RequestState> &state);
    void watchLoop();
    void startWatch(const std::shared_ptr<Connection> &conn,
                    const Request &request,
                    std::uint64_t serverRequestId);
    /** One-line flat JSON stats frame for a Watch tick. */
    std::string watchFrameJson(WatchSubscription &sub);
    bool sendResponse(const std::shared_ptr<Connection> &conn,
                      const Response &response,
                      std::uint8_t peerVersion = kProtocolVersion);
    void finishRequest();

    ServerConfig config_;
    SchedulingPipeline pipeline_;
    MetricsRegistry metrics_;

    // Lifecycle histograms and the in-flight gauge, resolved once in
    // the constructor (stable addresses) so the request paths record
    // without touching the registry lock.
    StreamingHistogram *latencyAll_;
    StreamingHistogram *latencyWarm_;
    StreamingHistogram *latencyDispatched_;
    StreamingHistogram *latencyDeadline_;
    StreamingHistogram *latencyOverload_;
    StreamingHistogram *phaseDecode_;
    StreamingHistogram *phaseAdmit_;
    StreamingHistogram *phaseQueue_;
    StreamingHistogram *phaseSchedule_;
    StreamingHistogram *phaseReply_;
    std::atomic<std::int64_t> *inflightGauge_;

    /** Lifecycle ids; 0 is reserved for "never entered the server". */
    std::atomic<std::uint64_t> nextServerRequestId_{1};

    // Atomic: stop() closes the listeners (and writes -1) while the
    // accept threads are still reading them for the next accept().
    std::atomic<int> listenFd_{-1};
    std::atomic<int> tcpListenFd_{-1};
    int boundTcpPort_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};

    std::thread acceptThread_;
    std::thread tcpAcceptThread_;
    std::mutex connMutex_;
    /** Live connections and their reader threads, index-aligned. */
    std::vector<std::shared_ptr<Connection>> connections_;
    std::vector<std::thread> connThreads_;

    std::atomic<std::size_t> inFlight_{0};
    std::mutex drainMutex_;
    std::condition_variable drainCv_;

    std::mutex deadlineMutex_;
    std::condition_variable deadlineCv_;
    std::vector<std::weak_ptr<RequestState>> deadlines_;
    bool deadlineStop_ = false;
    std::thread deadlineThread_;

    // Watch streamer, same lifecycle shape as the deadline watcher.
    // Watch streams are not Schedule work: they never count against
    // inFlight_, so a live watch does not block the graceful drain.
    std::mutex watchMutex_;
    std::condition_variable watchCv_;
    std::vector<std::shared_ptr<WatchSubscription>> watches_;
    bool watchStop_ = false;
    std::thread watchThread_;
};

} // namespace cs::serve

#endif // CS_SERVE_SERVER_HPP
