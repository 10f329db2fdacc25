/**
 * @file
 * cs_serve: scheduling as a service over a Unix-domain socket.
 *
 * Architecture (DESIGN.md §5f): one accept thread, one reader thread
 * per connection, and a deadline watcher sit in front of the shared
 * SchedulingPipeline. A reader decodes length-prefixed frames
 * (serve/proto.hpp) — a Schedule body it has decoded before is looked
 * up in the RequestMemo instead — answers warm hits itself, applies
 * admission control (a bounded in-flight count — beyond it requests
 * bounce immediately with RejectedOverload rather than queueing
 * without bound), and submits admitted jobs to the pipeline; the
 * completion callback writes the framed response back under a
 * per-connection write mutex, so many requests can be in flight per
 * connection and responses may interleave in completion order (the
 * echoed requestId pairs them).
 *
 * Deadlines are cooperative: each admitted request with a deadline
 * carries an abort flag plumbed down to the scheduler's budget
 * checkpoints (ScheduleJob::abortFlag); the watcher raises the flag
 * when the deadline passes and the job unwinds at its next
 * checkpoint, returning DeadlineExceeded. Only such a request is
 * armed: an armed duplicate of an in-flight job waits on its worker
 * to watch its flag, while an unarmed one frees its worker until its
 * twin's run completes it (DESIGN.md §5i). A request whose deadline
 * is already expired on arrival (deadlineMs < 0) is answered without
 * any scheduling work. Results produced under an armed-but-unraised
 * flag are byte-identical to unarmed runs, so serving never perturbs
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
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
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
 * Request memo: the body of a Schedule request — the binary JobSet
 * after the kRequestHeaderBytes header — mapped to the job key it
 * decoded to, so a repeated request skips the decode, the ScheduleJob
 * build and the key hash.
 *
 * Exact by construction: an entry is made only for a body that
 * decoded, passed validateJobSet and carried exactly one job, and
 * decoding is a function of the bytes alone, so a byte-equal body
 * decodes to the same job and the same scheduleJobKey. Lookup hashes
 * the bytes with std::hash<std::string_view> outside the lock, then
 * compares them in full; a hash collision is a miss, never a wrong key.
 *
 * Bounded by entries and by stored body bytes; least recently used
 * entries go first until both bounds hold. One mutex guards the
 * entries and the counters.
 */
class RequestMemo
{
  public:
    /** At most @p capacity entries (0 disables the memo) holding at
     *  most @p maxBytes of body bytes in total. */
    RequestMemo(std::size_t capacity, std::size_t maxBytes);

    /** The key memoized for @p body, if any (the server counts the
     *  serve.request_memo.hits and .misses). */
    std::optional<std::uint64_t> find(std::span<const std::uint8_t> body);

    /**
     * Keep a copy of @p body under @p key, replacing an entry with the
     * same hash, then evict until both bounds hold. A body larger than
     * the byte bound is not kept.
     */
    void insert(std::span<const std::uint8_t> body, std::uint64_t key);

    struct Stats
    {
        std::size_t entries = 0;
        std::size_t bytes = 0;

        /** Add these as the serve.request_memo.* counters of @p out. */
        void addTo(CounterSet &out) const;
    };

    Stats stats() const;

  private:
    struct Entry
    {
        std::size_t hash = 0;
        std::uint64_t key = 0;
        std::string body;
    };

    const std::size_t capacity_;
    const std::size_t maxBytes_;
    mutable std::mutex mutex_;
    /** Most recently used first. */
    std::list<Entry> lru_;
    /** Body hash -> its entry; one entry per hash. */
    std::unordered_map<std::size_t, std::list<Entry>::iterator> index_;
    std::size_t bytes_ = 0;
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
     * Every counter of the server, for the stats response and the
     * telemetry sampler: serve.*, the pipeline's, and the memo's and
     * cache tiers' (cache.memory.*, cache.disk.*, context.*).
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
        JobSet jobs; ///< keeps the job's machine alive
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
    /**
     * Answer one decoded request. For Schedule, @p body is the
     * request's JobSet bytes (valid for the call) and @p memoKey the
     * key the memo held for them; with a memo key the header alone was
     * decoded and request.jobs is still empty.
     */
    void handleRequest(const std::shared_ptr<Connection> &conn,
                       Request &&request,
                       std::span<const std::uint8_t> body,
                       std::optional<std::uint64_t> memoKey,
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
    /** Sized like the memory tier: cacheCapacity entries, at most
     *  kMaxFrameBytes of bodies. */
    RequestMemo memo_;
    MetricsRegistry metrics_;

    // Lifecycle histograms, resolved once in the constructor (stable
    // addresses) so the request paths record without touching the
    // registry lock.
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
