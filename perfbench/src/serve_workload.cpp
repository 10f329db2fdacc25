/**
 * @file
 * The `serve` workload: an in-process ScheduleServer configured as
 * cs_serve runs it (Unix socket, disk cache directory), with a memory
 * tier smaller than the warm set so a steady share of hits comes from
 * the disk tier. Load comes from this process over nproc persistent
 * connections, from at most two threads, with every request frame
 * encoded during set-up.
 *
 *  (a) Open loop at a fixed rate: requests are pipelined on each
 *      connection and replies matched by request id; latency is timed
 *      from each request's due time. Every 100th request is a seeded,
 *      never-seen cheap-kernel job (a miss); the rest draw a skewed
 *      popularity over the warm set (the ten Table-1 kernels in block
 *      mode on the four machines).
 *  (b) Closed loop: one request in flight per connection, warm jobs
 *      only; its completions/s is the highest rate the daemon sustains
 *      without a backlog.
 *
 * Set-up schedules the warm set in-process for reference listings
 * (validated and simulated), starts the daemon, fills it, and warms it.
 * The traced run adds client-side spans, reads the daemon's phase
 * histograms, and replays the warm fast path call by call.
 */

#include <atomic>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

#include "common.hpp"
#include "ir/serialize.hpp"
#include "machine/serialize.hpp"
#include "serve/proto.hpp"
#include "serve/server.hpp"
#include "support/histogram.hpp"
#include "support/wire.hpp"

namespace csbench {

namespace {

namespace srv = cs::serve;

/** Open-loop arrival rate (requests/s), fixed for every run: a light
 *  load even when the host is busy. The closed loop's rate on a shared
 *  4-vCPU VM fell from ~8000 to ~2500 req/s under host load, and at
 *  2000 req/s the hit p50 then rose from 0.4 ms to 2-20 ms: it measured
 *  queueing behind the host, not the request path. */
constexpr double kOpenLoopRps = 500.0;
/** Hit latency is summarized per window of this many seconds (~2000
 *  hits, so twenty lie beyond each window's p99). */
constexpr double kP99WindowSeconds = 4.0;
/** A window counts only if 99% of its requests left within this many
 *  ms of their due time. When the host takes the CPU from this VM the
 *  generator falls behind together with the daemon; such windows
 *  measured the host, and moved hit p99 up to 5x between runs. */
constexpr double kOnTimeLateMs = 1.0;
/** One request in this many is a planned miss. */
constexpr std::size_t kMissEvery = 100;
/** Zipf exponent of the warm-set popularity. */
constexpr double kZipfExponent = 1.0;
/** Memory-tier entries: fewer than the 40-job warm set. */
constexpr std::size_t kMemoryEntries = 16;
/** Latency limit on the closed loop's p99 (serve_max_rps counts only
 *  when it holds). */
constexpr double kClosedP99LimitMs = 10.0;
/** Popularity-weighted requests sent while warming the daemon. */
constexpr std::size_t kWarmUpRequests = 2000;
const char *const kMissKernels[] = {"FFT", "Block Warp", "FIR-FP", "DCT"};
constexpr double kInf = std::numeric_limits<double>::infinity();

/** One warm-set job: its reference output and pre-encoded wire forms. */
struct WarmJob
{
    std::string label;
    std::size_t machine = 0;
    cs::ScheduleJob job;
    std::string listing;
    std::vector<std::uint8_t> frame;
    std::vector<std::uint8_t> machineBytes;
    std::vector<std::uint8_t> kernelBytes;
    /** Block length and copies of the reference schedule. */
    int cycles = 0;
    int copies = 0;
    /** A cheap kernel whose search never exhausted its permutation
     *  budget, so a larger budget (a fresh key) schedules identically. */
    bool missEligible = false;
};

/** One planned request. */
struct Planned
{
    const std::vector<std::uint8_t> *frame = nullptr;
    const std::string *listing = nullptr;
    bool miss = false;
};

std::vector<std::uint8_t>
encodeSchedule(const cs::Machine &machine, const cs::ScheduleJob &job)
{
    srv::Request request;
    request.type = srv::RequestType::Schedule;
    request.jobs.machines.push_back(machine);
    request.jobs.kernels.push_back(job.kernel);
    srv::JobDescription desc;
    desc.label = job.label;
    desc.pipelined = job.pipelined;
    desc.maxIiSlack = job.maxIiSlack;
    desc.options = job.options;
    request.jobs.jobs.push_back(desc);
    std::vector<std::uint8_t> payload;
    cs::wire::ByteWriter writer(payload);
    srv::encodeRequest(writer, request);
    return payload;
}

/** Request layout: u8 version, u8 type, u64 request id (LE), ... */
void
patchRequestId(std::vector<std::uint8_t> &payload, std::uint64_t id)
{
    cs::wire::storeU64le(payload.data() + 2, id);
}

/** One persistent client connection with frame reassembly. */
class Conn
{
  public:
    explicit Conn(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                      path.c_str());
        if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                                 sizeof addr) != 0) {
            if (fd_ >= 0)
                ::close(fd_);
            throw std::runtime_error("cannot connect to " + path);
        }
    }
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    int fd() const { return fd_; }

    bool send(const std::vector<std::uint8_t> &payload)
    {
        return srv::writeFrame(fd_, payload);
    }

    /** Read what the socket holds; append each complete payload. */
    bool
    receive(std::vector<std::vector<std::uint8_t>> &frames)
    {
        std::uint8_t chunk[65536];
        ssize_t got = ::read(fd_, chunk, sizeof chunk);
        if (got <= 0)
            return false;
        buffer_.insert(buffer_.end(), chunk, chunk + got);
        std::size_t pos = 0;
        while (buffer_.size() - pos >= 4) {
            std::uint32_t len = cs::wire::loadU32le(buffer_.data() + pos);
            if (buffer_.size() - pos - 4 < len)
                break;
            frames.emplace_back(buffer_.begin() + pos + 4,
                                buffer_.begin() + pos + 4 + len);
            pos += 4 + len;
        }
        buffer_.erase(buffer_.begin(), buffer_.begin() + pos);
        return true;
    }

  private:
    int fd_ = -1;
    std::vector<std::uint8_t> buffer_;
};

using Conns = std::vector<std::unique_ptr<Conn>>;

/** Decode and check one reply against its plan; "" = correct. */
std::string
checkReply(const Planned &plan, const srv::Response &response)
{
    if (response.status != srv::ResponseStatus::Ok)
        return std::string("status ") + srv::statusName(response.status) +
               ": " + response.message;
    if (response.listing != *plan.listing)
        return "listing differs from its reference";
    if (plan.miss && response.cacheHit)
        return "planned miss answered as a hit";
    return {};
}

/** The closed loop's rate is taken per window of this many seconds. */
constexpr double kRateWindowSeconds = 0.5;

struct ClosedLoopResult
{
    std::vector<double> latencyMs;
    /** Reply times, seconds since the loop started. */
    std::vector<double> completedAt;
    double seconds = 0.0;
    /** CPU ticks at each kRateWindowSeconds boundary from the start. */
    std::vector<CpuTicks> windowTicks;

    /** Median over the whole quiet windows (every whole window when
     *  fewer than three are quiet; @p used says how many were taken) of
     *  the completion rate: steadier than one rate over the whole loop
     *  when the host stalls the process. */
    double
    medianWindowRate(std::size_t *used, std::size_t *whole) const
    {
        auto full = std::min(
            static_cast<std::size_t>(seconds / kRateWindowSeconds),
            windowTicks.empty() ? 0 : windowTicks.size() - 1);
        *whole = full;
        if (full == 0) {
            *used = 0;
            return static_cast<double>(completedAt.size()) / seconds;
        }
        std::vector<double> rates(full, 0.0), steal;
        for (double t : completedAt) {
            auto w = static_cast<std::size_t>(t / kRateWindowSeconds);
            if (w < full)
                rates[w] += 1.0 / kRateWindowSeconds;
        }
        for (std::size_t w = 0; w < full; ++w)
            steal.push_back(stealShare(windowTicks[w], windowTicks[w + 1]));
        bool fellBack = false;
        std::vector<std::size_t> quiet = quietIntervals(steal, 3, &fellBack);
        *used = quiet.size();
        return median(pick(rates, quiet));
    }
};

/**
 * Closed loop from one thread: one request in flight per connection,
 * drawn cyclically from @p picks, until @p maxRequests were issued or
 * @p seconds passed (whichever is set).
 */
ClosedLoopResult
runClosedLoop(Conns &conns, const std::vector<Planned> &picks,
              std::size_t maxRequests, double seconds,
              std::uint64_t &nextId, Report &report)
{
    struct Slot
    {
        bool busy = false;
        std::uint64_t id = 0;
        const Planned *plan = nullptr;
        Clock::time_point sent;
    };
    ClosedLoopResult out;
    std::vector<Slot> slots(conns.size());
    std::size_t issued = 0;
    std::vector<std::uint8_t> buffer;
    Clock::time_point start = Clock::now();
    Clock::time_point last = start;
    out.windowTicks.push_back(CpuTicks::now());
    auto keepIssuing = [&] {
        return maxRequests ? issued < maxRequests
                           : secondsBetween(start, Clock::now()) < seconds;
    };
    auto issue = [&](std::size_t c) {
        Slot &slot = slots[c];
        slot.plan = &picks[issued % picks.size()];
        slot.id = nextId++;
        buffer = *slot.plan->frame;
        patchRequestId(buffer, slot.id);
        slot.sent = Clock::now();
        slot.busy = true;
        ++issued;
        report.attempt();
        if (!conns[c]->send(buffer)) {
            report.fail("send failed");
            slot.busy = false;
        }
    };
    for (std::size_t c = 0; c < conns.size() && keepIssuing(); ++c)
        issue(c);

    std::vector<pollfd> fds(conns.size());
    std::vector<std::vector<std::uint8_t>> frames;
    for (;;) {
        std::size_t busy = 0;
        for (std::size_t c = 0; c < conns.size(); ++c) {
            fds[c] = {conns[c]->fd(), POLLIN, 0};
            busy += slots[c].busy;
        }
        if (busy == 0)
            break;
        int ready = ::poll(fds.data(), fds.size(), 10000);
        if (ready <= 0) {
            report.fail("closed loop: no reply within 10 s");
            break;
        }
        for (std::size_t c = 0; c < conns.size(); ++c) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            frames.clear();
            if (!conns[c]->receive(frames)) {
                report.fail("connection closed by the daemon");
                slots[c].busy = false;
                continue;
            }
            for (const auto &frame : frames) {
                Clock::time_point now = Clock::now();
                srv::Response response;
                cs::wire::ByteReader reader(std::span<const std::uint8_t>(
                    frame.data(), frame.size()));
                Slot &slot = slots[c];
                std::string problem;
                if (!srv::decodeResponse(reader, &response))
                    problem = "undecodable reply: " + reader.error();
                else if (!slot.busy || response.requestId != slot.id)
                    problem = "reply for an unexpected request id";
                else
                    problem = checkReply(*slot.plan, response);
                if (!problem.empty())
                    report.fail(problem);
                out.latencyMs.push_back(problem.empty()
                                            ? msBetween(slot.sent, now)
                                            : kInf);
                out.completedAt.push_back(secondsBetween(start, now));
                while (out.completedAt.back() >=
                       kRateWindowSeconds *
                           static_cast<double>(out.windowTicks.size()))
                    out.windowTicks.push_back(CpuTicks::now());
                last = now;
                slot.busy = false;
                if (keepIssuing())
                    issue(c);
            }
        }
    }
    out.seconds = secondsBetween(start, last);
    return out;
}

struct OpenLoopResult
{
    std::vector<double> hitMs;
    /** Hit and miss latencies and every request's lateness, per
     *  kP99WindowSeconds window of due times. */
    std::vector<std::vector<double>> hitWindows;
    std::vector<std::vector<double>> missWindows;
    std::vector<std::vector<double>> lateWindows;
    /** Steal share per window (see kQuietStealShare). */
    std::vector<double> windowSteal;
    std::vector<double> rttUs;
    std::vector<double> decodeUs;
    std::vector<double> lateMs;
    std::vector<double> sendUs;
    std::vector<double> responseBytes;
    std::size_t warmAnsweredAsMiss = 0;
    double achievedRps = 0.0;
};

/**
 * Open loop: one sender thread issues plan[i] at start + i / rate on
 * connection i % nconn; one receiver thread polls every connection and
 * matches replies by request id (= plan index).
 */
OpenLoopResult
runOpenLoop(Conns &conns, const std::vector<Planned> &plan, double rate,
            Report &report, SpanLog *spans)
{
    const std::size_t n = plan.size();
    auto sentNs = std::make_unique<std::atomic<std::int64_t>[]>(n);
    auto rootSpan = std::make_unique<std::atomic<int>[]>(n);
    std::vector<double> lateMs(n, 0.0);
    std::vector<double> sendUs(n, 0.0);
    std::atomic<std::size_t> sendFailures{0};
    std::atomic<bool> abandon{false};
    OpenLoopResult out;
    std::vector<double> latency(n, kInf);
    std::vector<bool> answered(n, false);
    report.attempt(n);

    const Clock::time_point start = Clock::now() +
                                    std::chrono::milliseconds(5);
    auto dueOf = [&](std::size_t i) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               static_cast<double>(i) / rate));
    };
    auto windowOf = [&](std::size_t i) {
        return static_cast<std::size_t>(static_cast<double>(i) / rate /
                                        kP99WindowSeconds);
    };
    // CPU ticks when each window's first request was sent, and at the end.
    std::vector<CpuTicks> windowTicks(windowOf(n) + 2);

    std::thread sender([&] {
        // Wake up on time: the default 50 us timer slack would show up
        // as generator lateness.
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
        std::vector<std::uint8_t> buffer;
        for (std::size_t i = 0; i < n && !abandon.load(); ++i) {
            Clock::time_point due = dueOf(i);
            std::this_thread::sleep_until(due);
            buffer = *plan[i].frame;
            patchRequestId(buffer, i);
            Clock::time_point s0 = Clock::now();
            int root = spans ? spans->open("serve.request", due, -1, i) : -1;
            rootSpan[i].store(root, std::memory_order_relaxed);
            sentNs[i].store(s0.time_since_epoch().count(),
                            std::memory_order_release);
            bool ok = conns[i % conns.size()]->send(buffer);
            // Not a child span: the reply can be decoded on the other
            // thread before this one resumes, so the two would overlap.
            sendUs[i] = usBetween(s0, Clock::now());
            lateMs[i] = msBetween(due, s0);
            if (i == 0 || windowOf(i) != windowOf(i - 1))
                windowTicks[windowOf(i)] = CpuTicks::now();
            if (!ok)
                sendFailures.fetch_add(1);
        }
    });

    std::size_t completed = 0;
    Clock::time_point lastReply = start;
    std::vector<pollfd> fds(conns.size());
    std::vector<std::vector<std::uint8_t>> frames;
    while (completed + sendFailures.load() < n) {
        for (std::size_t c = 0; c < conns.size(); ++c)
            fds[c] = {conns[c]->fd(), POLLIN, 0};
        int ready = ::poll(fds.data(), fds.size(), 10000);
        if (ready <= 0) {
            report.checkFailed("open loop: no reply within 10 s");
            break;
        }
        for (std::size_t c = 0; c < conns.size(); ++c) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            frames.clear();
            if (!conns[c]->receive(frames)) {
                report.checkFailed("open loop: connection closed");
                abandon.store(true);
                break;
            }
            for (const auto &frame : frames) {
                Clock::time_point now = Clock::now();
                srv::Response response;
                cs::wire::ByteReader reader(std::span<const std::uint8_t>(
                    frame.data(), frame.size()));
                bool decoded = srv::decodeResponse(reader, &response);
                Clock::time_point decodedAt = Clock::now();
                out.decodeUs.push_back(usBetween(now, decodedAt));
                std::uint64_t id = response.requestId;
                if (!decoded || id >= n || answered[id]) {
                    report.fail("open loop: unmatched or undecodable reply");
                    continue;
                }
                answered[id] = true;
                ++completed;
                lastReply = now;
                const Planned &p = plan[id];
                std::string problem = checkReply(p, response);
                if (!problem.empty())
                    report.fail(problem);
                else
                    latency[id] = msBetween(dueOf(id), now);
                if (!p.miss && !response.cacheHit)
                    ++out.warmAnsweredAsMiss;
                Clock::time_point sent{Clock::duration(
                    sentNs[id].load(std::memory_order_acquire))};
                out.rttUs.push_back(usBetween(sent, now));
                out.responseBytes.push_back(
                    static_cast<double>(frame.size() + 4));
                if (spans) {
                    int root = rootSpan[id].load(std::memory_order_relaxed);
                    spans->add("serve.client_decode", now, decodedAt, root,
                               id);
                    spans->close(root, decodedAt);
                }
            }
        }
        if (abandon.load())
            break;
    }
    abandon.store(true);
    sender.join();
    CpuTicks end = CpuTicks::now();
    for (CpuTicks &t : windowTicks)
        if (t.busy == 0)
            t = end;
    for (std::size_t w = 0; w + 1 < windowTicks.size(); ++w)
        out.windowSteal.push_back(
            stealShare(windowTicks[w], windowTicks[w + 1]));
    out.hitWindows.resize(windowOf(n) + 1);
    out.missWindows.resize(windowOf(n) + 1);
    out.lateWindows.resize(windowOf(n) + 1);
    for (std::size_t i = 0; i < n; ++i) {
        if (!answered[i])
            report.fail("open loop: request " + std::to_string(i) +
                        " got no reply");
        out.lateWindows[windowOf(i)].push_back(lateMs[i]);
        if (plan[i].miss) {
            out.missWindows[windowOf(i)].push_back(latency[i]);
        } else {
            out.hitMs.push_back(latency[i]);
            out.hitWindows[windowOf(i)].push_back(latency[i]);
        }
    }
    out.lateMs = std::move(lateMs);
    out.sendUs = std::move(sendUs);
    out.achievedRps =
        static_cast<double>(completed) / secondsBetween(start, lastReply);
    return out;
}

using Snapshot = cs::StreamingHistogram::Snapshot;

Snapshot
deltaOf(const Snapshot &before, const Snapshot &after)
{
    Snapshot d;
    for (std::size_t i = 0; i < d.buckets.size(); ++i) {
        d.buckets[i] = after.buckets[i] - before.buckets[i];
        d.count += d.buckets[i];
    }
    d.total = after.total - before.total;
    d.max = after.max;
    return d;
}

/** Quantile of a histogram delta, capped so ten samples lie beyond. */
Percentile
histogramPercentile(const Snapshot &s, double q)
{
    Percentile p;
    p.requestedQ = q;
    p.samples = s.count;
    double n = static_cast<double>(s.count);
    p.reportedQ = n > 0 ? std::max(0.0, std::min(q, 1.0 - 10.0 / n)) : 0;
    p.value = static_cast<double>(s.quantile(p.reportedQ));
    return p;
}

/** Daemon-side counters read before and after the open loop. */
struct DaemonCounters
{
    std::uint64_t memoryHits = 0, diskHits = 0, diskWrites = 0,
                  fastPathHits = 0, rejected = 0, errors = 0;

    static DaemonCounters
    read(srv::ScheduleServer &server)
    {
        DaemonCounters c;
        const cs::PersistentScheduleCache &cache = server.pipeline().cache();
        c.memoryHits = cache.stats().hits;
        c.diskHits = cache.diskStats().hits;
        c.diskWrites = cache.diskStats().writes;
        const cs::CounterSet &counters = server.metrics().counters();
        c.fastPathHits = counters.get("serve.fast_path_hits");
        c.rejected = counters.get("serve.rejected_overload");
        c.errors = counters.get("serve.errors");
        return c;
    }
};

/** Everything one set-up repetition builds. */
struct ServeState
{
    std::vector<NamedMachine> machines;
    std::vector<WarmJob> warm;
    std::vector<std::vector<std::uint8_t>> missFrames;
    std::vector<Planned> plan;     ///< open loop
    std::vector<Planned> warmPicks; ///< closed loop and warm-up
    std::vector<Planned> fill;      ///< every warm job once
    std::string socketPath;
    std::string cacheDir;
    std::unique_ptr<srv::ScheduleServer> server;
    Conns conns;
    std::vector<std::uint64_t> keys;

    ~ServeState()
    {
        conns.clear();
        if (server)
            server->stop();
        server.reset();
        std::error_code ignored;
        std::filesystem::remove_all(cacheDir, ignored);
        std::filesystem::remove(socketPath, ignored);
    }
};

std::unique_ptr<ServeState>
setUp(const RunConfig &config, int rep, std::size_t planned,
      std::uint64_t &nextId, Report &report)
{
    auto st = std::make_unique<ServeState>();
    st->machines = evaluationMachines();
    cs::Rng rng(config.seed);

    // Reference listings, in-process, validated and simulated.
    for (std::size_t m = 0; m < st->machines.size(); ++m) {
        const cs::Machine &machine = st->machines[m].machine;
        for (const cs::KernelSpec &spec : cs::allKernels()) {
            WarmJob w;
            w.label = spec.name + "@" + st->machines[m].name;
            w.machine = m;
            w.job.label = w.label;
            w.job.kernel = spec.build();
            w.job.machine = &machine;
            w.job.pipelined = false;
            cs::JobResult result = cs::runScheduleJob(w.job);
            std::string problem = checkSchedule(spec, machine, result);
            if (!problem.empty())
                report.fail(w.label + ": " + problem);
            w.listing = result.listing;
            w.cycles = result.length;
            w.copies = result.copiesInserted;
            w.frame = encodeSchedule(machine, w.job);
            cs::wire::ByteWriter mw(w.machineBytes);
            cs::encodeMachine(mw, machine);
            cs::wire::ByteWriter kw(w.kernelBytes);
            cs::encodeKernel(kw, w.job.kernel);
            for (const char *cheap : kMissKernels) {
                if (spec.name == cheap &&
                    result.sched.stats.get("perm_budget_exhausted") == 0)
                    w.missEligible = true;
            }
            st->keys.push_back(cs::scheduleJobKey(w.job));
            st->warm.push_back(std::move(w));
        }
    }

    // Popularity: rank r is kernel r / 4 (Table-1 order) on machine
    // r % 4, so every machine carries the same traffic share. The
    // ranking is fixed; the seed draws the request sequence. (Letting
    // the seed rank the kernels moved hit p50 by 10% between seeds,
    // since request size and decode cost differ by kernel.)
    const std::size_t numMachines = st->machines.size();
    const std::size_t numKernels = st->warm.size() / numMachines;
    std::vector<std::size_t> ranked;
    for (std::size_t r = 0; r < st->warm.size(); ++r)
        ranked.push_back((r % numMachines) * numKernels + r / numMachines);
    std::vector<double> cdf;
    double total = 0.0;
    for (std::size_t r = 0; r < ranked.size(); ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
        cdf.push_back(total);
    }
    auto drawWarm = [&]() {
        double u = rng.uniformDouble() * total;
        std::size_t r = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const WarmJob &w = st->warm[ranked[std::min(r, ranked.size() - 1)]];
        return Planned{&w.frame, &w.listing, false};
    };

    // Planned misses rotate over the eligible cheap (kernel, machine)
    // pairs; each gets a never-seen key through a larger permutation
    // budget, which schedules identically because the search never
    // reached the default one.
    std::vector<const WarmJob *> missBase;
    for (const WarmJob &w : st->warm)
        if (w.missEligible)
            missBase.push_back(&w);
    if (missBase.empty())
        throw std::runtime_error("no cheap warm job is miss-eligible");
    const std::size_t misses = planned / kMissEvery + 1;
    const std::size_t missOffset = rng.uniformInt(0, kMissEvery - 1);
    const std::size_t rotation = rng.uniformInt(0, missBase.size() - 1);
    std::vector<const WarmJob *> missOf;
    for (std::size_t k = 0; k < misses; ++k) {
        const WarmJob &base = *missBase[(rotation + k) % missBase.size()];
        cs::ScheduleJob job = base.job;
        job.options.permutationBudget +=
            1 + static_cast<int>((config.seed % 1000) * 100000 +
                                 static_cast<std::uint64_t>(rep) * 20000 +
                                 k);
        st->missFrames.push_back(
            encodeSchedule(st->machines[base.machine].machine, job));
        st->keys.push_back(cs::scheduleJobKey(job));
        missOf.push_back(&base);
    }
    std::size_t missIndex = 0;
    for (std::size_t i = 0; i < planned; ++i) {
        if (i % kMissEvery == missOffset) {
            const WarmJob &base = *missOf[missIndex];
            st->plan.push_back(
                Planned{&st->missFrames[missIndex], &base.listing, true});
            ++missIndex;
        } else {
            st->plan.push_back(drawWarm());
        }
    }
    for (std::size_t i = 0; i < kWarmUpRequests; ++i)
        st->warmPicks.push_back(drawWarm());
    for (const WarmJob &w : st->warm)
        st->fill.push_back(Planned{&w.frame, &w.listing, false});

    // The daemon, as cs_serve configures it, on a fresh cache directory.
    std::string tag = std::to_string(::getpid()) + "-" + std::to_string(rep);
    st->socketPath = config.workDir + "/s" + tag + ".sock";
    st->cacheDir = config.workDir + "/cache-" + tag;
    std::filesystem::create_directories(config.workDir);
    std::error_code ignored;
    std::filesystem::remove_all(st->cacheDir, ignored);
    srv::ServerConfig sc;
    sc.socketPath = st->socketPath;
    sc.cacheDirectory = st->cacheDir;
    sc.cacheCapacity = kMemoryEntries;
    sc.workerThreads = hardwareThreads();
    st->server = std::make_unique<srv::ScheduleServer>(sc);
    if (!st->server->start())
        throw std::runtime_error("cannot start the daemon on " +
                                 st->socketPath);
    for (unsigned c = 0; c < hardwareThreads(); ++c)
        st->conns.push_back(std::make_unique<Conn>(st->socketPath));

    // Fill (every warm job scheduled once by the daemon), then warm.
    runClosedLoop(st->conns, st->fill, st->fill.size(), 0.0, nextId,
                  report);
    runClosedLoop(st->conns, st->warmPicks, kWarmUpRequests, 0.0, nextId,
                  report);
    return st;
}

/** The warm fast path, call by call, against the daemon's pipeline. */
struct ReplayTimes
{
    std::vector<double> untracedUs;
    std::vector<double> tracedUs;
};

ReplayTimes
replayFastPath(ServeState &st, double seconds, SpanLog &spans,
               Report &report)
{
    ReplayTimes out;
    cs::SchedulingPipeline &pipeline = st.server->pipeline();
    auto once = [&](const WarmJob &w, bool traced, std::uint64_t id) {
        Clock::time_point t0 = Clock::now();
        int root = traced ? spans.open("serve.replay", t0, -1, id) : -1;
        Clock::time_point mark = t0;
        auto step = [&](const char *name) {
            Clock::time_point now = Clock::now();
            if (traced)
                spans.add(name, mark, now, root, id);
            mark = now;
        };
        srv::Request request;
        cs::wire::ByteReader rr(std::span<const std::uint8_t>(
            w.frame.data(), w.frame.size()));
        bool ok = srv::decodeRequest(rr, &request);
        step("serve.decode");
        std::optional<cs::Machine> machine;
        cs::wire::ByteReader mr(std::span<const std::uint8_t>(
            w.machineBytes.data(), w.machineBytes.size()));
        ok = cs::decodeMachine(mr, &machine) && ok;
        step("machine.decode");
        std::optional<cs::Kernel> kernel;
        cs::wire::ByteReader kr(std::span<const std::uint8_t>(
            w.kernelBytes.data(), w.kernelBytes.size()));
        ok = cs::decodeKernel(kr, &kernel) && ok;
        step("ir.decode");
        if (!ok) {
            report.fail(w.label + ": replay decode failed");
            return;
        }
        cs::ScheduleJob job = srv::jobSetToScheduleJobs(request.jobs).front();
        step("serve.job_build");
        volatile std::uint64_t key = cs::scheduleJobKey(job);
        (void)key;
        step("pipeline.job_key");
        std::optional<cs::JobResult> hit = pipeline.lookupCached(job);
        step("pipeline.cache_probe");
        if (!hit || hit->listing != w.listing) {
            report.fail(w.label + ": replay probe missed or differs");
            return;
        }
        srv::Response response;
        response.status = srv::ResponseStatus::Ok;
        srv::summarizeResult(*hit, &response);
        std::vector<std::uint8_t> bytes;
        cs::wire::ByteWriter writer(bytes);
        srv::encodeResponse(writer, response);
        step("serve.reply_encode");
        Clock::time_point t1 = Clock::now();
        if (traced)
            spans.close(root, t1);
        (traced ? out.tracedUs : out.untracedUs)
            .push_back(usBetween(t0, t1));
    };
    // Untraced and traced calls alternate which goes first, so neither
    // side always finds the caches warmed by the other.
    Clock::time_point start = Clock::now();
    std::uint64_t id = 0;
    while (secondsBetween(start, Clock::now()) < seconds) {
        for (const WarmJob &w : st.warm) {
            report.attempt(2);
            bool tracedFirst = id % 2 == 1;
            once(w, tracedFirst, id);
            once(w, !tracedFirst, id);
            ++id;
        }
    }
    return out;
}

} // namespace

int
runServe(const RunConfig &config)
{
    Report report;
    const double openShare = config.trace ? 0.5 : 0.6;
    const double closedShare = config.trace ? 0.3 : 0.4;
    const std::size_t planned = static_cast<std::size_t>(
        kOpenLoopRps * openShare * config.seconds);
    std::uint64_t nextId = std::uint64_t{1} << 40;

    std::vector<double> setupSeconds, setupSteal;
    std::unique_ptr<ServeState> st;
    Clock::time_point setupStart = config.processStart;
    CpuTicks setupTicks = CpuTicks::now();
    for (int rep = 0; rep < kSetupRepetitions; ++rep) {
        st.reset();
        st = setUp(config, rep, planned, nextId, report);
        setupSeconds.push_back(secondsBetween(setupStart, Clock::now()));
        CpuTicks ticks = CpuTicks::now();
        setupSteal.push_back(stealShare(setupTicks, ticks));
        setupStart = Clock::now();
        setupTicks = ticks;
    }
    bool setupFellBack = false;
    const std::vector<std::size_t> setups =
        quietIntervals(setupSteal, 2, &setupFellBack);
    const std::size_t quietSetupCount = setups.size();
    printEnvironment(config, hex64(hashKeys(st->keys)), st->keys.size());
    // Every reply is checked byte-equal to these in-process references.
    std::vector<std::string> references;
    for (const WarmJob &w : st->warm)
        references.push_back(w.listing);
    report.listings(references);

    srv::ScheduleServer &server = *st->server;
    SpanLog spans(config.processStart);
    auto histBefore = server.metrics().streamingSnapshot();
    DaemonCounters countersBefore = DaemonCounters::read(server);
    OpenLoopResult open = runOpenLoop(st->conns, st->plan, kOpenLoopRps,
                                      report,
                                      config.trace ? &spans : nullptr);
    auto histAfter = server.metrics().streamingSnapshot();
    DaemonCounters countersAfter = DaemonCounters::read(server);
    ClosedLoopResult closed =
        runClosedLoop(st->conns, st->warmPicks, 0,
                      closedShare * config.seconds, nextId, report);

    Percentile closedP99 = percentile(closed.latencyMs, 0.99);
    // Completions/s as the median over half-second windows: a host stall
    // of a few ms lands in one window instead of moving the whole run's
    // figure.
    std::size_t rateWindows = 0, wholeRateWindows = 0;
    double maxRps = closed.medianWindowRate(&rateWindows, &wholeRateWindows);
    Percentile hit99 = percentile(open.hitMs, 0.99);
    // Hit and miss p50 pool the requests of the steady windows, where
    // the generator kept its schedule and the host stole little CPU (see
    // kQuietStealShare), and hit p99 is the median of those windows'
    // p99s. With no such window (or too few misses in them for a p50)
    // the run falls back to every window and says so.
    auto windowsWhere = [&](bool requireSteady) {
        std::vector<std::size_t> picked;
        for (std::size_t w = 0; w < open.hitWindows.size(); ++w) {
            if (percentile(open.hitWindows[w], 0.99).supported() &&
                (!requireSteady ||
                 (percentile(open.lateWindows[w], 0.99).value <
                      kOnTimeLateMs &&
                  open.windowSteal[w] <= kQuietStealShare)))
                picked.push_back(w);
        }
        return picked;
    };
    std::vector<std::size_t> windows = windowsWhere(true);
    const std::size_t steadyWindows = windows.size();
    if (windows.empty())
        windows = windowsWhere(false);
    std::vector<double> windowP99, windowHits, windowMisses, allMisses;
    for (std::size_t w : windows) {
        const std::vector<double> &hits = open.hitWindows[w];
        windowP99.push_back(percentile(hits, 0.99).value);
        windowHits.insert(windowHits.end(), hits.begin(), hits.end());
        windowMisses.insert(windowMisses.end(), open.missWindows[w].begin(),
                            open.missWindows[w].end());
    }
    for (const std::vector<double> &misses : open.missWindows)
        allMisses.insert(allMisses.end(), misses.begin(), misses.end());
    Percentile hit50 = percentile(windowHits, 0.50);
    Percentile miss50 = percentile(windowMisses, 0.50);
    if (!miss50.supported()) {
        std::cout << "  too few misses in the steady windows; miss p50 "
                     "uses every window\n";
        miss50 = percentile(allMisses, 0.50);
    }
    std::cout << "  steady (generator p99 lateness < " << kOnTimeLateMs
              << " ms, steal <= " << 100.0 * kQuietStealShare << "%) in "
              << steadyWindows << " of " << open.hitWindows.size()
              << " windows"
              << (steadyWindows == 0 ? "; NO window steady, hit figures "
                                       "use every window"
                                     : "")
              << "; set-up median of "
              << quietSetupCount << " of " << setupSeconds.size()
              << " repetitions\n";
    std::cout << "  open loop at " << kOpenLoopRps << " req/s over "
              << st->conns.size() << " connections: hits "
              << hit50.label("ms") << ", " << hit99.label("ms")
              << ", median of " << windowP99.size() << " "
              << kP99WindowSeconds << "-second p99s=" << median(windowP99)
              << " ms; misses " << miss50.label("ms") << "; "
              << open.warmAnsweredAsMiss
              << " warm requests answered as misses\n"
              << "  generator lateness "
              << percentile(open.lateMs, 0.99).label("ms") << ", max "
              << (open.lateMs.empty()
                      ? 0.0
                      : *std::max_element(open.lateMs.begin(),
                                          open.lateMs.end()))
              << " ms; client RTT "
              << percentile(open.rttUs, 0.50).label("us", 0) << ", "
              << percentile(open.rttUs, 0.99).label("us", 0) << "\n"
              << "  closed loop, " << st->conns.size() << " connections: "
              << closed.latencyMs.size() / closed.seconds
              << " req/s overall, median of " << rateWindows << " of "
              << wholeRateWindows << " half-second windows (quiet ones if "
              << "three are) " << maxRps << " req/s, "
              << closedP99.label("ms") << " (limit "
              << kClosedP99LimitMs << " ms)\n";
    for (const Percentile *p : {&hit50, &hit99, &miss50, &closedP99}) {
        if (!p->supported())
            report.checkFailed("a percentile lacks samples: " +
                               p->label("ms"));
    }
    if (windowP99.empty())
        report.checkFailed("no p99 window holds 1000 hits");
    // A breach is a performance finding, not a wrong output: it is
    // reported loudly but leaves the run's correctness alone (a loaded
    // host alone can push the p99 past the limit).
    if (!(closedP99.value < kClosedP99LimitMs)) {
        std::string warning = "LIMIT EXCEEDED: closed-loop " +
                              closedP99.label("ms") + " is over " +
                              std::to_string(kClosedP99LimitMs) +
                              " ms, so serve_max_rps overstates the rate "
                              "that meets the limit";
        std::cout << "  " << warning << "\n";
        std::cerr << "csbench: " << warning << "\n";
    }

    if (!config.trace) {
        // latency: open-loop warm-hit p50 from due time; throughput: the
        // closed loop's completions/s; schedules: the warm set's.
        std::vector<double> cycles;
        EndToEnd e;
        for (const WarmJob &w : st->warm) {
            cycles.push_back(w.cycles);
            e.copies += w.copies;
        }
        e.setupS = median(pick(setupSeconds, setups));
        e.latencyMs = hit50.value;
        e.throughputPerS = maxRps;
        e.cyclesGeomean = geomean(cycles);
        reportEndToEnd(report, e);
        return finish(config, report);
    }

    report.metric("serve.hit_p99_ms", median(windowP99), "ms");
    report.metric("serve.miss_p50_ms", miss50.value, "ms");

    // Client side.
    Percentile rtt50 = percentile(open.rttUs, 0.50);
    Percentile rtt99 = percentile(open.rttUs, 0.99);
    Percentile late99 = percentile(open.lateMs, 0.99);
    report.metric("serve.client_rtt_us.p50", rtt50.value, "us");
    report.metric("serve.client_rtt_us.p99", rtt99.value, "us");
    report.metric("serve.client_decode_us", median(open.decodeUs), "us");
    report.metric("serve.generator_late_ms.p99", late99.value, "ms");
    report.metric("serve.generator_late_ms.max",
                  open.lateMs.empty() ? 0.0
                                      : *std::max_element(
                                            open.lateMs.begin(),
                                            open.lateMs.end()),
                  "ms");
    report.metric("serve.achieved_rps", open.achievedRps, "req/s");
    report.metric("serve.closed_p99_ms", closedP99.value, "ms");
    auto client = spans.totalsUnder("serve.request");
    double clientUs = client["serve.request"].totalUs;
    auto share = [](double part, double whole) {
        return whole > 0 ? part / whole : 0.0;
    };
    report.metric("serve.client_wait_share",
                  share(client["serve.request"].selfUs, clientUs), "ratio");
    report.metric("serve.client_send_us", median(open.sendUs), "us");
    report.metric("serve.client_decode_share",
                  share(client["serve.client_decode"].selfUs, clientUs),
                  "ratio");

    // The daemon's own histograms over the open loop.
    std::cout << "  daemon histograms over the open loop:";
    auto hist = [&](const std::string &name) {
        return deltaOf(histBefore[name], histAfter[name]);
    };
    for (const char *phase : {"decode", "admit", "queue", "schedule",
                              "reply"}) {
        std::string name = std::string("serve.phase_us.") + phase;
        Percentile p = histogramPercentile(hist(name), 0.50);
        report.metric(name + ".p50", p.value, "us");
        std::cout << " " << phase << " " << p.label("us", 0) << ";";
    }
    std::cout << "\n ";
    Percentile warm50 = histogramPercentile(hist("serve.latency_us.warm"),
                                            0.50);
    for (const char *outcome : {"warm", "dispatched"}) {
        std::string name = std::string("serve.latency_us.") + outcome;
        Snapshot s = hist(name);
        for (double q : {0.50, 0.99}) {
            Percentile p = histogramPercentile(s, q);
            report.metric(name + (q < 0.9 ? ".p50" : ".p99"), p.value,
                          "us");
            std::cout << " " << outcome << " " << p.label("us", 0) << ";";
        }
    }
    std::cout << "\n";
    report.metric("serve.transport_us", rtt50.value - warm50.value, "us");

    // Counts over the open loop.
    for (std::size_t m = 0; m < st->machines.size(); ++m) {
        std::vector<double> sizes;
        for (const WarmJob &w : st->warm)
            if (w.machine == m)
                sizes.push_back(static_cast<double>(w.frame.size() + 4));
        report.metric("serve.request_bytes." + st->machines[m].name,
                      median(sizes), "bytes");
    }
    report.metric("serve.response_bytes", median(open.responseBytes),
                  "bytes");
    auto delta = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(b - a);
    };
    double memoryHits = delta(countersBefore.memoryHits,
                              countersAfter.memoryHits);
    double diskHits = delta(countersBefore.diskHits, countersAfter.diskHits);
    report.metric("pipeline.memory_hits", memoryHits, "count");
    report.metric("pipeline.disk_hits", diskHits, "count");
    report.metric("pipeline.disk_hit_ratio",
                  share(diskHits, memoryHits + diskHits), "ratio");
    report.metric("pipeline.disk_writes",
                  delta(countersBefore.diskWrites, countersAfter.diskWrites),
                  "count");
    report.metric("serve.fast_path_hits",
                  delta(countersBefore.fastPathHits,
                        countersAfter.fastPathHits),
                  "count");
    report.metric("serve.rejected_overload",
                  delta(countersBefore.rejected, countersAfter.rejected),
                  "count");
    report.metric("serve.errors",
                  delta(countersBefore.errors, countersAfter.errors),
                  "count");

    // Replay of the warm fast path, untraced and traced interleaved.
    ReplayTimes replay = replayFastPath(
        *st, (1.0 - openShare - closedShare) * config.seconds, spans,
        report);
    auto medianOf = [&](const std::string &span, std::size_t machine) {
        std::vector<double> durations = spans.durationsUs(span);
        std::vector<double> picked;
        // Replay spans cycle through the warm set in order.
        std::size_t k = 0;
        for (double d : durations) {
            if (machine == SIZE_MAX ||
                st->warm[k % st->warm.size()].machine == machine)
                picked.push_back(d);
            ++k;
        }
        return median(picked);
    };
    for (std::size_t m = 0; m < st->machines.size(); ++m) {
        const std::string &name = st->machines[m].name;
        report.metric("serve.decode_us." + name,
                      medianOf("serve.decode", m), "us");
        report.metric("machine.decode_us." + name,
                      medianOf("machine.decode", m), "us");
        report.metric("pipeline.job_key_us." + name,
                      medianOf("pipeline.job_key", m), "us");
    }
    report.metric("ir.decode_us", medianOf("ir.decode", SIZE_MAX), "us");
    report.metric("serve.job_build_us", medianOf("serve.job_build", SIZE_MAX),
                  "us");
    report.metric("pipeline.cache_probe_us",
                  medianOf("pipeline.cache_probe", SIZE_MAX), "us");
    report.metric("serve.reply_encode_us",
                  medianOf("serve.reply_encode", SIZE_MAX), "us");
    auto layers = spans.totalsUnder("serve.replay");
    double replayUs = layers["serve.replay"].totalUs;
    for (const char *span :
         {"serve.decode", "machine.decode", "ir.decode", "serve.job_build",
          "pipeline.job_key", "pipeline.cache_probe",
          "serve.reply_encode"}) {
        report.metric(std::string(span) + "_share",
                      share(layers[span].selfUs, replayUs), "ratio");
    }
    report.metric("serve.replay_harness_share",
                  share(layers["serve.replay"].selfUs, replayUs), "ratio");
    double untraced = median(replay.untracedUs);
    report.metric("trace.overhead_pct",
                  untraced > 0
                      ? 100.0 * (median(replay.tracedUs) / untraced - 1.0)
                      : 0.0,
                  "%");

    for (const std::string &problem : spans.verify())
        report.checkFailed("spans: " + problem);
    if (!config.traceOut.empty() && !spans.write(config.traceOut))
        report.checkFailed("cannot write spans to " + config.traceOut);
    std::cout << "  replay: " << replay.tracedUs.size()
              << " traced and " << replay.untracedUs.size()
              << " untraced fast-path iterations; serve.decode includes "
                 "the machine and kernel decode timed separately\n";
    return finish(config, report);
}

} // namespace csbench
