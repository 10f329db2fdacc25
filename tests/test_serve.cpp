/**
 * @file
 * cs_serve end-to-end suite, run against an in-process ScheduleServer
 * on a per-test Unix-domain socket: request/response round trips,
 * byte-equivalence of served listings against in-process scheduling,
 * many concurrent clients (the TSan build pins the accept/dispatch/
 * respond paths), admission-control rejection, the already-expired
 * deadline fast path, deadline preemption of a long job, hostile
 * frames, and graceful drain/restart.
 *
 * The ServeTcp tests mirror the hostile/overload/deadline/drain
 * coverage over the TCP listener (plus a version-mismatch frame), the
 * flock test runs two daemons against one shared cache directory, the
 * fast-path test pins byte-identity of reader-thread warm hits against
 * pipeline-dispatched responses, and ServeSoak (perf label, not tier1)
 * is a short open-loop soak with connection + cache churn and deadline
 * pressure that ends by checking fds and mappings came back once the
 * daemon is gone — CS_SOAK_MS stretches it to a real soak.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/export.hpp"
#include "core/list_scheduler.hpp"
#include "kernels/kernels.hpp"
#include "machine/builders.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/logging.hpp"
#include "support/telemetry.hpp"

namespace cs {
namespace {

/** Short unique socket path (sun_path is ~108 bytes; TempDir can be
 *  long, so sockets live in /tmp). */
std::string
testSocketPath(const char *tag)
{
    return "/tmp/cs_test_" + std::to_string(::getpid()) + "_" + tag +
           ".sock";
}

/** A one-job set: @p kernelName on the central machine, block mode. */
serve::JobSet
oneJobSet(const std::string &kernelName, int maxDelay = 2048)
{
    serve::JobSet set;
    set.machines.push_back(makeCentral());
    set.kernels.push_back(kernelByName(kernelName).build());
    serve::JobDescription job;
    job.label = kernelName;
    job.pipelined = false;
    job.options.maxDelay = maxDelay;
    set.jobs.push_back(std::move(job));
    return set;
}

/** The listing the server must reproduce byte for byte. */
std::string
localListing(const serve::JobSet &set)
{
    Kernel kernel = set.kernels[0];
    ScheduleResult result = scheduleBlock(
        kernel, BlockId(0), set.machines[0], set.jobs[0].options);
    CS_ASSERT(result.success, "local schedule failed");
    return exportListing(result.kernel, set.machines[0],
                         result.schedule);
}

serve::ServerConfig
baseConfig(const std::string &socketPath)
{
    serve::ServerConfig config;
    config.socketPath = socketPath;
    config.workerThreads = 2;
    config.cacheCapacity = 256;
    return config;
}

/** TCP-only config on an ephemeral loopback port. */
serve::ServerConfig
tcpConfig()
{
    serve::ServerConfig config;
    config.listenTcp = "127.0.0.1:0";
    config.workerThreads = 2;
    config.cacheCapacity = 256;
    return config;
}

std::string
tcpAddress(const serve::ScheduleServer &server)
{
    return "127.0.0.1:" + std::to_string(server.boundTcpPort());
}

/** Raw loopback TCP connect (for hostile-frame tests). */
int
rawConnectTcp(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = inet_addr("127.0.0.1");
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    return fd;
}

/** Fresh empty cache directory under the test temp root. */
std::string
freshCacheDir(const std::string &name)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

TEST(Serve, PingStatsAndScheduleRoundTrip)
{
    setVerboseLogging(false);
    serve::ServerConfig config =
        baseConfig(testSocketPath("roundtrip"));
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());

    serve::ScheduleClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, &error)) << error;
    EXPECT_TRUE(client.ping(&error)) << error;

    serve::JobSet set = oneJobSet("DCT");
    serve::Response response;
    ASSERT_TRUE(client.schedule(set, 0, &response, &error)) << error;
    ASSERT_EQ(response.status, serve::ResponseStatus::Ok)
        << response.message;
    EXPECT_TRUE(response.success);
    EXPECT_FALSE(response.cacheHit);
    EXPECT_TRUE(response.verifierErrors.empty());
    EXPECT_EQ(response.listing, localListing(set));

    // The identical request is served from the cache, byte-identical.
    serve::Response second;
    ASSERT_TRUE(client.schedule(set, 0, &second, &error)) << error;
    ASSERT_EQ(second.status, serve::ResponseStatus::Ok);
    EXPECT_TRUE(second.cacheHit);
    EXPECT_EQ(second.listing, response.listing);

    std::string statsJson;
    ASSERT_TRUE(client.stats(&statsJson, &error)) << error;
    EXPECT_NE(statsJson.find("\"serve\""), std::string::npos);
    EXPECT_NE(statsJson.find("\"pipeline\""), std::string::npos);
    EXPECT_NE(statsJson.find("\"cache\""), std::string::npos);
    EXPECT_EQ(server.metrics().counters().get("serve.ok"), 2u);

    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(Serve, ConcurrentClientsGetByteIdenticalListings)
{
    setVerboseLogging(false);
    serve::ServerConfig config =
        baseConfig(testSocketPath("concurrent"));
    config.maxInFlight = 64;
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());

    // Four distinct jobs; every thread requests each of them, so the
    // server multiplexes 16 connections x 4 in-flight requests over
    // scheduling work and cache hits at once.
    const char *names[] = {"DCT", "FFT-U4", "FIR-INT",
                           "Triangle Transform"};
    std::vector<serve::JobSet> sets;
    std::vector<std::string> expected;
    for (const char *name : names) {
        sets.push_back(oneJobSet(name));
        expected.push_back(localListing(sets.back()));
    }

    constexpr int kThreads = 16;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            serve::ScheduleClient client;
            std::string error;
            if (!client.connect(server.socketPath(), &error)) {
                ++failures;
                return;
            }
            for (std::size_t j = 0; j < sets.size(); ++j) {
                std::size_t job = (j + static_cast<std::size_t>(t)) %
                                  sets.size();
                serve::Response response;
                if (!client.schedule(sets[job], 0, &response,
                                     &error) ||
                    response.status != serve::ResponseStatus::Ok ||
                    response.listing != expected[job])
                    ++failures;
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(server.metrics().counters().get("serve.ok"),
              static_cast<std::uint64_t>(kThreads) * sets.size());
    EXPECT_EQ(server.metrics().counters().get("serve.rejected_overload"),
              0u);
    server.stop();
}

TEST(Serve, OverloadRejectedWhenAdmissionFull)
{
    setVerboseLogging(false);
    serve::ServerConfig config =
        baseConfig(testSocketPath("overload"));
    config.maxInFlight = 0; // every Schedule request is over the bound
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());

    serve::ScheduleClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, &error)) << error;
    serve::JobSet set = oneJobSet("DCT");
    serve::Response response;
    ASSERT_TRUE(client.schedule(set, 0, &response, &error)) << error;
    EXPECT_EQ(response.status, serve::ResponseStatus::RejectedOverload);
    EXPECT_TRUE(response.listing.empty());
    // Rejection is backpressure, not a dead server: pings still work.
    EXPECT_TRUE(client.ping(&error)) << error;
    EXPECT_GE(server.metrics().counters().get("serve.rejected_overload"),
              1u);
    server.stop();
}

TEST(Serve, ExpiredDeadlineAnsweredWithoutScheduling)
{
    setVerboseLogging(false);
    serve::ServerConfig config =
        baseConfig(testSocketPath("deadline"));
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());

    serve::ScheduleClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, &error)) << error;
    serve::JobSet set = oneJobSet("DCT");
    serve::Response response;
    ASSERT_TRUE(client.schedule(set, -1, &response, &error)) << error;
    EXPECT_EQ(response.status, serve::ResponseStatus::DeadlineExceeded);
    EXPECT_TRUE(response.listing.empty());
    // The fast path answers before any scheduling work happens.
    EXPECT_EQ(server.pipeline().statsSnapshot().get("ops_scheduled"),
              0u);
    EXPECT_GE(server.metrics().counters().get("serve.deadline_expired"),
              1u);
    server.stop();
}

TEST(Serve, DeadlinePreemptsLongJob)
{
    setVerboseLogging(false);
    serve::ServerConfig config =
        baseConfig(testSocketPath("preempt"));
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());

    // Sort pipelined on the distributed machine takes seconds; a 1 ms
    // budget must preempt it at a scheduler checkpoint long before it
    // completes.
    serve::JobSet set;
    set.machines.push_back(makeDistributed());
    set.kernels.push_back(kernelByName("Sort").build());
    serve::JobDescription job;
    job.label = "Sort";
    job.pipelined = true;
    set.jobs.push_back(std::move(job));

    serve::ScheduleClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, &error)) << error;
    serve::Response response;
    ASSERT_TRUE(client.schedule(set, 1, &response, &error)) << error;
    EXPECT_EQ(response.status, serve::ResponseStatus::DeadlineExceeded);
    EXPECT_GE(
        server.metrics().counters().get("serve.deadline_preempted"),
        1u);

    // A cancelled result is never cached: re-running with no deadline
    // must schedule anew (and is free to succeed or exhaust slack; it
    // must not be a replayed cancellation). Use a cheap job instead of
    // re-paying Sort: the cache must simply not contain the key.
    EXPECT_EQ(server.pipeline().cache().stats().entries, 0u);
    server.stop();
}

TEST(Serve, HostileFramesDoNotKillTheServer)
{
    setVerboseLogging(false);
    serve::ServerConfig config = baseConfig(testSocketPath("hostile"));
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());

    auto rawConnect = [&]() {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, config.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        EXPECT_EQ(::connect(fd,
                            reinterpret_cast<sockaddr *>(&addr),
                            sizeof addr),
                  0);
        return fd;
    };

    // A well-framed garbage payload: the server answers BadRequest (or
    // drops the connection) but keeps serving.
    {
        int fd = rawConnect();
        std::vector<std::uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef,
                                             0x00, 0x01, 0x02};
        ASSERT_TRUE(serve::writeFrame(fd, garbage));
        std::vector<std::uint8_t> reply;
        (void)serve::readFrame(fd, &reply);
        ::close(fd);
    }

    // A hostile length prefix (4 GiB): the server must refuse to
    // allocate and close the connection.
    {
        int fd = rawConnect();
        const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
        EXPECT_EQ(::write(fd, huge, sizeof huge), 4);
        std::vector<std::uint8_t> reply;
        EXPECT_FALSE(serve::readFrame(fd, &reply));
        ::close(fd);
    }

    // Truncated frame then hangup: reader sees a short read, cleans up.
    {
        int fd = rawConnect();
        const std::uint8_t shortFrame[6] = {0x40, 0x00, 0x00, 0x00,
                                            0x01, 0x02};
        EXPECT_EQ(::write(fd, shortFrame, sizeof shortFrame), 6);
        ::close(fd);
    }

    serve::ScheduleClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, &error)) << error;
    EXPECT_TRUE(client.ping(&error)) << error;
    serve::JobSet set = oneJobSet("DCT");
    serve::Response response;
    ASSERT_TRUE(client.schedule(set, 0, &response, &error)) << error;
    EXPECT_EQ(response.status, serve::ResponseStatus::Ok);
    server.stop();
}

TEST(Serve, GracefulDrainCompletesInFlightWork)
{
    setVerboseLogging(false);
    serve::ServerConfig config = baseConfig(testSocketPath("drain"));
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());

    serve::JobSet set = oneJobSet("FFT-U4");
    std::string expected = localListing(set);
    serve::Response response;
    std::string error;
    bool ok = false;
    std::thread requester([&] {
        serve::ScheduleClient client;
        if (client.connect(server.socketPath(), &error))
            ok = client.schedule(set, 0, &response, &error);
    });
    // Begin draining only once the server has admitted the request,
    // so stop() really does race a job in flight: it must wait for
    // the job to finish and its response to be written before tearing
    // the connection down.
    auto waitStart = std::chrono::steady_clock::now();
    while (server.metrics().counters().get("serve.schedule_requests") <
               1 &&
           std::chrono::steady_clock::now() - waitStart <
               std::chrono::seconds(10))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.stop();
    requester.join();

    ASSERT_TRUE(ok) << error;
    if (response.status == serve::ResponseStatus::Ok) {
        // The common case: the job was admitted before the drain began
        // and stop() completed it.
        EXPECT_EQ(response.listing, expected);
    } else {
        // Rare on a loaded single-core box: the reader thread was
        // preempted between counting the request and admitting it, so
        // the drain won the race and bounced it. Still a clean drain.
        EXPECT_EQ(response.status,
                  serve::ResponseStatus::ShuttingDown);
    }
    EXPECT_FALSE(server.running());

    // The socket file is unlinked; new connections fail cleanly.
    serve::ScheduleClient late;
    EXPECT_FALSE(late.connect(config.socketPath, &error));
}

TEST(Serve, RestartOnSamePathAfterStop)
{
    setVerboseLogging(false);
    std::string path = testSocketPath("restart");
    {
        serve::ScheduleServer server(baseConfig(path));
        ASSERT_TRUE(server.start());
        server.stop();
    }
    serve::ScheduleServer second(baseConfig(path));
    ASSERT_TRUE(second.start());
    serve::ScheduleClient client;
    std::string error;
    ASSERT_TRUE(client.connect(path, &error)) << error;
    EXPECT_TRUE(client.ping(&error)) << error;
    second.stop();
}

/** Lines of /proc/self/maps. An exited thread that nobody joined
 *  keeps its stack (and guard page) mapped until the join, so this is
 *  where a leaked connection thread shows; /proc/self/task does not
 *  see it, because the kernel reaps an exited thread at once. */
std::size_t
mappingCount()
{
    std::ifstream maps("/proc/self/maps");
    std::size_t lines = 0;
    for (std::string line; std::getline(maps, line);)
        ++lines;
    return lines;
}

/** Open file descriptors of this process (entries of /proc/self/fd,
 *  the one the iteration itself holds included). */
std::size_t
fdCount()
{
    namespace fs = std::filesystem;
    return static_cast<std::size_t>(std::distance(
        fs::directory_iterator("/proc/self/fd"), fs::directory_iterator{}));
}

TEST(Serve, ConnectionChurnReapsFinishedThreads)
{
    setVerboseLogging(false);
    serve::ServerConfig config = baseConfig(testSocketPath("churn"));
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());

    // One client per request, the pattern that used to leave one
    // exited, unjoined thread behind per connection.
    auto pingOnce = [&config] {
        serve::ScheduleClient client;
        std::string error;
        ASSERT_TRUE(client.connect(config.socketPath, &error)) << error;
        ASSERT_TRUE(client.ping(&error)) << error;
    };
    // Warm up first, so the baseline already holds the stacks and
    // malloc arenas that connection threads reuse.
    for (int i = 0; i < 8; ++i)
        pingOnce();
    const std::size_t before = mappingCount();
    constexpr int kConnections = 200;
    for (int i = 0; i < kConnections; ++i)
        pingOnce();
    const std::size_t after = mappingCount();
    // Unreaped, every connection would leave its stack and guard page
    // mapped: two mappings each. Reaped on accept, only the few that
    // finished after the last accept are still held, though a
    // sanitizer runtime keeps some per-thread mappings of its own
    // (under TSan about one per four connections).
    EXPECT_LT(after, before + kConnections)
        << "mappings grew from " << before << " to " << after << " over "
        << kConnections << " connections";
    EXPECT_EQ(server.metrics().counters().get("serve.pings"),
              8u + kConnections);
    server.stop();
}

// ---------------------------------------------------------------------
// TCP transport: the same framed protocol over a loopback listener.
// ---------------------------------------------------------------------

TEST(ServeTcp, RoundTripMatchesUdsByteForByte)
{
    setVerboseLogging(false);
    // Both listeners on one daemon: a response served over TCP must be
    // byte-identical to the same request served over UDS (and to the
    // in-process listing).
    serve::ServerConfig config = baseConfig(testSocketPath("tcpboth"));
    config.listenTcp = "127.0.0.1:0";
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());
    ASSERT_GT(server.boundTcpPort(), 0);

    serve::JobSet set = oneJobSet("DCT");
    std::string expected = localListing(set);
    std::string error;

    serve::ScheduleClient uds;
    ASSERT_TRUE(uds.connect(config.socketPath, &error)) << error;
    serve::Response cold;
    ASSERT_TRUE(uds.schedule(set, 0, &cold, &error)) << error;
    ASSERT_EQ(cold.status, serve::ResponseStatus::Ok) << cold.message;
    EXPECT_EQ(cold.listing, expected);

    serve::ScheduleClient tcp;
    ASSERT_TRUE(tcp.connectTcp(tcpAddress(server), &error)) << error;
    EXPECT_TRUE(tcp.ping(&error)) << error;
    serve::Response warm;
    ASSERT_TRUE(tcp.schedule(set, 0, &warm, &error)) << error;
    ASSERT_EQ(warm.status, serve::ResponseStatus::Ok) << warm.message;
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.listing, cold.listing);
    EXPECT_EQ(warm.ii, cold.ii);
    EXPECT_EQ(warm.length, cold.length);
    EXPECT_EQ(warm.copiesInserted, cold.copiesInserted);

    std::string statsJson;
    ASSERT_TRUE(tcp.stats(&statsJson, &error)) << error;
    EXPECT_NE(statsJson.find("\"serve\""), std::string::npos);
    server.stop();
}

TEST(ServeTcp, HostileFramesAndVersionMismatch)
{
    setVerboseLogging(false);
    serve::ServerConfig config = tcpConfig();
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());
    int port = server.boundTcpPort();
    ASSERT_GT(port, 0);

    // Well-framed garbage: BadRequest (or a dropped connection), but
    // the server keeps serving.
    {
        int fd = rawConnectTcp(port);
        std::vector<std::uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef,
                                             0x00, 0x01, 0x02};
        ASSERT_TRUE(serve::writeFrame(fd, garbage));
        std::vector<std::uint8_t> reply;
        (void)serve::readFrame(fd, &reply);
        ::close(fd);
    }

    // Hostile 4 GiB length prefix: refused before allocation.
    {
        int fd = rawConnectTcp(port);
        const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
        EXPECT_EQ(::write(fd, huge, sizeof huge), 4);
        std::vector<std::uint8_t> reply;
        EXPECT_FALSE(serve::readFrame(fd, &reply));
        ::close(fd);
    }

    // Truncated frame then hangup: the reader cleans up.
    {
        int fd = rawConnectTcp(port);
        const std::uint8_t shortFrame[6] = {0x40, 0x00, 0x00, 0x00,
                                            0x01, 0x02};
        EXPECT_EQ(::write(fd, shortFrame, sizeof shortFrame), 6);
        ::close(fd);
    }

    // A future protocol version: a well-formed ping frame from one
    // version past the ceiling must come back BadRequest naming the
    // version, not crash or hang.
    {
        int fd = rawConnectTcp(port);
        std::vector<std::uint8_t> payload;
        wire::ByteWriter writer(payload);
        writer.u8(serve::kProtocolVersion + 1);
        writer.u8(static_cast<std::uint8_t>(serve::RequestType::Ping));
        writer.u64(77);
        writer.i64(0);
        ASSERT_TRUE(serve::writeFrame(fd, payload));
        std::vector<std::uint8_t> reply;
        ASSERT_TRUE(serve::readFrame(fd, &reply));
        wire::ByteReader reader(
            std::span<const std::uint8_t>(reply.data(), reply.size()));
        serve::Response response;
        ASSERT_TRUE(serve::decodeResponse(reader, &response));
        EXPECT_EQ(response.status, serve::ResponseStatus::BadRequest);
        EXPECT_NE(response.message.find("unsupported protocol version"),
                  std::string::npos)
            << response.message;
        ::close(fd);
    }
    EXPECT_GE(server.metrics().counters().get("serve.bad_requests"), 2u);

    // The server is still healthy.
    serve::ScheduleClient client;
    std::string error;
    ASSERT_TRUE(client.connectTcp(tcpAddress(server), &error)) << error;
    serve::JobSet set = oneJobSet("DCT");
    serve::Response response;
    ASSERT_TRUE(client.schedule(set, 0, &response, &error)) << error;
    EXPECT_EQ(response.status, serve::ResponseStatus::Ok);
    EXPECT_EQ(response.listing, localListing(set));
    server.stop();
}

TEST(ServeTcp, OverloadRejectedWhenAdmissionFull)
{
    setVerboseLogging(false);
    serve::ServerConfig config = tcpConfig();
    config.maxInFlight = 0;
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());

    serve::ScheduleClient client;
    std::string error;
    ASSERT_TRUE(client.connectTcp(tcpAddress(server), &error)) << error;
    serve::JobSet set = oneJobSet("DCT");
    serve::Response response;
    ASSERT_TRUE(client.schedule(set, 0, &response, &error)) << error;
    EXPECT_EQ(response.status, serve::ResponseStatus::RejectedOverload);
    EXPECT_TRUE(client.ping(&error)) << error;
    server.stop();
}

TEST(ServeTcp, ExpiredDeadlineAnsweredWithoutScheduling)
{
    setVerboseLogging(false);
    serve::ServerConfig config = tcpConfig();
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());

    serve::ScheduleClient client;
    std::string error;
    ASSERT_TRUE(client.connectTcp(tcpAddress(server), &error)) << error;
    serve::JobSet set = oneJobSet("DCT");
    serve::Response response;
    ASSERT_TRUE(client.schedule(set, -1, &response, &error)) << error;
    EXPECT_EQ(response.status, serve::ResponseStatus::DeadlineExceeded);
    // The expired-deadline path answers before the fast-path cache
    // probe and before any scheduling work.
    EXPECT_EQ(server.pipeline().statsSnapshot().get("ops_scheduled"),
              0u);
    EXPECT_EQ(server.metrics().counters().get("serve.fast_path_hits") +
                  server.metrics().counters().get(
                      "serve.fast_path_misses"),
              0u);
    server.stop();
}

TEST(ServeTcp, GracefulDrainCompletesInFlightWork)
{
    setVerboseLogging(false);
    serve::ServerConfig config = tcpConfig();
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());
    std::string address = tcpAddress(server);

    serve::JobSet set = oneJobSet("FFT-U4");
    std::string expected = localListing(set);
    serve::Response response;
    std::string error;
    bool ok = false;
    std::thread requester([&] {
        serve::ScheduleClient client;
        if (client.connectTcp(address, &error))
            ok = client.schedule(set, 0, &response, &error);
    });
    auto waitStart = std::chrono::steady_clock::now();
    while (server.metrics().counters().get("serve.schedule_requests") <
               1 &&
           std::chrono::steady_clock::now() - waitStart <
               std::chrono::seconds(10))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.stop();
    requester.join();

    ASSERT_TRUE(ok) << error;
    if (response.status == serve::ResponseStatus::Ok)
        EXPECT_EQ(response.listing, expected);
    else
        EXPECT_EQ(response.status,
                  serve::ResponseStatus::ShuttingDown);
    EXPECT_FALSE(server.running());

    // The port is closed; new connections fail cleanly.
    serve::ScheduleClient late;
    EXPECT_FALSE(late.connectTcp(address, &error));
}

// ---------------------------------------------------------------------
// Reader-thread fast path and shared-cache-directory ownership.
// ---------------------------------------------------------------------

TEST(Serve, FastPathMatchesDispatchedWarmResponses)
{
    setVerboseLogging(false);
    serve::JobSet set = oneJobSet("FIR-INT");
    std::string error;

    // Reference: what the dispatched path replies for a warm hit — an
    // in-process pipeline's cached result through summarizeResult.
    serve::Response dispatched;
    {
        PipelineConfig pipelineConfig;
        pipelineConfig.numThreads = 2;
        SchedulingPipeline pipeline(pipelineConfig);
        std::vector<ScheduleJob> jobs = serve::jobSetToScheduleJobs(set);
        ASSERT_TRUE(pipeline.run(jobs).front().success);
        JobResult warm = pipeline.run(jobs).front();
        ASSERT_TRUE(warm.cacheHit);
        serve::summarizeResult(warm, &dispatched);
    }

    // Fast-path daemon: the warm hit is answered on the reader thread
    // and must be byte-identical in every result field.
    serve::ServerConfig config = baseConfig(testSocketPath("fp_on"));
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());
    serve::ScheduleClient client;
    ASSERT_TRUE(client.connect(config.socketPath, &error)) << error;
    serve::Response cold;
    ASSERT_TRUE(client.schedule(set, 0, &cold, &error)) << error;
    ASSERT_EQ(cold.status, serve::ResponseStatus::Ok);
    serve::Response fast;
    ASSERT_TRUE(client.schedule(set, 0, &fast, &error)) << error;
    ASSERT_EQ(fast.status, serve::ResponseStatus::Ok);
    EXPECT_EQ(server.metrics().counters().get("serve.fast_path_hits"),
              1u);

    EXPECT_TRUE(fast.cacheHit);
    EXPECT_EQ(fast.success, dispatched.success);
    EXPECT_EQ(fast.cancelled, dispatched.cancelled);
    EXPECT_EQ(fast.ii, dispatched.ii);
    EXPECT_EQ(fast.length, dispatched.length);
    EXPECT_EQ(fast.resMii, dispatched.resMii);
    EXPECT_EQ(fast.recMii, dispatched.recMii);
    EXPECT_EQ(fast.copiesInserted, dispatched.copiesInserted);
    EXPECT_EQ(fast.listing, dispatched.listing);
    EXPECT_EQ(fast.verifierErrors, dispatched.verifierErrors);
    EXPECT_EQ(fast.listing, localListing(set));
    server.stop();
}

TEST(Serve, TwoDaemonsShareCacheDirectoryViaFlock)
{
    setVerboseLogging(false);
    std::string dir = freshCacheDir("cs_serve_flock");
    serve::JobSet set = oneJobSet("DCT");
    std::string expected = localListing(set);
    std::string error;

    {
        serve::ServerConfig configA =
            baseConfig(testSocketPath("flock_a"));
        configA.cacheDirectory = dir;
        configA.cacheShards = 2;
        serve::ScheduleServer a(configA);
        ASSERT_TRUE(a.start());

        serve::ServerConfig configB =
            baseConfig(testSocketPath("flock_b"));
        configB.cacheDirectory = dir;
        configB.cacheShards = 2;
        serve::ScheduleServer b(configB);
        ASSERT_TRUE(b.start());

        // A opened first and holds the flock on every shard; B opened
        // the same files read-only.
        EXPECT_EQ(a.pipeline().cache().diskStats().ownedShards, 2u);
        EXPECT_EQ(b.pipeline().cache().diskStats().ownedShards, 0u);

        serve::ScheduleClient clientA;
        ASSERT_TRUE(clientA.connect(configA.socketPath, &error))
            << error;
        serve::Response fromA;
        ASSERT_TRUE(clientA.schedule(set, 0, &fromA, &error)) << error;
        ASSERT_EQ(fromA.status, serve::ResponseStatus::Ok);
        EXPECT_EQ(fromA.listing, expected);
        EXPECT_GE(a.pipeline().cache().diskStats().writes, 1u);

        // B schedules the same job independently: correct bytes, but
        // its disk insert is dropped instead of corrupting A's shard.
        serve::ScheduleClient clientB;
        ASSERT_TRUE(clientB.connect(configB.socketPath, &error))
            << error;
        serve::Response fromB;
        ASSERT_TRUE(clientB.schedule(set, 0, &fromB, &error)) << error;
        ASSERT_EQ(fromB.status, serve::ResponseStatus::Ok);
        EXPECT_EQ(fromB.listing, expected);
        auto statsB = b.pipeline().cache().diskStats();
        EXPECT_EQ(statsB.writes, 0u);
        EXPECT_GE(statsB.droppedReadOnly, 1u);

        b.stop();
        a.stop();
    } // destruction releases the flocks and writes A's index footers

    // A successor daemon re-acquires ownership and restarts warm from
    // the footer, serving A's result byte-identically.
    serve::ServerConfig configC = baseConfig(testSocketPath("flock_c"));
    configC.cacheDirectory = dir;
    configC.cacheShards = 2;
    serve::ScheduleServer c(configC);
    ASSERT_TRUE(c.start());
    auto statsC = c.pipeline().cache().diskStats();
    EXPECT_EQ(statsC.ownedShards, 2u);
    EXPECT_GE(statsC.footerLoads, 1u);
    EXPECT_GE(statsC.loadedEntries, 1u);
    EXPECT_EQ(statsC.scanLoads, 0u);

    serve::ScheduleClient clientC;
    ASSERT_TRUE(clientC.connect(configC.socketPath, &error)) << error;
    serve::Response fromC;
    ASSERT_TRUE(clientC.schedule(set, 0, &fromC, &error)) << error;
    ASSERT_EQ(fromC.status, serve::ResponseStatus::Ok);
    EXPECT_TRUE(fromC.cacheHit);
    EXPECT_EQ(fromC.listing, expected);
    c.stop();
}

TEST(Serve, OwnershipFailoverPromotesSurvivorDaemon)
{
    setVerboseLogging(false);
    std::string dir = freshCacheDir("cs_serve_failover");
    serve::JobSet firstSet = oneJobSet("DCT");
    serve::JobSet secondSet = oneJobSet("FFT");
    std::string expectedFirst = localListing(firstSet);
    std::string expectedSecond = localListing(secondSet);
    std::string error;

    // Daemon A wins the single shard; B opens it read-only but keeps
    // retrying ownership at a test-fast interval.
    serve::ServerConfig configA =
        baseConfig(testSocketPath("failover_a"));
    configA.cacheDirectory = dir;
    configA.cacheShards = 1;
    std::optional<serve::ScheduleServer> a;
    a.emplace(configA);
    ASSERT_TRUE(a->start());

    serve::ServerConfig configB =
        baseConfig(testSocketPath("failover_b"));
    configB.cacheDirectory = dir;
    configB.cacheShards = 1;
    configB.ownershipRetryMs = 10;
    serve::ScheduleServer b(configB);
    ASSERT_TRUE(b.start());
    EXPECT_EQ(a->pipeline().cache().diskStats().ownedShards, 1u);
    EXPECT_EQ(b.pipeline().cache().diskStats().ownedShards, 0u);

    // A persists one result, then dies (drain + destruction releases
    // its flock and writes the shard footer).
    serve::ScheduleClient clientA;
    ASSERT_TRUE(clientA.connect(configA.socketPath, &error)) << error;
    serve::Response fromA;
    ASSERT_TRUE(clientA.schedule(firstSet, 0, &fromA, &error)) << error;
    ASSERT_EQ(fromA.status, serve::ResponseStatus::Ok);
    ASSERT_GE(a->pipeline().cache().diskStats().writes, 1u);
    a->stop();
    a.reset();

    // B's next cache traffic crosses the retry interval, wins the
    // orphaned flock, and re-indexes the shard — A's entry included.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    serve::ScheduleClient clientB;
    ASSERT_TRUE(clientB.connect(configB.socketPath, &error)) << error;
    serve::Response firstFromB;
    ASSERT_TRUE(clientB.schedule(firstSet, 0, &firstFromB, &error))
        << error;
    ASSERT_EQ(firstFromB.status, serve::ResponseStatus::Ok);
    EXPECT_EQ(firstFromB.listing, expectedFirst);
    auto statsB = b.pipeline().cache().diskStats();
    EXPECT_EQ(statsB.ownershipPromotions, 1u);
    EXPECT_EQ(statsB.ownedShards, 1u);
    EXPECT_GE(statsB.loadedEntries, 1u);

    // The promoted daemon now persists new work where the pre-PR
    // behavior dropped it read-only forever.
    serve::Response secondFromB;
    ASSERT_TRUE(clientB.schedule(secondSet, 0, &secondFromB, &error))
        << error;
    ASSERT_EQ(secondFromB.status, serve::ResponseStatus::Ok);
    EXPECT_EQ(secondFromB.listing, expectedSecond);
    EXPECT_GE(b.pipeline().cache().diskStats().writes, 1u);
    b.stop();
}

// ---------------------------------------------------------------------
// Soak: open-loop load with connection, cache, and deadline churn.
// Runs under the perf ctest label (CS_SLOW_TESTS), not tier1; set
// CS_SOAK_MS to stretch the default few seconds into a real soak.
// ---------------------------------------------------------------------

/** Numeric field from a flat JSON line (-1 when absent). */
std::int64_t
jsonField(const std::string &line, const std::string &key)
{
    std::string needle = "\"" + key + "\":";
    std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return -1;
    return std::atoll(line.c_str() + pos + needle.size());
}

TEST(Serve, ResponsesEchoServerRequestIds)
{
    setVerboseLogging(false);
    serve::ServerConfig config = baseConfig(testSocketPath("reqid"));
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());

    serve::ScheduleClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, &error)) << error;

    // Every request type gets a server-allocated id, echoed in the
    // reply (protocol v2); ids are nonzero and strictly increasing on
    // one connection.
    std::uint64_t last = 0;
    for (int i = 0; i < 3; ++i) {
        serve::Response response;
        serve::JobSet set = oneJobSet("DCT");
        ASSERT_TRUE(client.schedule(set, 0, &response, &error))
            << error;
        ASSERT_EQ(response.status, serve::ResponseStatus::Ok);
        EXPECT_GT(response.serverRequestId, last);
        last = response.serverRequestId;
    }
    serve::Request ping;
    ping.type = serve::RequestType::Ping;
    serve::Response pong;
    ASSERT_TRUE(client.call(std::move(ping), &pong, &error)) << error;
    EXPECT_GT(pong.serverRequestId, last);
    server.stop();
}

TEST(Serve, OldProtocolClientsGetUntailedResponses)
{
    // Backward compatibility: a v1 client's frames still decode, and
    // its replies carry no serverRequestId tail — byte for byte the
    // v1 layout, exactly 8 bytes shorter than the v2 reply to the
    // same request.
    setVerboseLogging(false);
    serve::ServerConfig config = baseConfig(testSocketPath("v1"));
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());

    auto rawPing = [&](std::uint8_t version, std::uint64_t id,
                       std::vector<std::uint8_t> *reply) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, config.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof addr),
                  0);
        serve::Request request;
        request.type = serve::RequestType::Ping;
        request.requestId = id;
        request.protocolVersion = version;
        std::vector<std::uint8_t> payload;
        wire::ByteWriter writer(payload);
        serve::encodeRequest(writer, request);
        ASSERT_TRUE(serve::writeFrame(fd, payload));
        ASSERT_TRUE(serve::readFrame(fd, reply));
        ::close(fd);
    };

    std::vector<std::uint8_t> v1Reply, v2Reply;
    rawPing(1, 42, &v1Reply);
    rawPing(serve::kProtocolVersion, 43, &v2Reply);
    EXPECT_EQ(v1Reply.size() + 8, v2Reply.size());

    serve::Response v1Response;
    {
        wire::ByteReader reader(std::span<const std::uint8_t>(
            v1Reply.data(), v1Reply.size()));
        ASSERT_TRUE(serve::decodeResponse(reader, &v1Response));
    }
    EXPECT_EQ(v1Response.status, serve::ResponseStatus::Ok);
    EXPECT_EQ(v1Response.requestId, 42u);
    EXPECT_EQ(v1Response.serverRequestId, 0u);

    serve::Response v2Response;
    {
        wire::ByteReader reader(std::span<const std::uint8_t>(
            v2Reply.data(), v2Reply.size()));
        ASSERT_TRUE(serve::decodeResponse(reader, &v2Response));
    }
    EXPECT_EQ(v2Response.requestId, 43u);
    EXPECT_GT(v2Response.serverRequestId, 0u);

    // Watch is v2-only: a v1 client asking for it gets BadRequest,
    // not a stream.
    {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, config.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof addr),
                  0);
        serve::Request request;
        request.type = serve::RequestType::Watch;
        request.requestId = 9;
        request.protocolVersion = 1;
        std::vector<std::uint8_t> payload;
        wire::ByteWriter writer(payload);
        serve::encodeRequest(writer, request);
        ASSERT_TRUE(serve::writeFrame(fd, payload));
        std::vector<std::uint8_t> reply;
        ASSERT_TRUE(serve::readFrame(fd, &reply));
        wire::ByteReader reader(std::span<const std::uint8_t>(
            reply.data(), reply.size()));
        serve::Response response;
        ASSERT_TRUE(serve::decodeResponse(reader, &response));
        EXPECT_EQ(response.status, serve::ResponseStatus::BadRequest);
        ::close(fd);
    }
    server.stop();
}

TEST(Serve, WatchStreamsLiveStatsOverUds)
{
    setVerboseLogging(false);
    serve::ServerConfig config = baseConfig(testSocketPath("watch"));
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());

    serve::ScheduleClient worker;
    std::string error;
    ASSERT_TRUE(worker.connect(config.socketPath, &error)) << error;
    serve::JobSet set = oneJobSet("DCT");
    serve::Response response;
    ASSERT_TRUE(worker.schedule(set, 0, &response, &error)) << error;
    ASSERT_TRUE(worker.schedule(set, 0, &response, &error)) << error;

    serve::ScheduleClient watcher;
    ASSERT_TRUE(watcher.connect(config.socketPath, &error)) << error;
    std::vector<std::string> frames;
    ASSERT_TRUE(watcher.watch(
        20,
        [&frames](const std::string &frame) {
            frames.push_back(frame);
            return frames.size() < 3;
        },
        &error))
        << error;
    ASSERT_EQ(frames.size(), 3u);
    std::int64_t lastSeq = -1;
    for (const std::string &frame : frames) {
        EXPECT_EQ(frame.front(), '{');
        EXPECT_EQ(frame.back(), '}');
        EXPECT_EQ(jsonField(frame, "seq"), lastSeq + 1);
        lastSeq = jsonField(frame, "seq");
        EXPECT_EQ(jsonField(frame, "interval_ms"), 20);
        EXPECT_GE(jsonField(frame, "requests_total"), 2);
        EXPECT_GE(jsonField(frame, "p50_us"), 0);
        EXPECT_GT(jsonField(frame, "rss_kb"), 0);
        EXPECT_GE(jsonField(frame, "inflight"), 0);
    }
    // The second schedule was a warm hit, so the stream reports it.
    EXPECT_GE(jsonField(frames.back(), "warm_hits_total"), 1);
    server.stop();
}

TEST(ServeTcp, WatchStreamsOverTcp)
{
    setVerboseLogging(false);
    serve::ServerConfig config = tcpConfig();
    serve::ScheduleServer server(config);
    ASSERT_TRUE(server.start());

    serve::ScheduleClient worker;
    std::string error;
    ASSERT_TRUE(worker.connectTcp(tcpAddress(server), &error))
        << error;
    serve::JobSet set = oneJobSet("DCT");
    serve::Response response;
    ASSERT_TRUE(worker.schedule(set, 0, &response, &error)) << error;

    serve::ScheduleClient watcher;
    ASSERT_TRUE(watcher.connectTcp(tcpAddress(server), &error))
        << error;
    int ticks = 0;
    ASSERT_TRUE(watcher.watch(
        10,
        [&ticks](const std::string &frame) {
            EXPECT_GE(jsonField(frame, "requests_total"), 1);
            return ++ticks < 2;
        },
        &error))
        << error;
    EXPECT_EQ(ticks, 2);

    // A watcher left subscribed when the server stops gets EOF, which
    // the client reports as a clean end of stream.
    serve::ScheduleClient lingering;
    ASSERT_TRUE(lingering.connectTcp(tcpAddress(server), &error))
        << error;
    std::thread stopper([&server] {
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        server.stop();
    });
    int seen = 0;
    EXPECT_TRUE(lingering.watch(
        10,
        [&seen](const std::string &) {
            ++seen;
            return true;
        },
        &error))
        << error;
    EXPECT_GE(seen, 1);
    stopper.join();
}

TEST(ServeSoak, OpenLoopChurnStaysClean)
{
    setVerboseLogging(false);
    long soakMs = 6000;
    if (const char *env = std::getenv("CS_SOAK_MS"))
        if (long v = std::atol(env); v > 0)
            soakMs = v;

    serve::ServerConfig config = baseConfig(testSocketPath("soak"));
    config.listenTcp = "127.0.0.1:0";
    config.cacheDirectory = freshCacheDir("cs_serve_soak");
    config.cacheShards = 4;
    config.maxInFlight = 32;
    const std::size_t fdsAtStart = fdCount();
    const std::size_t mappingsAtStart = mappingCount();
    auto server = std::make_unique<serve::ScheduleServer>(config);
    ASSERT_TRUE(server->start());
    std::string address = tcpAddress(*server);

    // The soak runs with the telemetry sampler on, exactly as a
    // production soak would (cs_serve --telemetry): the JSONL it
    // writes is parsed and asserted on below.
    namespace fs = std::filesystem;
    std::string telemetryPath =
        (fs::path(::testing::TempDir()) / "cs_soak_telemetry.jsonl")
            .string();
    std::uint64_t rssAtStart = readRssKb();
    TelemetrySampler sampler;
    TelemetryConfig telemetryConfig;
    telemetryConfig.path = telemetryPath;
    telemetryConfig.intervalMs = 100;
    ASSERT_TRUE(sampler.start(
        telemetryConfig,
        [&server] { return server->counterSnapshot(); },
        [&server](std::ostream &os) {
            server->writeTelemetryFields(os);
        }));

    // Cheap kernels with a rotating maxDelay: a bounded working set so
    // warm hits dominate, plus a steady trickle of cold inserts.
    const char *names[] = {"DCT", "FIR-INT"};
    std::atomic<long> protocolErrors{0};
    std::atomic<long> connections{0};
    std::atomic<bool> stop{false};
    auto worker = [&](int id) {
        std::uint64_t iter = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            // Connection churn: a fresh client every batch, alternating
            // transports.
            serve::ScheduleClient client;
            std::string error;
            ++connections;
            bool connected =
                (id % 2 == 0)
                    ? client.connect(config.socketPath, &error)
                    : client.connectTcp(address, &error);
            if (!connected) {
                ++protocolErrors;
                break;
            }
            for (int k = 0; k < 8 && !stop.load(); ++k, ++iter) {
                serve::JobSet set = oneJobSet(
                    names[iter % 2],
                    2048 + static_cast<int>((iter * 7 + id) % 16));
                // Deadline pressure: every fourth request arrives
                // already expired.
                std::int64_t deadline = (k % 4 == 3) ? -1 : 0;
                serve::Response response;
                if (!client.schedule(set, deadline, &response,
                                     &error)) {
                    ++protocolErrors;
                    return;
                }
                bool okStatus =
                    response.status == serve::ResponseStatus::Ok ||
                    (deadline < 0 &&
                     response.status ==
                         serve::ResponseStatus::DeadlineExceeded) ||
                    response.status ==
                        serve::ResponseStatus::RejectedOverload;
                if (!okStatus)
                    ++protocolErrors;
            }
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t)
        threads.emplace_back(worker, t);

    // Sample while the load runs: serving and cache counters must be
    // monotone (a regression here means lost or double-counted work).
    std::uint64_t lastRequests = 0, lastWrites = 0, lastHits = 0;
    auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start <
           std::chrono::milliseconds(soakMs)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        std::uint64_t requests = server->metrics().counters().get(
            "serve.schedule_requests");
        auto disk = server->pipeline().cache().diskStats();
        EXPECT_GE(requests, lastRequests);
        EXPECT_GE(disk.writes, lastWrites);
        EXPECT_GE(disk.hits + disk.misses, lastHits);
        lastRequests = requests;
        lastWrites = disk.writes;
        lastHits = disk.hits + disk.misses;
    }
    stop.store(true);
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(protocolErrors.load(), 0);
    EXPECT_GT(lastRequests, 0u);
    EXPECT_EQ(server->metrics().counters().get("serve.bad_requests"),
              0u);
    EXPECT_EQ(server->metrics().counters().get("serve.write_errors"),
              0u);
    auto disk = server->pipeline().cache().diskStats();
    EXPECT_EQ(disk.readErrors, 0u);
    EXPECT_EQ(disk.writeErrors, 0u);
    EXPECT_EQ(disk.droppedReadOnly, 0u);

    // Telemetry assertions: the sampler saw the whole soak. Every
    // line parses, the serving counters are monotone across lines,
    // and the resource story holds — RSS growth and shard-file bytes
    // stay inside documented bounds (256 MiB and 16 MiB: generous
    // multiples of what a clean soak of this length produces, tight
    // enough to catch a leak or unbounded shard growth).
    sampler.stop();
    std::vector<std::string> lines;
    {
        std::ifstream in(telemetryPath);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_GE(lines.size(), 3u);
    std::int64_t lastSeq = -1, lastRequestsSeen = -1;
    for (const std::string &line : lines) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        long depth = 0;
        for (char c : line) {
            if (c == '{')
                ++depth;
            else if (c == '}')
                --depth;
            ASSERT_GE(depth, 0) << line;
        }
        ASSERT_EQ(depth, 0) << line;
        EXPECT_EQ(jsonField(line, "seq"), lastSeq + 1);
        lastSeq = jsonField(line, "seq");
        EXPECT_GE(jsonField(line, "serve.schedule_requests"),
                  lastRequestsSeen);
        lastRequestsSeen = jsonField(line, "serve.schedule_requests");
        EXPECT_GE(jsonField(line, "inflight"), 0);
        EXPECT_GE(jsonField(line, "shard_bytes"), 0);
        EXPECT_GT(jsonField(line, "rss_kb"), 0);
    }
    EXPECT_GT(lastRequestsSeen, 0);
    const std::string &last = lines.back();
    EXPECT_LT(jsonField(last, "rss_kb"),
              static_cast<std::int64_t>(rssAtStart) + 256 * 1024);
    EXPECT_LT(jsonField(last, "shard_bytes"), 16 * 1024 * 1024);
    EXPECT_GT(jsonField(last, "shard_records"), 0);
    // The latency histograms rode along: the all-outcomes summary has
    // every request.
    EXPECT_NE(last.find("\"latency\":{"), std::string::npos);

    // Daemon hygiene: with the server destroyed, fds and mappings are
    // back near where they started. Each connection holds an fd on
    // both ends and a reader thread whose stack and guard page are two
    // mappings, so a leak of either grows with the connection count
    // (hundreds here). What may stay does not: a few fds the runtime
    // opens once; glibc's cache of freed thread stacks (40 MiB, at
    // most five default stacks) plus one malloc arena per thread that
    // ran at the same time, of which the soak has about a dozen
    // (about 35 mappings in all); under AddressSanitizer, its
    // allocator's regions instead (about 90).
    server.reset();
    constexpr std::size_t kFdSlack = 8;
    constexpr std::size_t kMappingSlack = 128;
    ASSERT_GT(connections.load(), static_cast<long>(kMappingSlack))
        << "soak too short for the bounds to tell a leak";
    EXPECT_LE(fdCount(), fdsAtStart + kFdSlack)
        << "fds grew from " << fdsAtStart << " over "
        << connections.load() << " connections";
#ifndef __SANITIZE_THREAD__
    // ThreadSanitizer keeps mappings for every thread it has seen, so
    // under it the count grows with connections whatever the daemon
    // does (the soak is not part of the sanitizer label).
    EXPECT_LE(mappingCount(), mappingsAtStart + kMappingSlack)
        << "mappings grew from " << mappingsAtStart << " over "
        << connections.load() << " connections";
#endif
}

} // namespace
} // namespace cs
