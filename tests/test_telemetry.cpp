/**
 * @file
 * Tests for the time-series telemetry sampler
 * (support/telemetry.hpp): JSONL well-formedness, sequence/time/
 * counter monotonicity, the final-sample-on-stop contract, delta
 * emission, and a sampler-vs-worker stress for the sanitizer builds
 * (Telemetry* is part of CS_SANITIZE_TESTS).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/histogram.hpp"
#include "support/metrics.hpp"
#include "support/stats.hpp"
#include "support/telemetry.hpp"

namespace cs {
namespace {

namespace fs = std::filesystem;

std::string
tempFile(const std::string &name)
{
    fs::path path = fs::path(::testing::TempDir()) / name;
    fs::remove(path);
    return path.string();
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** Minimal numeric field extraction (the files are flat-ish JSON with
 *  numeric leaves; good enough to assert on without a JSON parser). */
std::int64_t
jsonField(const std::string &line, const std::string &key)
{
    std::string needle = "\"" + key + "\":";
    std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return -1;
    return std::atoll(line.c_str() + pos + needle.size());
}

TEST(Telemetry, RssReadsPositive)
{
    // Any live process has resident pages.
    EXPECT_GT(readRssKb(), 0u);
}

TEST(Telemetry, JsonlLinesAreWellFormedAndMonotone)
{
    std::string path = tempFile("telemetry_monotone.jsonl");
    SharedCounterSet counters;
    counters.bump(counter("pipeline.jobs"), 1);

    TelemetrySampler sampler;
    TelemetryConfig config;
    config.path = path;
    config.intervalMs = 10;
    ASSERT_TRUE(sampler.start(
        config, [&counters] { return counters.snapshot(); },
        [](std::ostream &os) { os << ",\"extra\":42"; }));
    EXPECT_TRUE(sampler.running());
    for (int i = 0; i < 5; ++i) {
        counters.bump(counter("pipeline.jobs"), 3);
        std::this_thread::sleep_for(std::chrono::milliseconds(12));
    }
    sampler.stop();
    EXPECT_FALSE(sampler.running());

    std::vector<std::string> lines = readLines(path);
    ASSERT_GE(lines.size(), 2u);
    std::int64_t lastSeq = -1, lastT = -1, lastItems = -1;
    for (const std::string &line : lines) {
        // Well-formed: one complete object per line with balanced
        // braces and the fixed schema fields present.
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
        EXPECT_EQ(depth, 0) << line;
        EXPECT_NE(line.find("\"counters\":{"), std::string::npos);
        EXPECT_NE(line.find("\"deltas\":{"), std::string::npos);
        EXPECT_EQ(jsonField(line, "extra"), 42);

        // Monotone: seq strictly increasing from 0, time and the
        // cumulative counter non-decreasing.
        EXPECT_EQ(jsonField(line, "seq"), lastSeq + 1);
        lastSeq = jsonField(line, "seq");
        EXPECT_GE(jsonField(line, "t_ms"), lastT);
        lastT = jsonField(line, "t_ms");
        EXPECT_GE(jsonField(line, "pipeline.jobs"), lastItems);
        lastItems = jsonField(line, "pipeline.jobs");
        EXPECT_GT(jsonField(line, "rss_kb"), 0);
    }
}

TEST(Telemetry, StopWritesTheFinalState)
{
    // The shutdown contract: the last line reflects counter state at
    // stop() time even when the interval is far longer than the run.
    std::string path = tempFile("telemetry_final.jsonl");
    SharedCounterSet counters;
    TelemetrySampler sampler;
    TelemetryConfig config;
    config.path = path;
    config.intervalMs = 60000; // Never fires on its own.
    ASSERT_TRUE(sampler.start(
        config, [&counters] { return counters.snapshot(); }));
    counters.bump(counter("batch.jobs"), 7);
    sampler.stop();

    std::vector<std::string> lines = readLines(path);
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(jsonField(lines.back(), "batch.jobs"), 7);
    // Stop is idempotent and restart truncates.
    sampler.stop();
    ASSERT_TRUE(sampler.start(
        config, [&counters] { return counters.snapshot(); }));
    sampler.stop();
    EXPECT_EQ(readLines(path).size(), 1u);
}

TEST(Telemetry, DeltasCarryOnlyChangedCounters)
{
    std::string path = tempFile("telemetry_deltas.jsonl");
    SharedCounterSet counters;
    counters.bump(counter("cache.hits"), 5);
    counters.bump(counter("cache.misses"), 1);

    TelemetrySampler sampler;
    TelemetryConfig config;
    config.path = path;
    config.intervalMs = 20;
    ASSERT_TRUE(sampler.start(
        config, [&counters] { return counters.snapshot(); }));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    counters.bump(counter("cache.misses"), 4);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    sampler.stop();

    std::vector<std::string> lines = readLines(path);
    ASSERT_GE(lines.size(), 2u);
    // First line: everything is new, so both counters are deltas.
    std::size_t firstDeltas = lines.front().find("\"deltas\":{");
    ASSERT_NE(firstDeltas, std::string::npos);
    std::string first = lines.front().substr(firstDeltas);
    EXPECT_NE(first.find("\"cache.hits\":5"), std::string::npos);
    // A later line where only "cache.misses" changed must not repeat
    // "cache.hits" in its deltas object (it stays in the cumulative
    // counters object).
    bool sawMovingOnlyDelta = false;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        std::size_t at = lines[i].find("\"deltas\":{");
        ASSERT_NE(at, std::string::npos);
        std::string deltas = lines[i].substr(at);
        if (deltas.find("\"cache.misses\":4") != std::string::npos) {
            EXPECT_EQ(deltas.find("\"cache.hits\""), std::string::npos);
            sawMovingOnlyDelta = true;
        }
        EXPECT_NE(lines[i].find("\"cache.hits\":5"), std::string::npos);
    }
    EXPECT_TRUE(sawMovingOnlyDelta);
}

TEST(Telemetry, StartFailsOnUnwritablePath)
{
    TelemetrySampler sampler;
    TelemetryConfig config;
    config.path = "/nonexistent-dir-xyz/telemetry.jsonl";
    EXPECT_FALSE(
        sampler.start(config, [] { return CounterSet(); }));
    EXPECT_FALSE(sampler.running());
}

TEST(TelemetryStress, SamplerVsWorkersUnderLoad)
{
    // The TSan surface: worker threads bump a SharedCounterSet and
    // record into a registry histogram while the sampler snapshots
    // both every millisecond. Any unsynchronized access trips the
    // sanitizer builds.
    std::string path = tempFile("telemetry_stress.jsonl");
    MetricsRegistry registry;
    StreamingHistogram &latency =
        registry.streamingHistogram("stress.lat");
    SharedCounterSet counters;

    TelemetrySampler sampler;
    TelemetryConfig config;
    config.path = path;
    config.intervalMs = 1;
    ASSERT_TRUE(sampler.start(
        config, [&counters] { return counters.snapshot(); },
        [&registry](std::ostream &os) {
            HistogramSummary s = summarizeHistogram(
                registry.streamingSnapshot()["stress.lat"]);
            os << ",\"p99\":" << s.p99;
        }));

    constexpr int kThreads = 4;
    constexpr int kIterations = 5000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&counters, &latency, t] {
            for (int i = 0; i < kIterations; ++i) {
                counters.bump(counter("serve.requests"));
                latency.record(
                    static_cast<std::uint64_t>(i % 1000 + t));
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    sampler.stop();

    std::vector<std::string> lines = readLines(path);
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(jsonField(lines.back(), "serve.requests"),
              kThreads * kIterations);
}

} // namespace
} // namespace cs
