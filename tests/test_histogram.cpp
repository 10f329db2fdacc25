/**
 * @file
 * Unit tests for the streaming histogram (support/histogram.hpp):
 * bucket-scheme correctness, quantile and merge semantics, the
 * MetricsRegistry integration, and a concurrent record/snapshot
 * stress that the sanitizer builds gate on (Histogram* is part of
 * CS_SANITIZE_TESTS).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "support/histogram.hpp"
#include "support/metrics.hpp"

namespace cs {
namespace {

TEST(Histogram, SmallValuesMapToExactBuckets)
{
    // Values below kSub (16) are their own bucket: exact.
    for (std::uint64_t v = 0; v < StreamingHistogram::kSub; ++v) {
        EXPECT_EQ(StreamingHistogram::bucketIndex(v), v);
        EXPECT_EQ(StreamingHistogram::bucketLowerBound(v), v);
    }
}

TEST(Histogram, BucketSchemeIsContinuousAtTheLinearBoundary)
{
    // [16, 32) is the first log-linear octave with 16 sub-buckets of
    // width 1 — indistinguishable from the direct range, so the
    // mapping must be continuous: v -> index v.
    for (std::uint64_t v = 16; v < 32; ++v) {
        EXPECT_EQ(StreamingHistogram::bucketIndex(v), v);
        EXPECT_EQ(StreamingHistogram::bucketLowerBound(v), v);
    }
    // And the next octave starts a new block of 16.
    EXPECT_EQ(StreamingHistogram::bucketIndex(32), 32u);
    EXPECT_EQ(StreamingHistogram::bucketLowerBound(32), 32u);
}

TEST(Histogram, BucketIndexIsMonotoneAndLowerBoundInverts)
{
    // Sweep powers of two and neighbours across the u64 range: the
    // index never decreases in the value, and
    // bucketLowerBound(bucketIndex(v)) is a lower bound within 1/16
    // relative error. The sweep itself revisits smaller values
    // (2^b - 1 < 2^(b-1) + 1 for small b), so monotonicity is checked
    // against the largest value seen so far.
    std::size_t previous = 0;
    std::uint64_t previousValue = 0;
    for (unsigned bit = 0; bit < 64; ++bit) {
        for (std::int64_t offset : {-1, 0, 1}) {
            if (bit == 0 && offset < 0)
                continue;
            std::uint64_t v = (1ull << bit) + offset;
            std::size_t index = StreamingHistogram::bucketIndex(v);
            ASSERT_LT(index, StreamingHistogram::kBuckets);
            if (v >= previousValue) {
                EXPECT_GE(index, previous);
                previous = index;
                previousValue = v;
            }
            std::uint64_t lower =
                StreamingHistogram::bucketLowerBound(index);
            EXPECT_LE(lower, v);
            // Relative error bound: lower > v - v/16 - 1.
            EXPECT_GE(static_cast<double>(lower),
                      static_cast<double>(v) * 15.0 / 16.0 - 1.0);
        }
    }
    EXPECT_EQ(StreamingHistogram::bucketIndex(
                  std::numeric_limits<std::uint64_t>::max()),
              StreamingHistogram::kBuckets - 1);
}

TEST(Histogram, QuantilesOfAKnownDistribution)
{
    // 1..100 recorded once each: p50 is the 50th smallest (=50), p99
    // the 99th (=99) — all below 128 where buckets are narrow, so the
    // lower-bound answer is within one sub-bucket.
    StreamingHistogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.record(v);
    StreamingHistogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 100u);
    EXPECT_EQ(snap.total, 5050u);
    EXPECT_EQ(snap.max, 100u);
    EXPECT_DOUBLE_EQ(snap.mean(), 50.5);
    // Sub-bucket width is 4 in [64,128): quantile returns the bucket
    // lower bound, so allow one bucket of slack.
    EXPECT_NEAR(static_cast<double>(snap.quantile(0.5)), 50.0, 4.0);
    EXPECT_NEAR(static_cast<double>(snap.quantile(0.9)), 90.0, 8.0);
    EXPECT_NEAR(static_cast<double>(snap.quantile(0.99)), 99.0, 8.0);
    EXPECT_EQ(snap.quantile(1.0), snap.quantile(0.999));
    // Degenerate quantiles clamp instead of misbehaving.
    EXPECT_EQ(snap.quantile(0.0), snap.quantile(0.001));
    EXPECT_EQ(StreamingHistogram::Snapshot{}.quantile(0.5), 0u);
}

TEST(Histogram, ExactQuantilesBelowTheLinearBoundary)
{
    // All samples below 16: every bucket holds exactly one value, so
    // quantiles are exact order statistics.
    StreamingHistogram h;
    for (std::uint64_t v = 0; v < 16; ++v)
        h.record(v);
    StreamingHistogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.quantile(0.5), 7u);  // ceil(0.5*16) = 8th smallest
    EXPECT_EQ(snap.quantile(1.0), 15u);
    EXPECT_EQ(snap.max, 15u);
}

TEST(Histogram, MergeMatchesUnionOfSamples)
{
    StreamingHistogram a, b, whole;
    for (std::uint64_t v = 1; v <= 50; ++v) {
        a.record(v);
        whole.record(v);
    }
    for (std::uint64_t v = 51; v <= 100; ++v) {
        b.record(v * 7);
        whole.record(v * 7);
    }
    StreamingHistogram::Snapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    StreamingHistogram::Snapshot expected = whole.snapshot();
    EXPECT_EQ(merged.count, expected.count);
    EXPECT_EQ(merged.total, expected.total);
    EXPECT_EQ(merged.max, expected.max);
    EXPECT_EQ(merged.buckets, expected.buckets);
    EXPECT_EQ(merged.quantile(0.5), expected.quantile(0.5));
}

TEST(Histogram, SummaryCarriesTheEmitterQuantileSet)
{
    StreamingHistogram h;
    for (int i = 0; i < 1000; ++i)
        h.record(10);
    h.record(5000);
    HistogramSummary s = summarizeHistogram(h.snapshot());
    EXPECT_EQ(s.count, 1001u);
    EXPECT_EQ(s.p50, 10u);
    EXPECT_EQ(s.p90, 10u);
    EXPECT_EQ(s.p99, 10u);
    // The outlier is past p99.9's rank (ceil(0.999*1001) = 1000).
    EXPECT_EQ(s.p999, 10u);
    EXPECT_EQ(s.max, 5000u);
    EXPECT_NEAR(s.mean, (1000.0 * 10 + 5000) / 1001.0, 1e-9);
}

TEST(Histogram, ConcurrentRecordersNeverLoseSamples)
{
    // The TSan surface: four writers hammer record() while a reader
    // snapshots continuously. Every sample must land in exactly one
    // final bucket and count must equal the bucket sum at all times.
    StreamingHistogram h;
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPerThread = 20000;
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&h, t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                h.record(i % 97 + static_cast<std::uint64_t>(t));
        });
    }
    std::uint64_t lastCount = 0;
    for (int i = 0; i < 200; ++i) {
        StreamingHistogram::Snapshot snap = h.snapshot();
        // count is derived from the buckets, so it is always the
        // bucket sum by construction; it must also be monotone across
        // snapshots.
        EXPECT_GE(snap.count, lastCount);
        lastCount = snap.count;
    }
    for (std::thread &w : writers)
        w.join();
    StreamingHistogram::Snapshot final = h.snapshot();
    EXPECT_EQ(final.count, kThreads * kPerThread);
}

TEST(HistogramRegistry, NamedInstancesAreStableAndDumped)
{
    MetricsRegistry registry;
    StreamingHistogram &h = registry.streamingHistogram("lat");
    // Same name -> same instance (hot paths cache the pointer).
    EXPECT_EQ(&registry.streamingHistogram("lat"), &h);
    h.record(7);
    h.record(9);

    auto snaps = registry.streamingSnapshot();
    ASSERT_EQ(snaps.count("lat"), 1u);
    EXPECT_EQ(snaps["lat"].count, 2u);

    std::ostringstream json;
    registry.writeJson(json);
    EXPECT_NE(json.str().find("\"streaming\":{\"lat\":{\"count\":2"),
              std::string::npos);
}

TEST(MetricsJson, CounterObjectSortsKeys)
{
    // Pin: writeCounterObject emits sorted key order no matter how
    // the call site lists the names, so counter dumps diff cleanly
    // across front-ends and versions.
    CounterSet stats;
    stats.bump(counter("table_releases"), 1);
    stats.bump(counter("copies_inserted"), 2);
    stats.bump(counter("ops_scheduled"), 3);
    static constexpr auto kNames = counters(
        {}, {"table_releases", "ops_scheduled", "copies_inserted"});
    std::ostringstream json;
    writeCounterObject(json, stats, kNames);
    EXPECT_EQ(json.str(), "{\"copies_inserted\":2,\"ops_scheduled\":3,"
                          "\"table_releases\":1}");

    // A stripped prefix keys the object by the rest of each name.
    static constexpr auto kPipeline =
        counters("pipeline.", {"jobs", "cache_hits"});
    stats.bump(counter("pipeline.jobs"), 4);
    std::ostringstream stripped;
    writeCounterObject(stripped, stats, kPipeline, "pipeline.");
    EXPECT_EQ(stripped.str(), "{\"cache_hits\":0,\"jobs\":4}");
}

} // namespace
} // namespace cs
