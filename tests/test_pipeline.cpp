/**
 * @file
 * Pipeline-layer tests: concurrent-vs-serial schedule determinism on
 * Table-1 kernels, content-addressed cache semantics (hit on repeat,
 * miss after an option change, LRU eviction, repeat-batch hit rate),
 * graceful thread-pool shutdown with work still queued, and the
 * counters: the shared set's thread safety, the listing rule, and
 * name lookup.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "kernels/kernels.hpp"
#include "machine/builders.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/schedule_cache.hpp"
#include "pipeline/thread_pool.hpp"
#include "support/stats.hpp"

namespace cs {
namespace {

/**
 * A fast mixed batch: five Table-1 kernels (the quick ones — Sort and
 * Merge take seconds each and add nothing to a determinism check) on
 * two of the evaluation machines, plain block schedules.
 */
std::vector<ScheduleJob>
tableOneBatch(const Machine &central, const Machine &distributed)
{
    const char *names[] = {"DCT", "FFT-U4", "FIR-INT", "Block Warp-U2",
                           "Triangle Transform"};
    const std::pair<const char *, const Machine *> machines[] = {
        {"central", &central}, {"distributed", &distributed}};
    std::vector<ScheduleJob> jobs;
    for (const auto &[machineName, machine] : machines) {
        for (const char *name : names) {
            const KernelSpec &spec = kernelByName(name);
            ScheduleJob job;
            job.label = std::string(name) + "@" + machineName;
            job.kernel = spec.build();
            job.block = BlockId(0);
            job.machine = machine;
            job.pipelined = false;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

TEST(Pipeline, ConcurrentMatchesSerialByteForByte)
{
    Machine central = makeCentral();
    Machine distributed = makeDistributed();
    std::vector<ScheduleJob> jobs = tableOneBatch(central, distributed);
    ASSERT_GE(jobs.size(), 3u);

    SchedulingPipeline serial({.numThreads = 1,
                               .cacheCapacity = 0,
                               .cacheDirectory = {}});
    SchedulingPipeline concurrent({.numThreads = 4,
                                   .cacheCapacity = 0,
                                   .cacheDirectory = {}});

    std::vector<JobResult> serialResults = serial.run(jobs);
    std::vector<JobResult> concurrentResults = concurrent.run(jobs);

    ASSERT_EQ(serialResults.size(), concurrentResults.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].label);
        ASSERT_TRUE(serialResults[i].success);
        ASSERT_TRUE(concurrentResults[i].success);
        EXPECT_TRUE(serialResults[i].verifierErrors.empty());
        EXPECT_FALSE(serialResults[i].listing.empty());
        // Byte-identical canonical listings: placements, units, and
        // routes all match exactly.
        EXPECT_EQ(serialResults[i].listing,
                  concurrentResults[i].listing);
        EXPECT_EQ(serialResults[i].length, concurrentResults[i].length);
        EXPECT_EQ(serialResults[i].copiesInserted,
                  concurrentResults[i].copiesInserted);
    }

    // The aggregated scheduler counters are order-independent sums, so
    // they must agree too.
    EXPECT_EQ(serial.statsSnapshot().get("ops_scheduled"),
              concurrent.statsSnapshot().get("ops_scheduled"));
}

TEST(Pipeline, PipelinedJobDeterminism)
{
    // One modulo-scheduled job through both pool widths.
    Machine central = makeCentral();
    const KernelSpec &spec = kernelByName("FFT");
    ScheduleJob job;
    job.label = "FFT@central";
    job.kernel = spec.build();
    job.block = BlockId(0);
    job.machine = &central;
    job.pipelined = true;
    std::vector<ScheduleJob> jobs(3, job);

    SchedulingPipeline serial({.numThreads = 1,
                               .cacheCapacity = 0,
                               .cacheDirectory = {}});
    SchedulingPipeline concurrent({.numThreads = 4,
                                   .cacheCapacity = 0,
                                   .cacheDirectory = {}});
    std::vector<JobResult> a = serial.run(jobs);
    std::vector<JobResult> b = concurrent.run(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(a[i].success);
        ASSERT_TRUE(b[i].success);
        EXPECT_EQ(a[i].ii, b[i].ii);
        EXPECT_EQ(a[i].listing, b[i].listing);
    }
}

TEST(Pipeline, CacheHitOnRepeatMissAfterOptionChange)
{
    Machine central = makeCentral();
    const KernelSpec &spec = kernelByName("DCT");
    ScheduleJob job;
    job.label = "DCT@central";
    job.kernel = spec.build();
    job.block = BlockId(0);
    job.machine = &central;
    job.pipelined = false;

    SchedulingPipeline pipeline({.numThreads = 2,
                                 .cacheCapacity = 64,
                                 .cacheDirectory = {}});

    std::vector<JobResult> first = pipeline.run({job});
    ASSERT_TRUE(first[0].success);
    EXPECT_FALSE(first[0].cacheHit);

    // Identical job: served from the cache, identical schedule.
    std::vector<JobResult> second = pipeline.run({job});
    EXPECT_TRUE(second[0].cacheHit);
    EXPECT_EQ(first[0].listing, second[0].listing);

    // Any option change re-keys the job.
    ScheduleJob changed = job;
    changed.options.permutationBudget += 1;
    std::vector<JobResult> third = pipeline.run({changed});
    EXPECT_FALSE(third[0].cacheHit);

    ScheduleCache::Stats stats = pipeline.cache().stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.entries, 2u);
}

TEST(Pipeline, RepeatedBatchHitRateAtLeastNinetyPercent)
{
    Machine central = makeCentral();
    Machine distributed = makeDistributed();
    std::vector<ScheduleJob> jobs = tableOneBatch(central, distributed);

    SchedulingPipeline pipeline({.numThreads = 4,
                                 .cacheCapacity = 256,
                                 .cacheDirectory = {}});
    pipeline.run(jobs);
    ScheduleCache::Stats cold = pipeline.cache().stats();

    pipeline.run(jobs); // same batch again, same process
    ScheduleCache::Stats warm = pipeline.cache().stats();

    std::uint64_t hits = warm.hits - cold.hits;
    std::uint64_t lookups = (warm.hits + warm.misses) -
                            (cold.hits + cold.misses);
    ASSERT_EQ(lookups, jobs.size());
    // The acceptance bar is >= 90%; identical jobs must in fact all hit.
    EXPECT_GE(static_cast<double>(hits) /
                  static_cast<double>(lookups),
              0.9);
    EXPECT_EQ(hits, jobs.size());
}

TEST(ScheduleCache, LruEvictionBoundsEntries)
{
    ScheduleCache cache(2);
    auto dummy = std::make_shared<const JobResult>();
    cache.insert(1, dummy);
    cache.insert(2, dummy);
    EXPECT_NE(cache.lookup(1), nullptr); // 1 becomes most-recent
    cache.insert(3, dummy);              // evicts 2
    EXPECT_NE(cache.lookup(1), nullptr);
    EXPECT_EQ(cache.lookup(2), nullptr);
    EXPECT_NE(cache.lookup(3), nullptr);

    ScheduleCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 1u);
}

/** A stand-in result whose content says which key and version it is. */
std::shared_ptr<const JobResult>
taggedResult(std::uint64_t key, int version)
{
    auto result = std::make_shared<JobResult>();
    result->success = true;
    result->ii = static_cast<int>(key);
    result->length = version;
    result->listing = "key " + std::to_string(key) + " version " +
                      std::to_string(version);
    return result;
}

TEST(ScheduleCache, HitOutlivesEviction)
{
    // A hit shares the stored result instead of copying it, so it must
    // stay valid and unchanged after its entry is evicted and after its
    // key is stored again, as a new entry and then over that entry.
    ScheduleCache cache(1);
    cache.insert(1, taggedResult(1, 1));
    std::shared_ptr<const JobResult> held = cache.lookup(1);
    ASSERT_NE(held, nullptr);
    EXPECT_EQ(cache.lookup(1).get(), held.get()); // shared, not copied

    cache.insert(2, taggedResult(2, 1)); // evicts key 1
    EXPECT_EQ(cache.lookup(1), nullptr);
    cache.insert(1, taggedResult(1, 2)); // key 1 again, evicting 2
    cache.insert(1, taggedResult(1, 3)); // overwrites that entry

    std::shared_ptr<const JobResult> latest = cache.lookup(1);
    ASSERT_NE(latest, nullptr);
    EXPECT_EQ(latest->listing, "key 1 version 3");
    EXPECT_EQ(held->listing, "key 1 version 1");
    EXPECT_EQ(held->ii, 1);
    EXPECT_EQ(held->length, 1);
    EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(ScheduleCache, ConcurrentReadersAndWriterSeeWholeResults)
{
    // Four readers probe while one writer keeps inserting, evicting and
    // overwriting: every hit must be a whole result for the key asked
    // (never another key's, never a torn one), and every lookup counts
    // exactly once. The TSan build checks the locking.
    constexpr std::uint64_t kKeys = 24;
    constexpr int kLookupsPerReader = 20000;
    ScheduleCache cache(8);
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> badHits{0};
    std::atomic<std::uint64_t> lookups{0};

    std::thread writer([&] {
        for (int round = 0; !stop.load(); ++round) {
            for (std::uint64_t key = 0; key < kKeys; ++key)
                cache.insert(key, taggedResult(key, round));
        }
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < 4; ++r) {
        readers.emplace_back([&, r] {
            for (int i = 0; i < kLookupsPerReader; ++i) {
                std::uint64_t key =
                    static_cast<std::uint64_t>(i * 7 + r) % kKeys;
                std::shared_ptr<const JobResult> hit = cache.lookup(key);
                lookups.fetch_add(1);
                if (hit != nullptr &&
                    (hit->ii != static_cast<int>(key) ||
                     hit->listing !=
                         "key " + std::to_string(key) + " version " +
                             std::to_string(hit->length)))
                    badHits.fetch_add(1);
            }
        });
    }
    for (std::thread &reader : readers)
        reader.join();
    stop.store(true);
    writer.join();

    EXPECT_EQ(badHits.load(), 0u);
    ScheduleCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, lookups.load());
    EXPECT_LE(stats.entries, 8u);
}

TEST(Pipeline, ContentKeyIgnoresDebugNames)
{
    // Two dataflow-identical kernels whose labels differ key equal;
    // the machine and options perturbations key differently.
    Machine central = makeCentral();
    Machine distributed = makeDistributed();
    const KernelSpec &spec = kernelByName("FIR-INT");

    ScheduleJob a;
    a.label = "first";
    a.kernel = spec.build();
    a.block = BlockId(0);
    a.machine = &central;

    ScheduleJob b = a;
    b.label = "second (same content)";
    EXPECT_EQ(scheduleJobKey(a), scheduleJobKey(b));

    b.machine = &distributed;
    EXPECT_NE(scheduleJobKey(a), scheduleJobKey(b));

    b = a;
    b.options.maxDelay += 1;
    EXPECT_NE(scheduleJobKey(a), scheduleJobKey(b));

    b = a;
    b.pipelined = !a.pipelined;
    EXPECT_NE(scheduleJobKey(a), scheduleJobKey(b));
}

TEST(Pipeline, JobKeyIsStable)
{
    // The key names a result in every persistent cache directory: a
    // new value makes every existing directory cold, so it may only
    // change on purpose.
    Machine central = makeCentral();
    ScheduleJob job;
    job.kernel = kernelByName("FIR-INT").build();
    job.block = BlockId(0);
    job.machine = &central;
    EXPECT_EQ(scheduleJobKey(job), 0xa5d399e1389103acULL);
}

TEST(ThreadPool, DrainShutdownRunsEverything)
{
    std::atomic<int> ran{0};
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i)
        ASSERT_TRUE(pool.submit([&ran] { ++ran; }));
    pool.shutdown();
    EXPECT_EQ(ran.load(), 32);
    EXPECT_EQ(pool.executedCount(), 32u);
    // Post-shutdown submissions are rejected, not silently dropped.
    EXPECT_FALSE(pool.submit([] {}));
    // Shutdown is idempotent and waitIdle() returns on a stopped pool.
    pool.shutdown();
    pool.waitIdle();
}

TEST(ThreadPool, WaitIdleSeesQuiescentPool)
{
    std::atomic<int> ran{0};
    ThreadPool pool(4);
    for (int i = 0; i < 64; ++i)
        pool.submit([&ran] { ++ran; });
    pool.waitIdle();
    EXPECT_EQ(ran.load(), 64);
}

TEST(CounterSet, ConcurrentBumpsSumExactly)
{
    SharedCounterSet stats;
    constexpr int kThreads = 8;
    constexpr int kBumps = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&stats] {
            for (int i = 0; i < kBumps; ++i)
                stats.bump(counter("serve.requests"));
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(stats.snapshot().get(counter("serve.requests")),
              static_cast<std::uint64_t>(kThreads) * kBumps);

    CounterSet merged;
    merged.merge(stats.snapshot());
    merged.merge(stats.snapshot());
    EXPECT_EQ(merged.get("serve.requests"), 2ull * kThreads * kBumps);
}

TEST(CounterSet, ForEachVisitsEveryCounter)
{
    CounterSet stats;
    stats.bump(counter("ops_scheduled"), 3);
    stats.bump(counter("copies_inserted"), 1);
    stats.bump(counter("dfs_nodes"), 2);
    std::vector<std::pair<std::string, std::uint64_t>> seen;
    stats.forEach([&seen](std::string_view name, std::uint64_t value) {
        seen.emplace_back(name, value);
    });
    // Every listed counter once, in name order.
    std::vector<std::pair<std::string, std::uint64_t>> expected = {
        {"copies_inserted", 1}, {"dfs_nodes", 2}, {"ops_scheduled", 3}};
    EXPECT_EQ(seen, expected);
    EXPECT_EQ(seen.size(), 3u);
    EXPECT_EQ(stats.get("dfs_nodes"), 2u);
}

TEST(CounterSet, ForEachRacesWithWriters)
{
    // Snapshots read the shared set's atomics, so they must be safe
    // against concurrent bumps (the TSan build pins this).
    SharedCounterSet stats;
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        std::size_t i = 0;
        do
            stats.bump(kAllCounters[i++ % 16]);
        while (!stop.load(std::memory_order_relaxed));
    });
    for (int round = 0; round < 200; ++round) {
        std::uint64_t total = 0;
        stats.snapshot().forEach(
            [&total](std::string_view, std::uint64_t value) {
                total += value;
            });
    }
    stop.store(true);
    writer.join();
    std::uint64_t total = 0;
    stats.snapshot().forEach(
        [&total](std::string_view, std::uint64_t value) {
            total += value;
        });
    EXPECT_GT(total, 0u);
}

/** The names a set lists, in forEach order. */
std::vector<std::string>
listedNames(const CounterSet &stats)
{
    std::vector<std::string> names;
    stats.forEach([&names](std::string_view name, std::uint64_t) {
        names.emplace_back(name);
    });
    return names;
}

TEST(CounterSet, BumpByZeroIsListed)
{
    CounterSet stats;
    EXPECT_TRUE(listedNames(stats).empty());
    stats.bump(counter("batch.failures"), 0);
    stats.bump(counter("batch.jobs"), 4);
    EXPECT_TRUE(stats.listed(counter("batch.failures")));
    EXPECT_FALSE(stats.listed(counter("cache.hits"))); // untouched
    EXPECT_EQ(listedNames(stats),
              (std::vector<std::string>{"batch.failures", "batch.jobs"}));

    // A slot written in place lists only while it is non-zero.
    stats[counter("dfs_nodes")] += 0;
    EXPECT_FALSE(stats.listed(counter("dfs_nodes")));
    stats[counter("dfs_nodes")] += 2;
    EXPECT_TRUE(stats.listed(counter("dfs_nodes")));
}

TEST(CounterSet, MergeCarriesListing)
{
    CounterSet job;
    job.bump(counter("cache.hits"), 0);
    job.bump(counter("cache.misses"), 3);
    CounterSet total;
    total.merge(job);
    EXPECT_EQ(listedNames(total),
              (std::vector<std::string>{"cache.hits", "cache.misses"}));
    EXPECT_EQ(total.get(counter("cache.misses")), 3u);

    SharedCounterSet shared;
    shared.merge(job);
    shared.bump(counter("serve.ok"), 0);
    EXPECT_EQ(listedNames(shared.snapshot()),
              (std::vector<std::string>{"cache.hits", "cache.misses",
                                        "serve.ok"}));
    EXPECT_EQ(shared.snapshot().get(counter("cache.misses")), 3u);
}

TEST(CounterSet, EveryDeclaredNameRoundTrips)
{
    CounterSet stats;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        std::optional<CounterId> id = findCounter(kCounterNames[i]);
        ASSERT_TRUE(id.has_value()) << kCounterNames[i];
        EXPECT_EQ(*id, kAllCounters[i]);
        EXPECT_EQ(counterName(*id), kCounterNames[i]);
        stats.bump(*id, i + 1);
    }
    for (std::size_t i = 0; i < kNumCounters; ++i)
        EXPECT_EQ(stats.get(kCounterNames[i]), i + 1) << kCounterNames[i];
    EXPECT_EQ(counter("dfs_nodes"), findCounter("dfs_nodes"));

    EXPECT_FALSE(findCounter("no.such.counter").has_value());
    EXPECT_FALSE(findCounter("comm_sched_calls").has_value());
    EXPECT_EQ(stats.get("no.such.counter"), 0u);
    EXPECT_EQ(stats.get(""), 0u);
}

} // namespace
} // namespace cs
