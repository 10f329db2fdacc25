/**
 * @file
 * Pipeline-layer tests: concurrent-vs-serial schedule determinism on
 * Table-1 kernels, content-addressed cache semantics (hit on repeat,
 * miss after an option change, LRU eviction, repeat-batch hit rate),
 * graceful thread-pool shutdown with work still queued, and the
 * thread-safety of the shared CounterSet.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
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

    SchedulingPipeline serial({.numThreads = 1, .cacheCapacity = 0});
    SchedulingPipeline concurrent({.numThreads = 4, .cacheCapacity = 0});

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

    SchedulingPipeline serial({.numThreads = 1, .cacheCapacity = 0});
    SchedulingPipeline concurrent({.numThreads = 4, .cacheCapacity = 0});
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

    SchedulingPipeline pipeline({.numThreads = 2, .cacheCapacity = 64});

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

    SchedulingPipeline pipeline({.numThreads = 4, .cacheCapacity = 256});
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
    JobResult dummy;
    cache.insert(1, dummy);
    cache.insert(2, dummy);
    EXPECT_TRUE(cache.lookup(1).has_value()); // 1 becomes most-recent
    cache.insert(3, dummy);                   // evicts 2
    EXPECT_TRUE(cache.lookup(1).has_value());
    EXPECT_FALSE(cache.lookup(2).has_value());
    EXPECT_TRUE(cache.lookup(3).has_value());

    ScheduleCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 1u);
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
    std::size_t discarded = pool.shutdown(ThreadPool::Drain::Finish);
    EXPECT_EQ(discarded, 0u);
    EXPECT_EQ(ran.load(), 32);
    EXPECT_EQ(pool.executedCount(), 32u);
    // Post-shutdown submissions are rejected, not silently dropped.
    EXPECT_FALSE(pool.submit([] {}));
}

TEST(ThreadPool, DiscardShutdownDropsQueuedJobs)
{
    std::atomic<int> ran{0};
    ThreadPool pool(2);
    // Two slow tasks occupy both workers; the rest sit in the queue.
    for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(pool.submit([&ran] {
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            ++ran;
        }));
    }
    // Give the workers a moment to pick up the first tasks.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::size_t discarded = pool.shutdown(ThreadPool::Drain::Discard);

    EXPECT_GT(discarded, 0u);
    EXPECT_EQ(static_cast<std::size_t>(ran.load()) + discarded, 16u);
    EXPECT_EQ(pool.executedCount() + discarded, 16u);
    // Shutdown is idempotent and waitIdle() returns on a stopped pool.
    EXPECT_EQ(pool.shutdown(ThreadPool::Drain::Discard), 0u);
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
    CounterSet stats;
    constexpr int kThreads = 8;
    constexpr int kBumps = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&stats] {
            for (int i = 0; i < kBumps; ++i)
                stats.bump("shared");
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(stats.get("shared"),
              static_cast<std::uint64_t>(kThreads) * kBumps);

    CounterSet merged;
    merged.merge(stats);
    merged.merge(stats);
    EXPECT_EQ(merged.snapshot().at("shared"),
              2ull * kThreads * kBumps);
}

TEST(CounterSet, ForEachVisitsEveryCounter)
{
    CounterSet stats;
    stats.bump("a", 1);
    stats.bump("b", 2);
    stats.bump("c", 3);
    std::map<std::string, std::uint64_t> seen;
    stats.forEach([&seen](const std::string &name,
                          std::uint64_t value) { seen[name] = value; });
    EXPECT_EQ(seen, stats.snapshot());
    EXPECT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen.at("b"), 2u);
}

TEST(CounterSet, ForEachRacesWithWriters)
{
    // forEach iterates under the set's own lock, so it must be safe
    // against concurrent bumps (the TSan build pins this).
    CounterSet stats;
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        int i = 0;
        do
            stats.bump("w" + std::to_string(i++ % 16));
        while (!stop.load(std::memory_order_relaxed));
    });
    for (int round = 0; round < 200; ++round) {
        std::uint64_t total = 0;
        stats.forEach([&total](const std::string &,
                               std::uint64_t value) { total += value; });
    }
    stop.store(true);
    writer.join();
    std::uint64_t total = 0;
    stats.forEach(
        [&total](const std::string &, std::uint64_t value) {
            total += value;
        });
    EXPECT_GT(total, 0u);
}

} // namespace
} // namespace cs
