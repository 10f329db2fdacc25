/**
 * @file
 * Shared-analysis (context) cache and in-flight dedup suite:
 * content-keyed hit/miss/LRU-eviction accounting, eviction safety
 * behind shared_ptr, byte-equivalence of schedules produced through
 * shared contexts, cross-thread sharing (the TSan build pins the
 * one-build-per-key acquire and concurrent scheduling against one
 * shared context), and the pipeline's in-flight coalescing: N identical jobs
 * submitted together schedule exactly once, the other N-1 attach to
 * the leader's run, and every result is byte-identical to a singleton
 * run. An unarmed joiner attaches a completion and frees its worker;
 * an armed one waits so it can answer at its own deadline; the
 * joiners of a cancelled leader schedule for themselves.
 *
 * Suite names matter: "ContextCache*" and "PipelineDedup*" are part
 * of the CS_SANITIZE_TESTS filter (tests/CMakeLists.txt and
 * .claude/skills/verify/SKILL.md must stay in sync).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/export.hpp"
#include "core/list_scheduler.hpp"
#include "core/modulo_scheduler.hpp"
#include "kernels/kernels.hpp"
#include "machine/builders.hpp"
#include "pipeline/context_cache.hpp"
#include "pipeline/pipeline.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"

namespace cs {
namespace {

Kernel
kernel(const char *name)
{
    return kernelByName(name).build();
}

/** Listing of a plain block schedule through @p context. */
std::string
listingVia(const BlockSchedulingContext &context)
{
    ScheduleResult result = scheduleBlock(context);
    CS_ASSERT(result.success, "schedule through shared context failed");
    return exportListing(result.kernel, context.machine(),
                         result.schedule);
}

TEST(ContextCache, HitMissEvictionFollowLruOrder)
{
    setVerboseLogging(false);
    Machine central = makeCentral();
    ContextCache cache(2);

    auto fft = cache.acquire(kernel("FFT"), BlockId(0), central);
    auto dct = cache.acquire(kernel("DCT"), BlockId(0), central);
    auto fftAgain = cache.acquire(kernel("FFT"), BlockId(0), central);
    EXPECT_EQ(fft.get(), fftAgain.get()) << "hit must share the entry";

    // FIR-FP evicts DCT (the LRU entry after the FFT hit); DCT then
    // misses and evicts FFT.
    auto fir = cache.acquire(kernel("FIR-FP"), BlockId(0), central);
    auto dctAgain = cache.acquire(kernel("DCT"), BlockId(0), central);
    EXPECT_NE(dct.get(), dctAgain.get()) << "DCT was evicted";

    ContextCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.capacity, 2u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.2);

    // The evicted entry stays alive and correct behind its shared_ptr:
    // schedules through it match a freshly built context byte for byte.
    EXPECT_EQ(listingVia(dct->context()),
              listingVia(dctAgain->context()));
}

TEST(ContextCache, KeyIsContentAddressed)
{
    Machine central = makeCentral();
    Machine distributed = makeDistributed();
    // Two independent builds of the same kernel hash identically;
    // machine connectivity is part of the key.
    EXPECT_EQ(ContextCache::key(kernel("FFT"), BlockId(0), central),
              ContextCache::key(kernel("FFT"), BlockId(0), central));
    EXPECT_NE(ContextCache::key(kernel("FFT"), BlockId(0), central),
              ContextCache::key(kernel("DCT"), BlockId(0), central));
    EXPECT_NE(ContextCache::key(kernel("FFT"), BlockId(0), central),
              ContextCache::key(kernel("FFT"), BlockId(0), distributed));
}

TEST(ContextCache, CapacityZeroBuildsPrivateEntries)
{
    setVerboseLogging(false);
    Machine central = makeCentral();
    ContextCache cache(0);
    auto first = cache.acquire(kernel("FFT"), BlockId(0), central);
    auto second = cache.acquire(kernel("FFT"), BlockId(0), central);
    EXPECT_NE(first.get(), second.get());
    ContextCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(listingVia(first->context()),
              listingVia(second->context()));
}

TEST(ContextCache, CounterEmitterMatchesHandCounts)
{
    ContextCache::Stats stats;
    stats.hits = 7;
    stats.misses = 3;
    stats.evictions = 2;
    stats.entries = 1;
    stats.capacity = 8;
    CounterSet set;
    stats.addTo(set);
    std::ostringstream json;
    writeCounterObject(json, set, counterGroup("context."), "context.");
    // Keys come out in name order, the prefix stripped
    // (writeCounterObject's contract; pinned again by
    // MetricsJson.CounterObjectSortsKeys).
    EXPECT_EQ(json.str(),
              "{\"capacity\":8,\"entries\":1,\"evictions\":2,"
              "\"hits\":7,\"misses\":3}");
}

TEST(ContextCache, CrossThreadSharingKeepsSchedulesByteIdentical)
{
    setVerboseLogging(false);
    Machine central = makeCentral();
    ContextCache cache(8);

    // Serial references, built without the cache.
    const char *const kNames[] = {"FFT", "DCT"};
    std::string expected[2];
    for (int k = 0; k < 2; ++k) {
        Kernel reference = kernel(kNames[k]);
        PipelineResult result =
            schedulePipelined(reference, BlockId(0), central);
        ASSERT_TRUE(result.success);
        expected[k] = exportListing(result.inner.kernel, central,
                                    result.inner.schedule);
    }

    // Four threads hammer the same two keys: the first acquire of
    // each key builds it, the racing ones wait for that build, and
    // every thread modulo-schedules through the shared context.
    constexpr int kThreads = 4;
    constexpr int kRounds = 8;
    std::vector<std::thread> threads;
    std::vector<std::string> mismatches[kThreads];
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                int k = (t + round) % 2;
                auto shared =
                    cache.acquire(kernel(kNames[k]), BlockId(0),
                                  central);
                PipelineResult result =
                    schedulePipelined(shared->context());
                if (!result.success) {
                    mismatches[t].push_back("schedule failed");
                    continue;
                }
                std::string listing = exportListing(
                    result.inner.kernel, central,
                    result.inner.schedule);
                if (listing != expected[k])
                    mismatches[t].push_back("listing diverged");
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_TRUE(mismatches[t].empty())
            << "thread " << t << ": " << mismatches[t].size()
            << " mismatches, first: " << mismatches[t].front();

    ContextCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<std::uint64_t>(kThreads * kRounds));
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.misses, 2u) << "each key is built exactly once";
}

/**
 * In-flight dedup: N identical jobs submitted together must schedule
 * exactly once — one leader misses, every other copy attaches to the
 * in-flight run — and each returned result must be byte-identical to
 * a singleton run of the same job.
 */
TEST(PipelineDedup, HerdSchedulesOnceAndMatchesSingleton)
{
    setVerboseLogging(false);
    // A mid-weight job (tens of ms): long enough that every herd
    // member is dequeued while the leader still schedules, so the
    // join count is deterministic.
    Machine machine = makeClustered({}, 4);
    auto makeJob = [&] {
        ScheduleJob job;
        job.label = "DCT@Clustered (4)";
        job.kernel = kernel("DCT");
        job.block = BlockId(0);
        job.machine = &machine;
        job.pipelined = true;
        return job;
    };

    PipelineConfig singletonConfig;
    singletonConfig.numThreads = 1;
    SchedulingPipeline singleton(singletonConfig);
    std::vector<JobResult> reference = singleton.run({makeJob()});
    ASSERT_TRUE(reference[0].success);
    CounterSet singletonStats = singleton.statsSnapshot();

    constexpr std::size_t kCopies = 6;
    PipelineConfig herdConfig;
    herdConfig.numThreads = kCopies;
    herdConfig.cacheCapacity = 64;
    SchedulingPipeline pipeline(herdConfig);
    std::vector<ScheduleJob> herd;
    for (std::size_t i = 0; i < kCopies; ++i)
        herd.push_back(makeJob());
    std::vector<JobResult> results = pipeline.run(herd);

    ASSERT_EQ(results.size(), kCopies);
    for (const JobResult &result : results) {
        ASSERT_TRUE(result.success);
        EXPECT_EQ(result.ii, reference[0].ii);
        EXPECT_EQ(result.length, reference[0].length);
        EXPECT_EQ(result.copiesInserted, reference[0].copiesInserted);
        EXPECT_EQ(result.listing, reference[0].listing)
            << "dedup-joined result diverged from the singleton run";
        EXPECT_TRUE(result.verifierErrors.empty());
    }

    CounterSet stats = pipeline.statsSnapshot();
    EXPECT_EQ(stats.get("pipeline.jobs"), kCopies);
    EXPECT_EQ(stats.get("pipeline.cache_misses"), 1u);
    EXPECT_EQ(stats.get("pipeline.dedup_joins"), kCopies - 1);
    EXPECT_EQ(stats.get("pipeline.cache_hits"), 0u);
    EXPECT_EQ(stats.get("pipeline.failures"), 0u);
    // Scheduler counters merge once per actual run: the herd's merged
    // totals equal the singleton's, N-fold counting would not.
    EXPECT_EQ(stats.get("ops_scheduled"),
              singletonStats.get("ops_scheduled"));
    EXPECT_EQ(stats.get("copies_inserted"),
              singletonStats.get("copies_inserted"));
}

TEST(PipelineDedup, DisabledDedupNeverJoins)
{
    setVerboseLogging(false);
    Machine machine = makeCentral();
    std::vector<ScheduleJob> herd;
    for (int i = 0; i < 4; ++i) {
        ScheduleJob job;
        job.label = "FFT@Central";
        job.kernel = kernel("FFT");
        job.block = BlockId(0);
        job.machine = &machine;
        job.pipelined = true;
        herd.push_back(std::move(job));
    }
    PipelineConfig config;
    config.numThreads = 2;
    config.dedupInFlight = false;
    SchedulingPipeline pipeline(config);
    std::vector<JobResult> results = pipeline.run(herd);
    std::string expected = results[0].listing;
    for (const JobResult &result : results) {
        ASSERT_TRUE(result.success);
        EXPECT_EQ(result.listing, expected);
    }
    CounterSet stats = pipeline.statsSnapshot();
    EXPECT_EQ(stats.get("pipeline.dedup_joins"), 0u);
    EXPECT_EQ(stats.get("pipeline.jobs"),
              stats.get("pipeline.cache_hits") +
                  stats.get("pipeline.cache_misses"));
}

/** A plain block job for @p name on @p machine. */
ScheduleJob
blockJob(const char *name, const Machine &machine)
{
    ScheduleJob job;
    job.label = name;
    job.kernel = kernel(name);
    job.block = BlockId(0);
    job.machine = &machine;
    job.pipelined = false;
    return job;
}

/** Completions in the order they arrive, each under a tag. */
class Arrivals
{
  public:
    SchedulingPipeline::Completion to(std::string tag)
    {
        return [this, tag = std::move(tag)](JobResult result) {
            std::lock_guard<std::mutex> lock(mutex_);
            results_.emplace_back(tag, std::move(result));
        };
    }

    bool has(const std::string &tag) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[t, result] : results_)
            if (t == tag)
                return true;
        return false;
    }

    /** Spin until @p ready holds. */
    static void waitFor(const std::function<bool()> &ready)
    {
        while (!ready())
            std::this_thread::sleep_for(std::chrono::microseconds(100));
    }

    /** Read once every job has completed (after waitIdle). */
    const std::vector<std::pair<std::string, JobResult>> &all() const
    {
        return results_;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<std::pair<std::string, JobResult>> results_;
};

void
expectJobsAddUp(const SchedulingPipeline &pipeline)
{
    CounterSet stats = pipeline.statsSnapshot();
    EXPECT_EQ(stats.get("pipeline.jobs"),
              stats.get("pipeline.cache_hits") +
                  stats.get("pipeline.cache_misses") +
                  stats.get("pipeline.dedup_joins"));
}

/**
 * A joiner gives its worker back. Two workers: one leads a Sort on the
 * distributed machine (tens of ms), the other attaches both Sort copies
 * and goes on to a cheap FIR-INT job, which therefore completes first.
 * A joiner that blocked its worker would hold the FIR-INT job until
 * the Sort finished.
 */
TEST(PipelineDedup, JoinerReturnsItsWorker)
{
    setVerboseLogging(false);
    Machine distributed = makeDistributed();
    Machine central = makeCentral();
    JobResult reference = runScheduleJob(blockJob("Sort", distributed));
    ASSERT_TRUE(reference.success);

    Arrivals arrivals; // outlives the pipeline's workers
    PipelineConfig config;
    config.numThreads = 2;
    SchedulingPipeline pipeline(config);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(pipeline.submit(blockJob("Sort", distributed),
                                    arrivals.to("Sort")));
    ASSERT_TRUE(pipeline.submit(blockJob("FIR-INT", central),
                                arrivals.to("FIR-INT")));
    pipeline.waitIdle();

    const auto &all = arrivals.all();
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all.front().first, "FIR-INT")
        << "a Sort copy held its worker until the Sort finished";
    for (const auto &[tag, result] : all) {
        ASSERT_TRUE(result.success) << tag;
        if (tag == "Sort") {
            EXPECT_EQ(result.listing, reference.listing);
        }
    }
    CounterSet stats = pipeline.statsSnapshot();
    EXPECT_EQ(stats.get("pipeline.jobs"), 4u);
    EXPECT_EQ(stats.get("pipeline.cache_misses"), 2u);
    expectJobsAddUp(pipeline);
}

/**
 * Only an armed leader can be cancelled, and by its own deadline; an
 * unarmed copy attached to it must still get a schedule. The armed Sort
 * registers before its copy is submitted, so the copy coalesces with
 * it; a FIR-INT job queued behind the copy on the one free worker
 * completes once the copy has attached, and then the flag goes up.
 */
TEST(PipelineDedup, CancelledLeaderStillSchedulesItsJoiners)
{
    setVerboseLogging(false);
    Machine distributed = makeDistributed();
    Machine central = makeCentral();
    JobResult reference = runScheduleJob(blockJob("Sort", distributed));
    ASSERT_TRUE(reference.success);

    Arrivals arrivals;
    std::atomic<bool> abort{false};
    PipelineConfig config;
    config.numThreads = 2;
    SchedulingPipeline pipeline(config);
    ScheduleJob armed = blockJob("Sort", distributed);
    armed.abortFlag = &abort;
    ASSERT_TRUE(pipeline.submit(std::move(armed), arrivals.to("armed")));
    Arrivals::waitFor([&] {
        return pipeline.inflightDepth() > 0 || arrivals.has("armed");
    });
    ASSERT_TRUE(pipeline.submit(blockJob("Sort", distributed),
                                arrivals.to("copy")));
    ASSERT_TRUE(pipeline.submit(blockJob("FIR-INT", central),
                                arrivals.to("FIR-INT")));
    Arrivals::waitFor([&] { return arrivals.has("FIR-INT"); });
    abort.store(true);
    pipeline.waitIdle();

    ASSERT_EQ(arrivals.all().size(), 3u);
    for (const auto &[tag, result] : arrivals.all()) {
        if (tag == "armed") {
            EXPECT_TRUE(result.cancelled);
            EXPECT_FALSE(result.success);
        } else if (tag == "copy") {
            EXPECT_FALSE(result.cancelled);
            ASSERT_TRUE(result.success);
            EXPECT_EQ(result.listing, reference.listing);
        }
    }
    EXPECT_GE(pipeline.statsSnapshot().get("pipeline.cancelled"), 1u);
    expectJobsAddUp(pipeline);
}

/**
 * An armed joiner still waits on its worker, polling its flag, so it is
 * answered at its own deadline: cancelled while its unarmed leader is
 * still scheduling, and without touching the leader's result.
 */
TEST(PipelineDedup, ArmedJoinerAnswersAtItsDeadline)
{
    setVerboseLogging(false);
    Machine distributed = makeDistributed();
    JobResult reference = runScheduleJob(blockJob("Sort", distributed));
    ASSERT_TRUE(reference.success);

    Arrivals arrivals;
    std::atomic<bool> abort{false};
    PipelineConfig config;
    config.numThreads = 2;
    SchedulingPipeline pipeline(config);
    ASSERT_TRUE(pipeline.submit(blockJob("Sort", distributed),
                                arrivals.to("leader")));
    Arrivals::waitFor([&] {
        return pipeline.inflightDepth() > 0 || arrivals.has("leader");
    });
    ScheduleJob armed = blockJob("Sort", distributed);
    armed.abortFlag = &abort;
    ASSERT_TRUE(pipeline.submit(std::move(armed), arrivals.to("copy")));
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    abort.store(true);
    pipeline.waitIdle();

    const auto &all = arrivals.all();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all.front().first, "copy")
        << "the armed copy waited for its leader past its deadline";
    for (const auto &[tag, result] : all) {
        if (tag == "copy") {
            EXPECT_TRUE(result.cancelled);
        } else {
            ASSERT_TRUE(result.success);
            EXPECT_FALSE(result.cancelled);
            EXPECT_EQ(result.listing, reference.listing);
        }
    }
    expectJobsAddUp(pipeline);
}

} // namespace
} // namespace cs
