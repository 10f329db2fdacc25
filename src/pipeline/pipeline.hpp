/**
 * @file
 * The scheduling pipeline: fans a batch of self-contained scheduling
 * jobs across a fixed-size thread pool, memoizing results in a shared
 * content-addressed cache and adding per-job scheduler counters into
 * one SharedCounterSet (relaxed atomic adds, no lock).
 *
 * Determinism contract: results come back indexed by submission
 * position and each job is closed over all of its inputs, so a batch
 * run on N threads produces byte-identical schedules (listings) to
 * the same batch run serially — only wall times and cache hit
 * patterns may differ. Tests assert this.
 *
 * This is the layer the ROADMAP's serving/sharding work builds on: a
 * front-end that accepts heavy streams of (kernel x machine x
 * options) compile requests and saturates the local hardware.
 */

#ifndef CS_PIPELINE_PIPELINE_HPP
#define CS_PIPELINE_PIPELINE_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "pipeline/context_cache.hpp"
#include "pipeline/job.hpp"
#include "pipeline/persistent_cache.hpp"
#include "pipeline/thread_pool.hpp"
#include "support/stats.hpp"

namespace cs {

/** Pipeline construction knobs. */
struct PipelineConfig
{
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    unsigned numThreads = 0;
    /** Schedule-cache entries; 0 disables caching. */
    std::size_t cacheCapacity = 1024;
    /**
     * Sentinel for iiSearchWorkers: size the II pool to the machine.
     * On multi-core hardware this resolves to one worker per hardware
     * thread; on a single core speculation can only add overhead, so
     * it resolves to 0 (the serial sweep). The CLI front-ends expose
     * it as `--ii-workers auto`.
     */
    static constexpr unsigned kAutoIiWorkers = ~0u;

    /**
     * Worker budget for the speculative parallel II search of
     * pipelined jobs. 0 keeps the serial sweep. A positive value
     * spawns one dedicated pool of that many workers, shared by every
     * job in the batch — dedicated because job workers block waiting
     * for their II attempts, so running attempts on the job pool
     * itself would deadlock it. kAutoIiWorkers picks per the hardware.
     * Results are byte-identical either way; only wall time and the
     * attempt accounting change.
     */
    unsigned iiSearchWorkers = 0;
    /**
     * The II worker count a pipeline actually runs for @p requested:
     * kAutoIiWorkers resolves against the hardware, anything else
     * passes through. Front-ends use it to report the effective pool
     * size instead of the sentinel.
     */
    static unsigned resolvedIiWorkers(unsigned requested);
    /**
     * Directory for the persistent (disk) cache tier. Empty keeps the
     * cache memory-only, which preserves the classic batch behavior.
     * See pipeline/persistent_cache.hpp for the on-disk format.
     */
    std::string cacheDirectory;
    /** Shard-file count for the disk tier (ignored when memory-only). */
    int cacheShards = 8;
    /**
     * Milliseconds between flock-ownership retries on read-only disk
     * shards: a non-owner that finds the owner gone promotes itself
     * and starts appending (persistent_cache.hpp). 0 keeps the
     * PR 8 behavior (never retry). Ignored when memory-only.
     */
    int ownershipRetryMs = 0;
    /**
     * Shared-analysis cache entries: BlockSchedulingContexts (DDG,
     * MII bounds, serviceability tables) keyed by kernel x machine
     * content so jobs that revisit a pair — a sweep's option
     * variants, repeated service traffic — skip the analysis. 0
     * disables sharing (every job builds privately, the pre-cache
     * behavior). Results are byte-identical either way.
     */
    std::size_t contextCacheCapacity = 256;
    /**
     * Coalesce identical in-flight jobs: a job whose full content key
     * matches one currently scheduling attaches to that run's result
     * instead of scheduling again ("pipeline.dedup_joins"), and its
     * worker takes the next task until the leader delivers. Closes
     * the thundering-herd window the result cache cannot: concurrent
     * duplicates all miss before the first insert lands. Results stay
     * byte-identical; only wall time and counters differ.
     */
    bool dedupInFlight = true;
};

/**
 * A reusable batch scheduler. run() may be called repeatedly; the
 * cache persists across batches (that is the warm-cache win). One
 * pipeline instance must not have run() called concurrently from two
 * threads; everything inside a single run() is concurrent.
 */
class SchedulingPipeline
{
  public:
    explicit SchedulingPipeline(const PipelineConfig &config = {});

    /**
     * Schedule every job and return results in submission order.
     * Cached results are returned with cacheHit = true and a fresh
     * lookup wall time.
     */
    std::vector<JobResult> run(const std::vector<ScheduleJob> &jobs);

    /** Receives one job's result; called exactly once per job. */
    using Completion = std::function<void(JobResult)>;

    /**
     * Asynchronous single-job entry point for serving front-ends:
     * enqueue one job and invoke @p done with its result on a worker
     * thread — the job's own, or, when the job attached to an
     * identical in-flight run, that run's leader's once it publishes.
     * Unlike run(), submit() is safe to call concurrently from many
     * threads (each request closes over its own inputs and callback).
     * Returns false if the pool has shut down. The job is owned by
     * @p done's wrapper until it has run; the caller keeps the job's
     * machine alive until @p done runs.
     */
    bool submit(ScheduleJob job, Completion done);

    /**
     * submit() for a caller that already holds the job's content key,
     * scheduleJobKey(job), and whose probeCached(key) missed: the run
     * coalesces and inserts under @p key without hashing the job again.
     * Its re-probe catches an identical job finished since; a hit there
     * counts as any hit, a miss counts nothing (the caller's did).
     * @p done runs as submit(job, done)'s does.
     */
    bool submit(ScheduleJob job, std::uint64_t key, Completion done);

    /**
     * Synchronous cache probe by content key, for serving fast paths.
     * A warm hit returns the shared cached result and makes the same
     * pipeline.jobs / pipeline.cache_hits / pipeline.failures counter
     * bumps as a hit in runOne(), without touching the worker pool. A
     * miss returns null and bumps *nothing*: the caller is expected to
     * fall back to submit(), whose run then counts the miss once. The
     * result is the stored one, so its cacheHit/wallMs describe the
     * run that populated it; the caller reports this lookup's on its
     * own copy or response. Safe to call concurrently from any thread.
     * With @p countMiss false, the cache tiers do not count a miss.
     */
    std::shared_ptr<const JobResult> probeCached(std::uint64_t key,
                                                 bool countMiss = true);

    /**
     * probeCached(scheduleJobKey(job)), copied out as runOne() returns
     * a hit: cacheHit set, and a wall time covering the key and the
     * lookup. nullopt on a miss, which bumps nothing.
     */
    std::optional<JobResult> lookupCached(const ScheduleJob &job);

    /** Block until every submitted job has completed. */
    void waitIdle() { pool_.waitIdle(); }

    /** The shared result cache (for stats and tests). */
    const PersistentScheduleCache &cache() const { return cache_; }

    /** The shared analysis cache (for stats and tests). */
    const ContextCache &contextCache() const { return contextCache_; }

    /**
     * The pipeline.* counters of every job ever run plus the per-job
     * scheduler counters, merged once per scheduling run (misses
     * only). jobs = cache_hits + cache_misses + dedup_joins (jobs that
     * attached to an identical in-flight run).
     */
    CounterSet statsSnapshot() const;

    /** Jobs currently scheduling (in-flight dedup map occupancy). */
    std::size_t inflightDepth() const;

    /**
     * Append the pipeline's occupancy telemetry as leading-comma JSON
     * fields — `,"shards":[{"path":..,"bytes":..,"records":..,
     * "owned":..},...],"shard_bytes":..,"shard_records":..,
     * "context_entries":..,"dedup_inflight":..` — the shape the
     * telemetry sampler's extras closure and the server's watch
     * frames both emit. Safe to call concurrently with workers.
     */
    void writeTelemetryJson(std::ostream &os) const;

    unsigned numThreads() const { return pool_.size(); }

  private:
    using Clock = std::chrono::steady_clock;
    /**
     * One in-flight scheduling run: its leader's published result, the
     * completions of the unarmed joiners attached to it, and the
     * condition variable armed joiners wait on.
     */
    struct InFlightJob;
    /** An unarmed joiner's completion, attached to an InFlightJob. */
    struct Joiner;

    /** Both submit()s: hash on the worker when @p key is empty. */
    bool enqueue(ScheduleJob job, std::optional<std::uint64_t> key,
                 Completion done);
    /**
     * Probe, coalesce or schedule one job whose content key is @p key
     * (@p reprobe when the caller's probe already counted a miss), and
     * pass its result to @p done exactly once: at once on a hit or for
     * a leader, later for a joiner. @p job must live until @p done has
     * run: run()'s jobs outlive waitIdle(), and submit()'s completion
     * owns its job.
     */
    void runOne(const ScheduleJob &job, std::uint64_t key, bool reprobe,
                Completion done);
    /** Schedule (no cache probe), via the shared analysis cache. */
    JobResult scheduleOne(const ScheduleJob &job);
    /**
     * Schedule @p job, cache its result unless cancelled, publish it
     * to @p flight (null when dedup is off, or for a joiner whose
     * leader was cancelled), then complete @p job and every joiner
     * attached to the flight, on this worker and after releasing every
     * lock. A cancelled result completes no joiner: each schedules for
     * itself, as its own pool task.
     */
    void lead(const ScheduleJob &job, std::uint64_t key,
              const std::shared_ptr<InFlightJob> &flight,
              const Completion &done);
    /**
     * Coalesce with the run in @p flight. An unarmed job whose leader
     * has not published attaches its completion to the flight and
     * returns, freeing its worker for the next task. An armed job
     * (ScheduleJob::abortFlag) waits on its worker, polling its flag,
     * because only a waiting thread can answer at its own deadline.
     */
    void joinInFlight(const ScheduleJob &job, std::uint64_t key,
                      InFlightJob &flight, Completion done);
    /** Complete a joiner with its leader's uncancelled result @p led;
     *  its wall time is its wait since @p since. */
    void completeJoin(const JobResult &led, Clock::time_point since,
                      const Completion &done);
    /** The counter bumps of a job this pipeline scheduled itself. */
    void countScheduled(const JobResult &result);

    // Workers touch the caches and stats_ until the pools join, so
    // all must be declared before the pools (destroyed after them).
    PersistentScheduleCache cache_;
    ContextCache contextCache_;
    bool shareContexts_;
    bool dedupInFlight_;
    SharedCounterSet stats_;
    mutable std::mutex inflightMutex_;
    /** Content key -> the run in flight for it (leader-owned). */
    std::unordered_map<std::uint64_t, std::shared_ptr<InFlightJob>>
        inflight_;
    ThreadPool pool_;
    /** Dedicated II-search workers (null when iiSearchWorkers == 0). */
    std::unique_ptr<ThreadPool> iiPool_;
};

} // namespace cs

#endif // CS_PIPELINE_PIPELINE_HPP
