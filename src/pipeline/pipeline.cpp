#include "pipeline/pipeline.hpp"

#include <chrono>
#include <condition_variable>
#include <ostream>
#include <thread>
#include <utility>

#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace cs {

struct SchedulingPipeline::Joiner
{
    /** Kept alive by done (submit) or by run()'s caller: a cancelled
     *  leader's joiner schedules it for itself. */
    const ScheduleJob *job;
    /** When the joiner attached: its wall time is its wait. */
    Clock::time_point since;
    Completion done;
};

/**
 * Rendezvous for duplicate in-flight jobs: the leader schedules and
 * publishes its shared result here. An unarmed joiner leaves a Joiner
 * that the leader completes after publishing; an armed joiner blocks
 * on the condition variable, then copies the result out after
 * releasing the lock. Held by shared_ptr so a leader that finishes
 * after its key was already re-inserted (or the map cleared) still has
 * a live object to publish into.
 */
struct SchedulingPipeline::InFlightJob
{
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const JobResult> result;
    std::vector<Joiner> joiners;
};

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** A cached result as runOne() returns a hit: the caller's own copy,
 *  marked as a hit and timed from @p start. */
JobResult
copyHit(const JobResult &cached, Clock::time_point start)
{
    JobResult out = cached;
    out.cacheHit = true;
    out.wallMs = msSince(start);
    return out;
}

unsigned
resolveThreads(unsigned requested)
{
    if (requested > 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace

unsigned
PipelineConfig::resolvedIiWorkers(unsigned requested)
{
    if (requested != kAutoIiWorkers)
        return requested;
    // Auto: speculation needs spare cores to run attempts on; a
    // single-core host only pays cancellation overhead, so it keeps
    // the serial sweep.
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw : 0;
}

SchedulingPipeline::SchedulingPipeline(const PipelineConfig &config)
    : cache_(config.cacheCapacity, config.cacheDirectory,
             config.cacheShards, config.ownershipRetryMs),
      contextCache_(config.contextCacheCapacity),
      shareContexts_(config.contextCacheCapacity != 0),
      dedupInFlight_(config.dedupInFlight),
      pool_(resolveThreads(config.numThreads))
{
    unsigned iiWorkers =
        PipelineConfig::resolvedIiWorkers(config.iiSearchWorkers);
    if (iiWorkers > 0)
        iiPool_ = std::make_unique<ThreadPool>(iiWorkers);
}

std::vector<JobResult>
SchedulingPipeline::run(const std::vector<ScheduleJob> &jobs)
{
    std::vector<JobResult> results(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        bool accepted = pool_.submit([this, &jobs, &results, i] {
            runOne(jobs[i], scheduleJobKey(jobs[i]), false,
                   [&results, i](JobResult result) {
                       results[i] = std::move(result);
                   });
        });
        CS_ASSERT(accepted, "pipeline pool rejected a job");
    }
    // A joiner's completion runs inside its leader's task, so this
    // also waits for every result.
    pool_.waitIdle();
    return results;
}

bool
SchedulingPipeline::submit(ScheduleJob job, Completion done)
{
    return enqueue(std::move(job), std::nullopt, std::move(done));
}

bool
SchedulingPipeline::submit(ScheduleJob job, std::uint64_t key,
                           Completion done)
{
    return enqueue(std::move(job), key, std::move(done));
}

bool
SchedulingPipeline::enqueue(ScheduleJob job,
                            std::optional<std::uint64_t> key,
                            Completion done)
{
    // A joiner's completion outlives this task (its leader runs it),
    // so the completion owns the job.
    auto owned = std::make_shared<const ScheduleJob>(std::move(job));
    Completion owning = [owned, done = std::move(done)](JobResult r) {
        done(std::move(r));
    };
    return pool_.submit(
        [this, owned, key, owning = std::move(owning)]() mutable {
            runOne(*owned, key ? *key : scheduleJobKey(*owned),
                   key.has_value(), std::move(owning));
        });
}

std::shared_ptr<const JobResult>
SchedulingPipeline::probeCached(std::uint64_t key, bool countMiss)
{
    std::shared_ptr<const JobResult> cached = cache_.lookup(key, countMiss);
    if (cached == nullptr)
        return nullptr;
    CS_TRACE_INSTANT1("cache_probe", "hit", 1);
    stats_.bump(counter("pipeline.jobs"));
    stats_.bump(counter("pipeline.cache_hits"));
    if (!cached->success)
        stats_.bump(counter("pipeline.failures"));
    return cached;
}

std::optional<JobResult>
SchedulingPipeline::lookupCached(const ScheduleJob &job)
{
    auto start = Clock::now();
    std::shared_ptr<const JobResult> cached =
        probeCached(scheduleJobKey(job));
    if (cached == nullptr)
        return std::nullopt;
    return copyHit(*cached, start);
}

JobResult
SchedulingPipeline::scheduleOne(const ScheduleJob &job)
{
    IiSearchConfig ii_search;
    ii_search.pool = iiPool_.get();
    // Borrow the shared analysis when sharing is on: jobs that pair
    // the same kernel dataflow with the same machine shape (a sweep's
    // option variants, repeat traffic) skip DDG/serviceability-table
    // construction. The shared_ptr keeps the entry alive past any
    // eviction for the duration of the run.
    std::shared_ptr<const SharedBlockContext> shared;
    if (shareContexts_)
        shared = contextCache_.acquire(job.kernel, job.block,
                                       *job.machine);
    return runScheduleJob(job, ii_search,
                          shared != nullptr ? &shared->context()
                                            : nullptr);
}

void
SchedulingPipeline::countScheduled(const JobResult &result)
{
    stats_.bump(counter("pipeline.jobs"));
    stats_.bump(counter("pipeline.cache_misses"));
    if (result.cancelled)
        stats_.bump(counter("pipeline.cancelled"));
    if (!result.success)
        stats_.bump(counter("pipeline.failures"));
    if (!result.verifierErrors.empty())
        stats_.bump(counter("pipeline.verifier_rejects"));
    stats_.merge(result.sched.stats);
}

void
SchedulingPipeline::lead(const ScheduleJob &job, std::uint64_t key,
                         const std::shared_ptr<InFlightJob> &flight,
                         const Completion &done)
{
    // One shared result serves the cache, the joiners and our copy.
    auto result = std::make_shared<const JobResult>(scheduleOne(job));
    // A cancelled result reflects the caller's deadline, not the job's
    // content — caching it would serve a stale abort to future callers.
    if (!result->cancelled)
        cache_.insert(key, result);

    std::vector<Joiner> joiners;
    if (flight != nullptr) {
        // Retire the key first so late arrivals start a fresh run (or
        // hit the cache) instead of attaching to a completed flight,
        // then publish: take the attached joiners and wake the armed
        // ones waiting.
        {
            std::lock_guard<std::mutex> lock(inflightMutex_);
            inflight_.erase(key);
        }
        {
            std::lock_guard<std::mutex> lock(flight->mutex);
            flight->result = result;
            flight->done = true;
            joiners.swap(flight->joiners);
        }
        flight->cv.notify_all();
    }

    countScheduled(*result);
    done(*result);
    for (Joiner &joiner : joiners) {
        if (!result->cancelled) {
            completeJoin(*result, joiner.since, joiner.done);
            continue;
        }
        // Only an armed leader is cancelled, by its own deadline; its
        // result says nothing about the joiners. Each schedules for
        // itself as its own task. A pool that is shutting down refuses
        // the task: then it runs here, so no completion is dropped.
        auto retry = [this, key, joiner = std::move(joiner)] {
            lead(*joiner.job, key, nullptr, joiner.done);
        };
        if (!pool_.submit(retry))
            retry();
    }
}

void
SchedulingPipeline::joinInFlight(const ScheduleJob &job,
                                 std::uint64_t key, InFlightJob &flight,
                                 Completion done)
{
    auto start = Clock::now();
    std::shared_ptr<const JobResult> led;
    {
        std::unique_lock<std::mutex> lock(flight.mutex);
        if (!flight.done && job.abortFlag == nullptr) {
            // Attach: the leader completes us after it publishes, and
            // this worker takes the next task meanwhile.
            flight.joiners.push_back({&job, start, std::move(done)});
            return;
        }
        // Armed: wait here, since only a waiting thread can answer at
        // our own deadline. The timed wait only polls the flag.
        while (!flight.done &&
               !job.abortFlag->load(std::memory_order_relaxed))
            flight.cv.wait_for(lock, std::chrono::milliseconds(1));
        led = flight.result;
    }
    if (led == nullptr) {
        // Our deadline, not the leader's: abandon the join.
        JobResult out;
        out.cancelled = true;
        out.wallMs = msSince(start);
        stats_.bump(counter("pipeline.jobs"));
        stats_.bump(counter("pipeline.dedup_joins"));
        stats_.bump(counter("pipeline.cancelled"));
        done(std::move(out));
        return;
    }
    if (led->cancelled) {
        // The leader hit *its* deadline; its result says nothing about
        // ours. Schedule for ourselves (rare: only under cancellation).
        lead(job, key, nullptr, done);
        return;
    }
    completeJoin(*led, start, done);
}

void
SchedulingPipeline::completeJoin(const JobResult &led,
                                 Clock::time_point since,
                                 const Completion &done)
{
    JobResult out = led;
    out.wallMs = msSince(since);
    stats_.bump(counter("pipeline.jobs"));
    stats_.bump(counter("pipeline.dedup_joins"));
    if (!out.success)
        stats_.bump(counter("pipeline.failures"));
    done(std::move(out));
}

void
SchedulingPipeline::runOne(const ScheduleJob &job, std::uint64_t key,
                           bool reprobe, Completion done)
{
    auto start = Clock::now();
    // The hit path *is* the serving fast path: runOne and the
    // reader-thread probe in serve/server.cpp must count and shape
    // hits identically, so both go through probeCached.
    if (auto cached = probeCached(key, !reprobe)) {
        done(copyHit(*cached, start));
        return;
    }
    CS_TRACE_INSTANT1("cache_probe", "hit", 0);

    // Singleflight: concurrent duplicates all miss the cache (the
    // first insert has not landed yet), so the first one in becomes
    // the leader and the rest attach to its result.
    std::shared_ptr<InFlightJob> flight;
    bool leader = true;
    if (dedupInFlight_) {
        std::lock_guard<std::mutex> lock(inflightMutex_);
        auto [it, inserted] = inflight_.try_emplace(key);
        if (inserted)
            it->second = std::make_shared<InFlightJob>();
        flight = it->second;
        leader = inserted;
    }
    if (!leader) {
        CS_TRACE_INSTANT1("dedup_join", "hit", 1);
        joinInFlight(job, key, *flight, std::move(done));
        return;
    }
    lead(job, key, flight, done);
}

CounterSet
SchedulingPipeline::statsSnapshot() const
{
    return stats_.snapshot();
}

std::size_t
SchedulingPipeline::inflightDepth() const
{
    std::lock_guard<std::mutex> lock(inflightMutex_);
    return inflight_.size();
}

void
SchedulingPipeline::writeTelemetryJson(std::ostream &os) const
{
    std::uint64_t totalBytes = 0;
    std::uint64_t totalRecords = 0;
    os << ",\"shards\":[";
    bool first = true;
    for (const auto &info : cache_.shardInfos()) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"path\":";
        writeJsonQuoted(os, info.path);
        os << ",\"bytes\":" << info.bytes
           << ",\"records\":" << info.records << ",\"owned\":"
           << (info.owned ? "true" : "false") << "}";
        totalBytes += info.bytes;
        totalRecords += info.records;
    }
    os << "],\"shard_bytes\":" << totalBytes
       << ",\"shard_records\":" << totalRecords
       << ",\"context_entries\":" << contextCache_.stats().entries
       << ",\"dedup_inflight\":" << inflightDepth();
}

} // namespace cs
