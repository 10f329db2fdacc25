/**
 * @file
 * Self-contained scheduling jobs: one (kernel, block, machine,
 * options) compile request, runnable on any thread, producing a
 * JobResult that carries the schedule, the independent verifier's
 * status, the scheduler's counter snapshot, and wall time.
 *
 * Jobs are deliberately closed over everything they need — the
 * scheduler entry points in core/ are const-safe and reentrant, the
 * kernel travels by value, and the machine is an immutable
 * description — so running N jobs concurrently yields byte-identical
 * schedules to running them serially.
 *
 * scheduleJobKey() is the content address used by the ScheduleCache:
 * an FNV-1a hash over the kernel's dataflow (the DDG-relevant fields:
 * opcodes, operand wiring, loop-carried distances, alias classes,
 * stream strides), the machine description (units, files, buses,
 * latencies, and the full stub connectivity), and every
 * SchedulerOptions knob plus the job mode. Debug names are excluded:
 * two kernels with the same dataflow schedule identically.
 */

#ifndef CS_PIPELINE_JOB_HPP
#define CS_PIPELINE_JOB_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/comm_scheduler.hpp"
#include "core/modulo_scheduler.hpp"
#include "ir/kernel.hpp"
#include "machine/machine.hpp"
#include "pipeline/ii_search.hpp"

namespace cs {

/** One scheduling compile request. */
struct ScheduleJob
{
    /** Display label, e.g. "FIR-FP@Distributed" (not hashed). */
    std::string label;
    /** Scheduled kernel; travels by value so jobs share nothing. */
    Kernel kernel{"unset"};
    BlockId block{0};
    /**
     * Target machine. Not owned: the caller keeps it alive for the
     * duration of the batch (machine descriptions are immutable and
     * safely shared across concurrent jobs).
     */
    const Machine *machine = nullptr;
    SchedulerOptions options;
    /** Modulo-schedule the block (else a plain block schedule). */
    bool pipelined = true;
    /** II search slack past MII (pipelined jobs only). */
    int maxIiSlack = 64;
    /**
     * Cooperative cancellation (deadlines, dropped clients): when the
     * flag becomes true the job unwinds at the scheduler's budget
     * checkpoints and returns with cancelled = true. Armed but never
     * raised, results stay byte-identical to an unarmed run. Not owned;
     * must outlive the job. Not hashed: cancellation is an execution
     * concern, not part of the job's content address.
     */
    const std::atomic<bool> *abortFlag = nullptr;
};

/** Outcome of one job. */
struct JobResult
{
    bool success = false;
    /** Served from the schedule cache rather than scheduled anew. */
    bool cacheHit = false;
    /** Achieved initiation interval; 0 for plain block schedules. */
    int ii = 0;
    /** II lower bounds and attempts (pipelined jobs only). */
    int resMii = 0;
    int recMii = 0;
    /**
     * (II, variant) attempts launched / launched-but-discarded by the
     * II search — PipelineResult::attempts / attemptsWasted. Cached
     * entries replay the numbers of the run that populated the cache,
     * so a hit may report speculative attempts even when the current
     * pipeline searches serially.
     */
    int iiAttempts = 0;
    int iiAttemptsWasted = 0;
    /** Schedule length in cycles (0 when !success). */
    int length = 0;
    /** Copy operations the scheduler inserted. */
    int copiesInserted = 0;
    /**
     * The schedule itself (kernel with copies, placements, routes) and
     * the scheduler's counters, for a result scheduled in this process
     * (memory-tier hits included). A disk-tier hit keeps only success,
     * cancelled and failure here; its kernel, schedule and counters
     * are empty (pipeline/result_io.hpp).
     */
    ScheduleResult sched;
    /** Violations from the independent validator (empty = verified). */
    std::vector<std::string> verifierErrors;
    /**
     * Canonical VLIW listing of the schedule (empty when !success).
     * Byte-comparing listings is the determinism check used by tests.
     */
    std::string listing;
    /** Wall time this job took (cache lookups included). */
    double wallMs = 0.0;
    /**
     * The job was cut short by its abort flag (ScheduleJob::abortFlag).
     * Implies !success; cancelled results are never cached.
     */
    bool cancelled = false;
};

/**
 * Run one job to completion on the calling thread: schedule, verify,
 * snapshot stats, render the canonical listing. Reentrant; touches no
 * shared mutable state.
 */
JobResult runScheduleJob(const ScheduleJob &job);

/**
 * Same, but pipelined jobs run the speculative parallel II search on
 * @p iiSearch's worker budget (serial when its pool is null). The
 * schedule, listing, and achieved II are byte-identical either way —
 * only wall time and the attempt accounting differ. @p iiSearch.pool
 * must not be the pool the caller itself runs on (see IiSearchConfig).
 */
JobResult runScheduleJob(const ScheduleJob &job,
                         const IiSearchConfig &iiSearch);

/**
 * Same, optionally borrowing a shared analysis context (the
 * pipeline's ContextCache). @p sharedContext must have been built for
 * this job's (kernel dataflow, block, machine connectivity) — i.e.
 * acquired under ContextCache::key for these inputs — and must
 * outlive the call; nullptr builds the analysis locally as before.
 * The schedule and listing are byte-identical either way.
 */
JobResult runScheduleJob(const ScheduleJob &job,
                         const IiSearchConfig &iiSearch,
                         const BlockSchedulingContext *sharedContext);

/** @name Content hashing (FNV-1a, 64-bit) */
/// @{

/** Hash the scheduling-relevant content of a kernel (names excluded). */
std::uint64_t hashKernel(const Kernel &kernel, BlockId block);

/** Hash a machine description including full stub connectivity. */
std::uint64_t hashMachine(const Machine &machine);

/** Hash every SchedulerOptions field. */
std::uint64_t hashOptions(const SchedulerOptions &options);

/** The job's content address: kernel x machine x options x mode. */
std::uint64_t scheduleJobKey(const ScheduleJob &job);
/// @}

} // namespace cs

#endif // CS_PIPELINE_JOB_HPP
