/**
 * @file
 * Shared plumbing for the csbench workloads: the run configuration,
 * the metric sink that becomes the result line, sample statistics
 * that carry their sample counts, the in-memory span log of the traced
 * run, the environment stamp, and the output checks every workload
 * applies (validator + simulator against the scalar reference).
 */

#ifndef CSBENCH_COMMON_HPP
#define CSBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "kernels/kernels.hpp"
#include "machine/machine.hpp"
#include "pipeline/job.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"

namespace csbench {

using Clock = std::chrono::steady_clock;

/** Seconds / milliseconds / microseconds between two clock points. */
double secondsBetween(Clock::time_point a, Clock::time_point b);
double msBetween(Clock::time_point a, Clock::time_point b);
double usBetween(Clock::time_point a, Clock::time_point b);

/** Set-up repetitions per run; setup_s reports their median. */
inline constexpr int kSetupRepetitions = 3;

/** Command-line configuration of one run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans (JSON lines). */
    std::string traceOut;
    /** Scratch directory for sockets and cache shards. */
    std::string workDir = ".bench_build/work";
    /** Source identity (git sha or tree hash) supplied by run.py. */
    std::string sourceId = "unknown";
    /** Process start, the origin of the first set-up timing. */
    Clock::time_point processStart;
};

/** Hardware threads (at least 1). */
unsigned hardwareThreads();

/**
 * The machine's CPU time so far, from the first line of /proc/stat, in
 * clock ticks: the time its CPUs were busy or wanted to be, and the part
 * of it stolen, i.e. the time a hypervisor ran something else while
 * this VM's CPUs were ready to run.
 */
struct CpuTicks
{
    std::uint64_t busy = 0; ///< all but idle and iowait, steal included
    std::uint64_t steal = 0;
    static CpuTicks now();
};

/** Share of the busy time between @p a and @p b that was stolen; 0
 *  when no tick passed. */
double stealShare(const CpuTicks &a, const CpuTicks &b);

/**
 * A measured interval (a pass, a batch, a window of requests) is quiet
 * when at most this share of its busy CPU time was stolen. On a shared
 * 4-vCPU VM steal came in bursts of minutes, during which it took 20-75%
 * of the busy time, cut the closed-loop request rate by 3x and moved the
 * run medians of compile by 30%; outside them it stays near 0.
 */
inline constexpr double kQuietStealShare = 0.05;

/**
 * Indices of the intervals whose steal share is at most
 * kQuietStealShare, or of every interval, with @p *fellBack set, when
 * fewer than @p minimum are quiet.
 */
std::vector<std::size_t> quietIntervals(const std::vector<double> &steal,
                                        std::size_t minimum,
                                        bool *fellBack);

/** Peak resident set of this process, in MB. */
double peakRssMb();

/**
 * The result line: metrics by name with units, plus the operation
 * tallies. Failed operations are counted with a one-line reason each
 * (the first few are printed).
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    void fail(const std::string &why);
    /** A benchmark-level check that is not an operation (e.g. a
     *  sampling rule or latency limit); makes the run incorrect. */
    void checkFailed(const std::string &why);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** Digest of the run's listings, printed so two runs (traced and
     *  untraced) can be compared byte for byte. */
    void listings(const std::vector<std::string> &listings);

    /** Human-readable table of every metric (stdout). */
    void printTable(const std::string &title) const;
    /** The final JSON line. */
    std::string resultJson() const;

  private:
    struct Value
    {
        double value;
        std::string unit;
    };
    std::map<std::string, Value> metrics_;
    std::vector<std::string> order_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
    std::vector<std::string> checkFailures_;
    std::string listingsDigest_;
};

/** @name Sample statistics */
/// @{
double median(std::vector<double> values);
/** Unlike cs::geometricMean, which asserts on a zero, this lets a failed
 *  job's 0 through as a non-finite metric that Report flags, so the run
 *  still prints a result marked incorrect instead of aborting. */
double geomean(const std::vector<double> &values);
/** The values at @p indices. */
std::vector<double> pick(const std::vector<double> &values,
                         const std::vector<std::size_t> &indices);
/** q-quantile by nearest rank on a sorted copy. */
double quantile(std::vector<double> values, double q);

/**
 * A percentile with its sample count. The quantile actually reported
 * is min(q, 1 - 10/n), so at least ten samples always lie beyond it;
 * supported() says whether the requested q itself was reachable.
 */
struct Percentile
{
    double value = 0.0;
    double requestedQ = 0.0;
    double reportedQ = 0.0;
    std::size_t samples = 0;
    bool supported() const { return reportedQ >= requestedQ; }
    /** "p99=1.234 ms (n=5000)" style label. */
    std::string label(const std::string &unit, int digits = 3) const;
};
Percentile percentile(const std::vector<double> &values, double q);
/// @}

/**
 * In-memory span log for the traced run. Spans are recorded from the
 * benchmark's own code around calls into the program's layers; the
 * program's own tracer stays off. Thread-safe.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0.0;
        double endUs = 0.0;
        int parent = -1;
        std::uint64_t id = 0;
    };

    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    /** Record a finished span; returns its index. */
    int add(const std::string &name, Clock::time_point start,
            Clock::time_point end, int parent, std::uint64_t id);
    /** Open a span whose end is not known yet; close() fills it. */
    int open(const std::string &name, Clock::time_point start,
             int parent, std::uint64_t id);
    /** Extend an open span to at least @p end. Two threads may each
     *  close one span; it ends at the later of their times. */
    void close(int index, Clock::time_point end);

    /** Self time per span index: duration minus the union of its
     *  children's intervals. */
    std::vector<double> selfTimesUs() const;

    /** Self-time totals and counts per span name, over roots named
     *  @p rootName and their subtrees. */
    struct NameTotals
    {
        double selfUs = 0.0;
        double totalUs = 0.0;
        std::size_t count = 0;
    };
    std::map<std::string, NameTotals>
    totalsUnder(const std::string &rootName) const;

    /** Durations (us) of every span named @p name. */
    std::vector<double> durationsUs(const std::string &name) const;
    /** Self times (us) of every span named @p name. */
    std::vector<double> selfUs(const std::string &name) const;

    /** Check nesting and self-time consistency; empty = consistent. */
    std::vector<std::string> verify() const;

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

    std::size_t size() const;

  private:
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * The end-to-end metrics. Every workload prints all of them, each for
 * the unit of work its user waits on: one kernel (compile), one sweep
 * job (sweep), one request (serve).
 */
struct EndToEnd
{
    /** Median of the set-up repetitions. */
    double setupS = 0.0;
    /** Median-based wait for one unit of work. */
    double latencyMs = 0.0;
    /** Units of work completed per second. */
    double throughputPerS = 0.0;
    /** Geomean of achieved II (modulo) or block length over the
     *  workload's distinct schedules. */
    double cyclesGeomean = 0.0;
    /** Copy operations left in those schedules. */
    double copies = 0.0;
};

/** Report @p e and the process's peak RSS. */
void reportEndToEnd(Report &report, const EndToEnd &e);

/** Sums of the scheduler's work counters over a set of results. */
struct CoreCounts
{
    std::uint64_t dfsNodes = 0;
    std::uint64_t placementAttempts = 0;
    std::uint64_t probes = 0;   ///< probe_reads + probe_writes
    std::uint64_t tableOps = 0; ///< table_acquires + table_releases
    std::uint64_t permBacktracks = 0;
    std::uint64_t permBudgetExhausted = 0;
    std::uint64_t copiesInserted = 0;
    std::uint64_t copiesUnwound = 0;
    std::uint64_t iiAttempts = 0;
    std::uint64_t iiWasted = 0;
    std::uint64_t iiCancelLatencyUs = 0;

    /** Add one ScheduleResult.stats (or a merged pipeline snapshot). */
    void add(const cs::CounterSet &stats);
};

/** The core.* and pipeline.ii_* per-layer metrics. */
void reportCoreCounts(Report &report, const CoreCounts &counts);

/** @name Output checks */
/// @{
/**
 * Validate @p result (which must be a success) and simulate it against
 * the kernel's scalar reference. Empty = correct.
 */
std::string checkSchedule(const cs::KernelSpec &spec,
                          const cs::Machine &machine,
                          const cs::JobResult &result);
/// @}

/** FNV-1a over a sequence of 64-bit keys (input identity). */
std::uint64_t hashKeys(std::vector<std::uint64_t> keys);

/** Print the environment stamp line ({"env": {...}}). */
void printEnvironment(const RunConfig &config,
                      const std::string &inputsHash,
                      std::size_t inputCount);

/** Hex string of a 64-bit value. */
std::string hex64(std::uint64_t v);

/** 0..n-1 shuffled by @p rng. */
std::vector<std::size_t> shuffledIndices(std::size_t n, cs::Rng &rng);

/** The paper's four evaluation machines with short names. */
struct NamedMachine
{
    std::string name;
    cs::Machine machine;
};
std::vector<NamedMachine> evaluationMachines();

/** @name Workload entry points; each returns the process exit code. */
/// @{
int runCompile(const RunConfig &config);
int runSweep(const RunConfig &config);
int runServe(const RunConfig &config);
/// @}

/** Print the table, the result line, and pick the exit code (1 when
 *  no operation completed). */
int finish(const RunConfig &config, const Report &report);

} // namespace csbench

#endif // CSBENCH_COMMON_HPP
