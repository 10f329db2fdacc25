/**
 * @file
 * Modulo-scheduling II-search benchmark: the pipelined Table-1
 * kernels on the evaluation machines, each scheduled three ways:
 *
 *  - "cold":     the reference sweep that rebuilds the per-block
 *                analysis (DDG, MII bounds, priority orders, route and
 *                serviceability tables) inside every (II, variant)
 *                attempt — the scheduler's behaviour before the shared
 *                BlockSchedulingContext existed;
 *  - "serial":   schedulePipelined(), which builds the context once
 *                and lets every attempt borrow it read-only;
 *  - "parallel": schedulePipelinedParallel() with a small dedicated
 *                worker pool running the same attempt sequence
 *                speculatively.
 *
 * All three return identical schedules (tests pin this byte-for-byte);
 * what differs is wall time. cold/serial is the shared-context win and
 * gates in bench/perf_smoke.py; parallel/serial is reported but not
 * gated because CI runs on a single core.
 *
 *   bench_modulo_ii --json [--scaling] [--reps N] [--filter SUBSTR]
 *                   [--all]
 *
 * Default is every kernel on central+clustered2 plus a representative
 * kernel subset on clustered4+distributed (the full cross is minutes
 * of wall time); --all runs the full kernel x machine cross.
 * bench/run_perf.sh wraps this mode to maintain the "modulo_ii"
 * section of BENCH_sched.json.
 *
 * --scaling instead sweeps the speculative search across II worker
 * counts (1/2/4/hardware) under both fixed and adaptive attempt
 * ordering, recording per point the suite median wall time, the
 * attempts wasted (cold vs warm portfolio), and the cancellation
 * count/latency — the "scaling" section of BENCH_sched.json. The
 * recorded hardware_concurrency keeps single-core captures honest:
 * there, every worker count measures overhead, not speedup, and the
 * adaptive win shows up in attempts_wasted rather than wall time.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/modulo_scheduler.hpp"
#include "core/sched_context.hpp"
#include "kernels/kernels.hpp"
#include "machine/builders.hpp"
#include "pipeline/adaptive.hpp"
#include "pipeline/ii_search.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/stats.hpp"

namespace {

using namespace cs;

/**
 * The pre-shared-context sweep: identical attempt sequence to
 * schedulePipelined(), but every attempt pays for its own analysis via
 * the kernel-copy BlockScheduler constructor. The MII bounds are still
 * computed once up front, as the old implementation did.
 */
PipelineResult
coldPipelined(const Kernel &kernel, BlockId block,
              const Machine &machine, const SchedulerOptions &options,
              int maxIiSlack)
{
    PipelineResult result;
    int mii = 0;
    {
        BlockSchedulingContext bounds(kernel, block, machine);
        result.resMii = bounds.resMii();
        result.recMii = bounds.recMii();
        mii = bounds.mii();
    }
    std::vector<SchedulerOptions> variants = iiRetryVariants(options);
    for (int ii = mii; ii <= mii + maxIiSlack; ++ii) {
        for (const SchedulerOptions &variant : variants) {
            ++result.attempts;
            BlockScheduler scheduler(kernel, block, machine, variant,
                                     ii);
            ScheduleResult attempt = scheduler.run();
            if (attempt.success) {
                result.success = true;
                result.ii = ii;
                result.inner = std::move(attempt);
                return result;
            }
        }
    }
    result.inner.failure = "no feasible II within MII + " +
                           std::to_string(maxIiSlack);
    return result;
}

struct JsonEntry
{
    std::string kernel;
    std::string machineName;
    std::string mode; ///< "cold", "serial", or "parallel"
    bool success = false;
    int ii = 0;
    int attempts = 0;
    int attemptsWasted = 0;
    double medianMs = 0.0;
    CounterSet stats; ///< winning attempt's counters (last rep)
};

/** Permutation-search effort of the winning attempt, grouped under
 *  "search" (DESIGN.md section 5d). */
const char *const kSearchCounters[] = {
    "dfs_nodes",
};

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
printJsonEntry(std::ostream &os, const JsonEntry &entry)
{
    os << "    {\"kernel\":\"" << entry.kernel << "\",\"machine\":\""
       << entry.machineName << "\",\"mode\":\"" << entry.mode
       << "\",\"success\":" << (entry.success ? "true" : "false")
       << ",\"ii\":" << entry.ii << ",\"attempts\":" << entry.attempts
       << ",\"attempts_wasted\":" << entry.attemptsWasted
       << ",\"median_ms\":" << entry.medianMs << ",\"search\":";
    writeCounterObject(os, entry.stats, kSearchCounters);
    os << "}";
}

int
runJsonMode(int reps, const std::string &filter, bool all)
{
    setVerboseLogging(false);

    std::vector<std::pair<std::string, Machine>> machines;
    machines.emplace_back("central", makeCentral());
    machines.emplace_back("clustered2", makeClustered({}, 2));
    machines.emplace_back("clustered4", makeClustered({}, 4));
    machines.emplace_back("distributed", makeDistributed());

    // The expensive machines get a representative kernel subset by
    // default; the cheap ones run the whole Table-1 suite.
    const std::vector<std::string> subset = {"FFT", "Block Warp",
                                             "FIR-FP"};
    auto inDefaultSet = [&](const std::string &machineName,
                            const std::string &kernelName) {
        if (all || machineName == "central" ||
            machineName == "clustered2")
            return true;
        return std::find(subset.begin(), subset.end(), kernelName) !=
               subset.end();
    };

    // One small pool for every parallel entry; pool construction is
    // not part of the search cost being measured.
    ThreadPool pool(2);
    IiSearchConfig parallelConfig;
    parallelConfig.pool = &pool;
    parallelConfig.maxInFlight = 3;

    std::vector<JsonEntry> entries;
    for (const auto &[machineName, machine] : machines) {
        for (const KernelSpec &spec : allKernels()) {
            if (!inDefaultSet(machineName, spec.name))
                continue;
            Kernel kernel = spec.build();
            const char *const modes[] = {"cold", "serial", "parallel"};
            std::vector<JsonEntry> modeEntries;
            std::vector<std::vector<double>> modeTimes(3);
            for (const char *mode : modes) {
                JsonEntry entry;
                entry.kernel = spec.name;
                entry.machineName = machineName;
                entry.mode = mode;
                modeEntries.push_back(std::move(entry));
            }
            // Interleave repetitions across the modes (rep 0 of all
            // three, then rep 1, ...) so slow drift in machine load
            // lands on every mode instead of biasing one of them —
            // the per-entry ratios are what the smoke gate consumes.
            for (int r = 0; r < reps; ++r) {
                for (std::size_t m = 0; m < 3; ++m) {
                    JsonEntry &entry = modeEntries[m];
                    std::string label = entry.kernel + "@" +
                                        entry.machineName + "#" +
                                        entry.mode;
                    if (!filter.empty() &&
                        label.find(filter) == std::string::npos)
                        continue;
                    auto start = std::chrono::steady_clock::now();
                    PipelineResult result;
                    if (m == 0) {
                        result = coldPipelined(kernel, BlockId(0),
                                               machine, {}, 64);
                    } else if (m == 1) {
                        result = schedulePipelined(kernel, BlockId(0),
                                                   machine, {}, 64);
                    } else {
                        result = schedulePipelinedParallel(
                            kernel, BlockId(0), machine, {}, 64,
                            parallelConfig);
                    }
                    auto end = std::chrono::steady_clock::now();
                    modeTimes[m].push_back(
                        std::chrono::duration<double, std::milli>(
                            end - start)
                            .count());
                    entry.success = result.success;
                    entry.ii = result.ii;
                    entry.attempts = result.attempts;
                    entry.attemptsWasted = result.attemptsWasted;
                    if (r == reps - 1)
                        entry.stats = result.inner.stats;
                }
            }
            for (std::size_t m = 0; m < 3; ++m) {
                if (modeTimes[m].empty())
                    continue;
                JsonEntry &entry = modeEntries[m];
                entry.medianMs = median(modeTimes[m]);
                std::cerr << "  " << entry.kernel << "@"
                          << entry.machineName << "#" << entry.mode
                          << ": " << entry.medianMs << " ms (ii "
                          << entry.ii << ", " << entry.attempts
                          << " attempt(s))\n";
                entries.push_back(std::move(entry));
            }
        }
    }

    std::cout << "{\n  \"schema\": \"cs-modulo-ii-v1\",\n  \"reps\": "
              << reps << ",\n  \"entries\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        printJsonEntry(std::cout, entries[i]);
        std::cout << (i + 1 < entries.size() ? ",\n" : "\n");
    }
    std::cout << "  ]\n}\n";
    return 0;
}

/**
 * One measured (workers x attempt-order) cell of the scaling sweep:
 * the full cheap-machine Table-1 suite, pipelined, through one II
 * worker pool. attemptsWasted and cancellation latency are the two
 * signals the multi-core story stands on: speculation that scales is
 * speculation whose wasted work stays bounded and whose losers die
 * fast once a winner commits.
 */
struct ScalingPoint
{
    unsigned workers = 0;
    bool adaptive = false;
    double medianMs = 0.0;
    std::uint64_t attempts = 0;
    std::uint64_t attemptsWasted = 0;
    /** Wasted attempts on the first repetition (cold portfolio) and
     *  the last (warm): the adaptive win is the gap between them. */
    std::uint64_t wastedColdRep = 0;
    std::uint64_t wastedWarmRep = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t cancelLatencyUs = 0;
    std::uint64_t serialInline = 0;
};

int
runScalingMode(int reps)
{
    setVerboseLogging(false);

    std::vector<std::pair<std::string, Machine>> machines;
    machines.emplace_back("central", makeCentral());
    machines.emplace_back("clustered2", makeClustered({}, 2));

    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<unsigned> workerCounts = {1, 2, 4};
    if (std::find(workerCounts.begin(), workerCounts.end(), hw) ==
        workerCounts.end())
        workerCounts.push_back(hw);

    std::vector<ScalingPoint> points;
    for (unsigned workers : workerCounts) {
        for (bool adaptive : {false, true}) {
            ScalingPoint point;
            point.workers = workers;
            point.adaptive = adaptive;

            // Each cell gets a cold portfolio so no cell rides the
            // learning of an earlier one; within the cell, repetitions
            // warm it — exactly the cross-job reuse being measured.
            PortfolioStats::global().clear();
            ThreadPool pool(workers);
            IiSearchConfig config;
            config.pool = &pool;
            config.maxInFlight = static_cast<int>(workers) + 1;
            SchedulerOptions options;
            options.adaptiveOrdering = adaptive;

            std::vector<double> repMs;
            for (int r = 0; r < reps; ++r) {
                std::uint64_t repWasted = 0;
                std::uint64_t repAttempts = 0;
                std::uint64_t repCancelled = 0;
                std::uint64_t repCancelUs = 0;
                std::uint64_t repSerialInline = 0;
                auto start = std::chrono::steady_clock::now();
                for (const auto &[machineName, machine] : machines) {
                    for (const KernelSpec &spec : allKernels()) {
                        Kernel kernel = spec.build();
                        PipelineResult result =
                            schedulePipelinedParallel(
                                kernel, BlockId(0), machine, options,
                                64, config);
                        CS_ASSERT(result.success, "scaling suite job ",
                                  spec.name, "@", machineName,
                                  " failed");
                        repAttempts += static_cast<std::uint64_t>(
                            result.attempts);
                        repWasted += static_cast<std::uint64_t>(
                            result.attemptsWasted);
                        const CounterSet &stats = result.inner.stats;
                        repCancelled +=
                            stats.get("ii_search.attempts_cancelled");
                        repCancelUs +=
                            stats.get("ii_search.cancel_latency_us");
                        repSerialInline +=
                            stats.get("ii_search.serial_inline");
                    }
                }
                auto end = std::chrono::steady_clock::now();
                repMs.push_back(
                    std::chrono::duration<double, std::milli>(end -
                                                              start)
                        .count());
                if (r == 0)
                    point.wastedColdRep = repWasted;
                point.wastedWarmRep = repWasted;
                point.attempts = repAttempts;
                point.attemptsWasted = repWasted;
                point.cancelled = repCancelled;
                point.cancelLatencyUs = repCancelUs;
                point.serialInline = repSerialInline;
            }
            point.medianMs = median(repMs);
            std::cerr << "  scaling " << workers << "w "
                      << (adaptive ? "adaptive" : "fixed") << ": "
                      << point.medianMs << " ms, wasted cold "
                      << point.wastedColdRep << " -> warm "
                      << point.wastedWarmRep << "\n";
            points.push_back(point);
        }
    }
    PortfolioStats::global().clear();

    std::cout << "{\n  \"schema\": \"cs-ii-scaling-v1\",\n  \"reps\": "
              << reps << ",\n  \"hardware_concurrency\": " << hw
              << ",\n  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ScalingPoint &p = points[i];
        std::cout << "    {\"workers\":" << p.workers
                  << ",\"order\":\""
                  << (p.adaptive ? "adaptive" : "fixed")
                  << "\",\"median_ms\":" << p.medianMs
                  << ",\"attempts\":" << p.attempts
                  << ",\"attempts_wasted\":" << p.attemptsWasted
                  << ",\"attempts_wasted_cold\":" << p.wastedColdRep
                  << ",\"attempts_wasted_warm\":" << p.wastedWarmRep
                  << ",\"attempts_cancelled\":" << p.cancelled
                  << ",\"cancel_latency_us\":" << p.cancelLatencyUs
                  << ",\"serial_inline\":" << p.serialInline << "}"
                  << (i + 1 < points.size() ? ",\n" : "\n");
    }
    std::cout << "  ]\n}\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    bool all = false;
    bool scaling = false;
    int reps = 3;
    std::string filter;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (std::strcmp(argv[i], "--all") == 0) {
            all = true;
        } else if (std::strcmp(argv[i], "--scaling") == 0) {
            scaling = true;
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--filter") == 0 &&
                   i + 1 < argc) {
            filter = argv[++i];
        } else {
            std::cerr << "usage: bench_modulo_ii --json [--scaling] "
                         "[--reps N] [--filter SUBSTR] [--all]\n";
            return 2;
        }
    }
    if (!json || reps < 1) {
        std::cerr << "usage: bench_modulo_ii --json [--scaling] "
                     "[--reps N] [--filter SUBSTR] [--all]\n";
        return 2;
    }
    if (scaling)
        return runScalingMode(reps);
    return runJsonMode(reps, filter, all);
}
