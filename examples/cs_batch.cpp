/**
 * @file
 * Batch front-end for the scheduling pipeline: compiles the full
 * Table-1 kernel suite across a sweep of machine configurations in
 * one invocation, fanning the (kernel x machine) jobs across a
 * thread pool with a shared content-addressed schedule cache, then
 * prints a summary table and a JSON stats line.
 *
 *   cs_batch [--threads N] [--repeat R] [--cache N] [--plain]
 *            [--ii-workers N] [--jobs FILE] [--cache-dir DIR]
 *            [--trace=FILE] [--metrics=FILE] [--telemetry=FILE]
 *            [--telemetry-interval-ms N] [--help]
 *
 *   --threads N     worker threads (default: hardware concurrency)
 *   --repeat R      submit the whole batch R times (default 1); repeats
 *                   exercise the warm cache
 *   --cache N       schedule-cache capacity in entries (default 1024)
 *   --plain         plain block schedules instead of software pipelining
 *   --ii-workers N  dedicated workers for the speculative parallel II
 *                   search of pipelined jobs (default 0 = serial sweep;
 *                   schedules are byte-identical either way); "auto"
 *                   sizes to the hardware — one worker per hardware
 *                   thread on multi-core hosts, serial on one core
 *   --jobs FILE     schedule the jobset description in FILE (the text
 *                   format of serve/proto.hpp) instead of the built-in
 *                   Table-1 x 4-machine matrix; the same files drive
 *                   cs_client, so batch and served runs are comparable
 *                   byte for byte
 *   --cache-dir DIR persistent schedule-cache directory: results
 *                   survive restarts and reload warm (disk tier of
 *                   pipeline/persistent_cache.hpp)
 *   --trace=FILE    enable the span tracer and write a Chrome
 *                   trace_event JSON file (load in chrome://tracing or
 *                   Perfetto) covering the whole batch
 *   --metrics=FILE  write the unified metrics registry as JSON:
 *                   counters plus the batch.round and job.wall
 *                   streaming histograms (microseconds)
 *   --telemetry=FILE
 *                   run the time-series sampler for the duration of
 *                   the batch: one JSONL snapshot per interval
 *                   (pipeline counters + deltas, RSS, shard sizes,
 *                   cache occupancy — support/telemetry.hpp)
 *   --telemetry-interval-ms N
 *                   sample period (default 250)
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "kernels/kernels.hpp"
#include "machine/builders.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/proto.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace {

struct Args
{
    unsigned threads = 0; // 0 = hardware concurrency
    int repeat = 1;
    std::size_t cacheCapacity = 1024;
    bool pipelined = true;
    unsigned iiWorkers = 0; // 0 = serial II sweep
    std::string traceFile;
    std::string metricsFile;
    std::string telemetryFile;
    unsigned telemetryIntervalMs = 250;
    std::string jobsFile;
    std::string dumpJobsFile;
    std::string cacheDir;
    bool help = false;
};

const char *const kUsage =
    "usage: cs_batch [--threads N] [--repeat R] [--cache N] [--plain]\n"
    "                [--ii-workers N] [--jobs FILE] [--dump-jobs FILE]\n"
    "                [--cache-dir DIR] [--trace=FILE] [--metrics=FILE]\n"
    "                [--telemetry=FILE] [--telemetry-interval-ms N]\n"
    "                [--help]\n";

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto intValue = [&](const char *flag) {
            if (i + 1 >= argc)
                CS_FATAL(flag, " needs a value");
            return std::atoi(argv[++i]);
        };
        // --flag=VALUE or --flag VALUE, for the file-taking flags.
        auto strValue = [&](const char *flag,
                            const std::string &inline_value) {
            if (!inline_value.empty())
                return inline_value;
            if (i + 1 >= argc)
                CS_FATAL(flag, " needs a value");
            return std::string(argv[++i]);
        };
        std::string inlineValue;
        std::size_t eq = arg.find('=');
        if (eq != std::string::npos && arg.rfind("--", 0) == 0) {
            inlineValue = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        }
        if (arg == "--threads") {
            args.threads = static_cast<unsigned>(intValue("--threads"));
        } else if (arg == "--repeat") {
            args.repeat = intValue("--repeat");
        } else if (arg == "--cache") {
            args.cacheCapacity =
                static_cast<std::size_t>(intValue("--cache"));
        } else if (arg == "--plain") {
            args.pipelined = false;
        } else if (arg == "--ii-workers") {
            if (!inlineValue.empty() ? inlineValue == "auto"
                                     : (i + 1 < argc &&
                                        std::string(argv[i + 1]) ==
                                            "auto")) {
                if (inlineValue.empty())
                    ++i;
                args.iiWorkers = cs::PipelineConfig::kAutoIiWorkers;
            } else {
                args.iiWorkers =
                    static_cast<unsigned>(intValue("--ii-workers"));
            }
        } else if (arg == "--trace") {
            args.traceFile = strValue("--trace", inlineValue);
        } else if (arg == "--metrics") {
            args.metricsFile = strValue("--metrics", inlineValue);
        } else if (arg == "--telemetry") {
            args.telemetryFile = strValue("--telemetry", inlineValue);
        } else if (arg == "--telemetry-interval-ms") {
            args.telemetryIntervalMs = static_cast<unsigned>(
                intValue("--telemetry-interval-ms"));
        } else if (arg == "--jobs") {
            args.jobsFile = strValue("--jobs", inlineValue);
        } else if (arg == "--dump-jobs") {
            args.dumpJobsFile = strValue("--dump-jobs", inlineValue);
        } else if (arg == "--cache-dir") {
            args.cacheDir = strValue("--cache-dir", inlineValue);
        } else if (arg == "--help" || arg == "-h") {
            args.help = true;
        } else {
            CS_FATAL("unknown argument '", arg, "'");
        }
    }
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cs;
    setVerboseLogging(false);
    Args args;
    try {
        args = parseArgs(argc, argv);
    } catch (const FatalError &) {
        // CS_FATAL already printed the diagnostic.
        std::cerr << kUsage;
        return 2;
    }
    if (args.help) {
        std::cout << kUsage;
        return 0;
    }

    if (!args.traceFile.empty())
        trace::setEnabled(true);

    // The paper's four register-file architectures (Section 5).
    std::vector<std::pair<std::string, Machine>> machines;
    machines.emplace_back("Central", makeCentral());
    machines.emplace_back("Clustered (2)", makeClustered({}, 2));
    machines.emplace_back("Clustered (4)", makeClustered({}, 4));
    machines.emplace_back("Distributed", makeDistributed());

    // --dump-jobs: export the built-in matrix as a jobset description
    // (the serving stack's ingestion format) and exit. Round-tripping
    // it through --jobs or cs_client reproduces byte-identical
    // listings.
    if (!args.dumpJobsFile.empty()) {
        serve::JobSet set;
        for (auto &[machineName, machine] : machines)
            set.machines.push_back(std::move(machine));
        std::vector<KernelSpec> specs = allKernels();
        for (const KernelSpec &spec : specs)
            set.kernels.push_back(spec.build());
        for (std::uint32_t m = 0; m < set.machines.size(); ++m) {
            for (std::uint32_t k = 0; k < set.kernels.size(); ++k) {
                serve::JobDescription job;
                job.label = specs[k].name + "@" + machines[m].first;
                job.machineIndex = m;
                job.kernelIndex = k;
                job.pipelined = args.pipelined;
                set.jobs.push_back(std::move(job));
            }
        }
        std::ofstream out(args.dumpJobsFile);
        if (!out) {
            std::cerr << "cs_batch: cannot write '" << args.dumpJobsFile
                      << "'\n";
            return 2;
        }
        serve::printJobSet(out, set);
        std::cout << "jobset (" << set.jobs.size() << " jobs) written to "
                  << args.dumpJobsFile << "\n";
        return 0;
    }

    // --jobs: schedule a parsed jobset description instead of the
    // built-in matrix. The set owns the machines/kernels the jobs
    // point into, so it must outlive the batch.
    std::optional<serve::JobSet> jobSet;
    std::vector<ScheduleJob> batch;
    if (!args.jobsFile.empty()) {
        std::ifstream in(args.jobsFile);
        if (!in) {
            std::cerr << "cs_batch: cannot read '" << args.jobsFile
                      << "'\n";
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        std::string error;
        if (!serve::parseJobSetText(text.str(), &jobSet, &error)) {
            std::cerr << "cs_batch: " << args.jobsFile << ": " << error
                      << "\n";
            return 2;
        }
        batch = serve::jobSetToScheduleJobs(*jobSet);
    } else {
        for (const auto &[machineName, machine] : machines) {
            for (const KernelSpec &spec : allKernels()) {
                ScheduleJob job;
                job.label = spec.name + "@" + machineName;
                job.kernel = spec.build();
                job.block = BlockId(0);
                job.machine = &machine;
                job.pipelined = args.pipelined;
                batch.push_back(std::move(job));
            }
        }
    }

    PipelineConfig config;
    config.numThreads = args.threads;
    config.cacheCapacity = args.cacheCapacity;
    config.iiSearchWorkers = args.iiWorkers;
    config.cacheDirectory = args.cacheDir;
    SchedulingPipeline pipeline(config);

    printBanner(std::cout,
                "Batch scheduling: " + std::to_string(batch.size()) +
                    " jobs x " + std::to_string(args.repeat) +
                    " submission(s) on " +
                    std::to_string(pipeline.numThreads()) + " thread(s)");

    TelemetrySampler sampler;
    if (!args.telemetryFile.empty()) {
        TelemetryConfig telemetry;
        telemetry.path = args.telemetryFile;
        telemetry.intervalMs = args.telemetryIntervalMs;
        bool ok = sampler.start(
            telemetry,
            [&pipeline] { return pipeline.statsSnapshot(); },
            [&pipeline](std::ostream &os) {
                pipeline.writeTelemetryJson(os);
            });
        if (!ok) {
            std::cerr << "cs_batch: cannot write telemetry file '"
                      << args.telemetryFile << "'\n";
            return 2;
        }
    }

    MetricsRegistry metrics;
    StreamingHistogram &roundUs = metrics.streamingHistogram("batch.round");
    double totalMs = 0.0;
    std::vector<JobResult> results;
    for (int round = 0; round < args.repeat; ++round) {
        auto start = std::chrono::steady_clock::now();
        results = pipeline.run(batch);
        auto end = std::chrono::steady_clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(end - start)
                .count();
        totalMs += ms;
        roundUs.record(static_cast<std::uint64_t>(ms * 1000.0));
        std::cout << "round " << (round + 1) << ": "
                  << TextTable::num(ms, 1) << " ms, "
                  << TextTable::num(1000.0 * batch.size() / ms, 1)
                  << " jobs/s\n";
    }
    // Stop after all rounds: the final JSONL line captures the fully
    // warmed end state.
    sampler.stop();
    if (!args.telemetryFile.empty())
        std::cout << "telemetry written to " << args.telemetryFile
                  << "\n";

    TextTable table({"Job",
                     !args.jobsFile.empty()
                         ? "II/len"
                         : (args.pipelined ? "II" : "len"),
                     "MII", "copies", "verified", "cache", "ms"});
    int failures = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JobResult &r = results[i];
        if (!r.success)
            ++failures;
        table.addRow({
            batch[i].label,
            r.success ? std::to_string(batch[i].pipelined ? r.ii
                                                          : r.length)
                      : "FAIL",
            std::to_string(std::max(r.resMii, r.recMii)),
            std::to_string(r.copiesInserted),
            r.success ? (r.verifierErrors.empty() ? "yes" : "NO") : "-",
            r.cacheHit ? "hit" : "miss",
            TextTable::num(r.wallMs, 2),
        });
    }
    table.print(std::cout);

    ScheduleCache::Stats cache = pipeline.cache().stats();
    PersistentScheduleCache::DiskStats disk =
        pipeline.cache().diskStats();
    CounterSet stats = pipeline.statsSnapshot();
    std::cout << "\ncache: " << cache.hits << " hit(s), " << cache.misses
              << " miss(es), " << cache.evictions << " eviction(s), "
              << cache.entries << "/" << cache.capacity
              << " entries, hit rate "
              << TextTable::num(100.0 * cache.hitRate(), 1) << "%\n";
    if (pipeline.cache().persistent()) {
        std::cout << "cache disk: " << disk.loadedEntries
                  << " loaded, " << disk.hits << " hit(s), "
                  << disk.writes << " write(s) in "
                  << pipeline.cache().directory() << "\n";
    }

    // Machine-readable one-line summary (the bench suite's JSON idiom,
    // counter groups emitted through the shared metrics writer).
    static const char *const kSchedulerCounters[] = {
        "ops_scheduled",
        "copies_inserted",
    };
    static const char *const kIiSearchCounters[] = {
        "workers",
        "attempts_launched",
        "attempts_wasted",
        "attempts_cancelled",
        "cancel_latency_us",
    };
    static const char *const kSearchCounters[] = {
        "dfs_nodes",
    };
    CounterSet iiStats;
    iiStats.bump("workers",
                 cs::PipelineConfig::resolvedIiWorkers(args.iiWorkers));
    for (const char *name : {"attempts_launched", "attempts_wasted",
                             "attempts_cancelled", "cancel_latency_us"}) {
        iiStats.bump(name,
                     stats.get(std::string("ii_search.") + name));
    }
    std::cout << "{\"batch\":{\"jobs\":" << results.size() * args.repeat
              << ",\"unique_jobs\":" << results.size()
              << ",\"threads\":" << pipeline.numThreads()
              << ",\"pipelined\":" << (args.pipelined ? "true" : "false")
              << ",\"failures\":" << failures
              << ",\"wall_ms\":" << TextTable::num(totalMs, 2)
              << ",\"jobs_per_sec\":"
              << TextTable::num(
                     1000.0 * results.size() * args.repeat / totalMs, 2)
              << ",\"cache\":";
    // Counter groups ride the shared metrics emitter rather than
    // hand-rolled JSON, so every front-end prints the same shape.
    writeCounterObject(std::cout, toCounterSet(cache),
                       kMemoryCacheCounters);
    if (pipeline.cache().persistent()) {
        std::cout << ",\"cache_disk\":";
        writeCounterObject(std::cout, toCounterSet(disk),
                           kDiskCacheCounters);
    }
    std::cout << ",\"context_cache\":";
    writeCounterObject(std::cout,
                       toCounterSet(pipeline.contextCache().stats()),
                       kContextCacheCounters);
    static const char *const kPipelineCounters[] = {
        "jobs",
        "cache_hits",
        "cache_misses",
        "dedup_joins",
        "failures",
    };
    CounterSet pipelineStats;
    for (const char *name : kPipelineCounters)
        pipelineStats.bump(name,
                           stats.get(std::string("pipeline.") + name));
    std::cout << ",\"pipeline\":";
    writeCounterObject(std::cout, pipelineStats, kPipelineCounters);
    std::cout << ",\"scheduler\":";
    writeCounterObject(std::cout, stats, kSchedulerCounters);
    std::cout << ",\"ii_search\":";
    writeCounterObject(std::cout, iiStats, kIiSearchCounters);
    std::cout << ",\"search\":";
    writeCounterObject(std::cout, stats, kSearchCounters);
    std::cout << "}}\n";

    if (!args.metricsFile.empty()) {
        metrics.counters().merge(stats);
        metrics.counters().bump("batch.jobs",
                                results.size() * args.repeat);
        metrics.counters().bump("batch.failures",
                                static_cast<std::uint64_t>(failures));
        metrics.counters().bump("cache.hits", cache.hits);
        metrics.counters().bump("cache.misses", cache.misses);
        metrics.counters().bump("cache.evictions", cache.evictions);
        StreamingHistogram &jobUs = metrics.streamingHistogram("job.wall");
        for (const JobResult &r : results)
            jobUs.record(static_cast<std::uint64_t>(r.wallMs * 1000.0));
        std::ofstream out(args.metricsFile);
        if (!out) {
            std::cerr << "cs_batch: cannot write metrics file '"
                      << args.metricsFile << "'\n";
            return 2;
        }
        metrics.writeJson(out);
        out << "\n";
        std::cout << "metrics written to " << args.metricsFile << "\n";
    }

    if (!args.traceFile.empty()) {
        std::ofstream out(args.traceFile);
        if (!out) {
            std::cerr << "cs_batch: cannot write trace file '"
                      << args.traceFile << "'\n";
            return 2;
        }
        trace::exportChromeTrace(out);
        out << "\n";
        std::cout << "trace written to " << args.traceFile << "\n";
    }

    return failures == 0 ? 0 : 1;
}
