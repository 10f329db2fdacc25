/**
 * @file
 * Design-space sweep front-end: enumerate machine configurations
 * around the paper's four evaluation machines (costmodel/dse.hpp),
 * schedule a kernel suite onto every candidate through the shared
 * scheduling pipeline, and reduce the outcomes to the Pareto frontier
 * of register-file area/power/delay (cost model) versus achieved II —
 * Figures 25-29 generalized from a four-point lookup into a search.
 *
 *   cs_sweep [--variants N] [--seed S] [--kernels LIST]
 *            [--option-variants V] [--repeat R] [--threads N]
 *            [--ii-workers N] [--plain] [--no-share] [--no-dedup]
 *            [--cache N] [--context-cache N] [--telemetry=FILE]
 *            [--telemetry-interval-ms N] [--help]
 *
 *   --variants N         machine design points to enumerate (default
 *                        16, min 4; the four paper machines always
 *                        lead the enumeration)
 *   --seed S             enumeration seed; equal seeds sweep identical
 *                        spaces (default 1)
 *   --kernels LIST       comma-separated Table-1 kernel names, or
 *                        "all" (default "FFT,Block Warp,FIR-FP,DCT" —
 *                        the cheap subset; Sort/Merge multiply sweep
 *                        time by ~100x)
 *   --option-variants V  schedule each (kernel, machine) point under V
 *                        scheduler-option variants (default 1). The
 *                        variants differ in their content key but not
 *                        their search behavior, so they exercise the
 *                        pipeline's shared-analysis cache: one
 *                        BlockSchedulingContext serves all V runs.
 *   --repeat R           submit every job R times (default 1). Copies
 *                        are adjacent in the batch, so with several
 *                        threads they overlap in flight and coalesce
 *                        through the pipeline's in-flight dedup
 *                        instead of scheduling again.
 *   --threads N          worker threads (default: hardware concurrency)
 *   --ii-workers N       speculative II-search workers ("auto" sizes
 *                        to the hardware; default 0 = serial sweep)
 *   --plain              plain block schedules (length instead of II)
 *   --no-share           disable the shared-analysis (context) cache
 *   --no-dedup           disable in-flight job coalescing
 *   --cache N            schedule-cache entries (default 4096)
 *   --context-cache N    context-cache entries (default 1024)
 *   --telemetry=FILE     run the time-series sampler for the duration
 *                        of the sweep: one JSONL snapshot per interval
 *                        (pipeline counters + deltas, RSS, cache and
 *                        dedup occupancy — support/telemetry.hpp)
 *   --telemetry-interval-ms N
 *                        sample period (default 250)
 *
 * Output: a Pareto-frontier table (area/power/delay normalized to the
 * central baseline, plus the summed achieved II over the kernel
 * suite) and one machine-readable JSON line with throughput and
 * cache/dedup counters, in the cs_batch idiom.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "costmodel/dse.hpp"
#include "costmodel/machine_cost.hpp"
#include "kernels/kernels.hpp"
#include "pipeline/pipeline.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"

namespace {

struct Args
{
    int variants = 16;
    std::uint64_t seed = 1;
    std::string kernels = "FFT,Block Warp,FIR-FP,DCT";
    int optionVariants = 1;
    int repeat = 1;
    unsigned threads = 0;
    unsigned iiWorkers = 0;
    bool pipelined = true;
    bool share = true;
    bool dedup = true;
    std::size_t cacheCapacity = 4096;
    std::size_t contextCacheCapacity = 1024;
    std::string telemetryFile;
    unsigned telemetryIntervalMs = 250;
    bool help = false;
};

const char *const kUsage =
    "usage: cs_sweep [--variants N] [--seed S] [--kernels LIST]\n"
    "                [--option-variants V] [--repeat R] [--threads N]\n"
    "                [--ii-workers N] [--plain] [--no-share]\n"
    "                [--no-dedup] [--cache N] [--context-cache N]\n"
    "                [--telemetry=FILE] [--telemetry-interval-ms N]\n"
    "                [--help]\n";

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) {
            if (i + 1 >= argc)
                CS_FATAL(flag, " needs a value");
            return std::string(argv[++i]);
        };
        std::size_t eq = arg.find('=');
        std::string inlineValue;
        if (eq != std::string::npos && arg.rfind("--", 0) == 0) {
            inlineValue = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        }
        auto strValue = [&](const char *flag) {
            return inlineValue.empty() ? value(flag) : inlineValue;
        };
        auto intValue = [&](const char *flag) {
            return std::atoi(strValue(flag).c_str());
        };
        if (arg == "--variants") {
            args.variants = intValue("--variants");
        } else if (arg == "--seed") {
            args.seed = static_cast<std::uint64_t>(
                std::strtoull(strValue("--seed").c_str(), nullptr, 10));
        } else if (arg == "--kernels") {
            args.kernels = strValue("--kernels");
        } else if (arg == "--option-variants") {
            args.optionVariants = intValue("--option-variants");
        } else if (arg == "--repeat") {
            args.repeat = intValue("--repeat");
        } else if (arg == "--threads") {
            args.threads =
                static_cast<unsigned>(intValue("--threads"));
        } else if (arg == "--ii-workers") {
            std::string v = strValue("--ii-workers");
            args.iiWorkers =
                v == "auto" ? cs::PipelineConfig::kAutoIiWorkers
                            : static_cast<unsigned>(
                                  std::atoi(v.c_str()));
        } else if (arg == "--plain") {
            args.pipelined = false;
        } else if (arg == "--no-share") {
            args.share = false;
        } else if (arg == "--no-dedup") {
            args.dedup = false;
        } else if (arg == "--cache") {
            args.cacheCapacity =
                static_cast<std::size_t>(intValue("--cache"));
        } else if (arg == "--context-cache") {
            args.contextCacheCapacity =
                static_cast<std::size_t>(intValue("--context-cache"));
        } else if (arg == "--telemetry") {
            args.telemetryFile = strValue("--telemetry");
        } else if (arg == "--telemetry-interval-ms") {
            args.telemetryIntervalMs = static_cast<unsigned>(
                intValue("--telemetry-interval-ms"));
        } else if (arg == "--help" || arg == "-h") {
            args.help = true;
        } else {
            CS_FATAL("unknown argument '", arg, "'");
        }
    }
    if (args.optionVariants < 1 || args.repeat < 1)
        CS_FATAL("--option-variants and --repeat must be >= 1");
    return args;
}

std::vector<std::string>
splitKernelList(const std::string &list)
{
    std::vector<std::string> names;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        std::string name = list.substr(start, comma - start);
        if (!name.empty())
            names.push_back(name);
        start = comma + 1;
    }
    return names;
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
        std::cerr << kUsage;
        return 2;
    }
    if (args.help) {
        std::cout << kUsage;
        return 0;
    }

    // The swept kernel suite. Specs are built once; jobs copy them.
    std::vector<KernelSpec> specs;
    if (args.kernels == "all") {
        specs = allKernels();
    } else {
        for (const std::string &name : splitKernelList(args.kernels))
            specs.push_back(kernelByName(name));
    }
    if (specs.empty()) {
        std::cerr << "cs_sweep: no kernels selected\n" << kUsage;
        return 2;
    }

    // The machine design space. Points own their machines, so the
    // vector must outlive the batch (jobs point into it).
    std::vector<DsePoint> points =
        enumerateMachineSpace({args.seed, args.variants});

    // Job order is deliberate: all work for one design point is
    // adjacent (option variants, then herd copies) so concurrent
    // workers land on the same analysis context while it is hot, and
    // identical copies overlap in flight for the dedup path.
    std::vector<ScheduleJob> batch;
    for (const DsePoint &point : points) {
        for (const KernelSpec &spec : specs) {
            for (int v = 0; v < args.optionVariants; ++v) {
                ScheduleJob job;
                job.label = spec.name + "@" + point.name;
                if (args.optionVariants > 1)
                    job.label += "#v" + std::to_string(v);
                job.kernel = spec.build();
                job.block = BlockId(0);
                job.machine = &point.machine;
                job.pipelined = args.pipelined;
                // Distinct content keys, identical search behavior:
                // the budget headroom is never reached by these
                // kernels, so variants differ only in their hash —
                // the shape of an option sweep whose analyses the
                // context cache deduplicates.
                job.options.permutationBudget += v;
                for (int r = 0; r < args.repeat; ++r)
                    batch.push_back(job);
            }
        }
    }

    PipelineConfig config;
    config.numThreads = args.threads;
    config.cacheCapacity = args.cacheCapacity;
    config.iiSearchWorkers = args.iiWorkers;
    config.contextCacheCapacity =
        args.share ? args.contextCacheCapacity : 0;
    config.dedupInFlight = args.dedup;
    SchedulingPipeline pipeline(config);

    printBanner(std::cout,
                "Design-space sweep: " + std::to_string(points.size()) +
                    " machines x " + std::to_string(specs.size()) +
                    " kernels = " + std::to_string(batch.size()) +
                    " jobs on " +
                    std::to_string(pipeline.numThreads()) +
                    " thread(s)");

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
            std::cerr << "cs_sweep: cannot write telemetry file '"
                      << args.telemetryFile << "'\n";
            return 2;
        }
    }

    auto start = std::chrono::steady_clock::now();
    std::vector<JobResult> results = pipeline.run(batch);
    auto end = std::chrono::steady_clock::now();
    double wallMs =
        std::chrono::duration<double, std::milli>(end - start).count();
    // Stop right after the run: the final line is the drained state.
    sampler.stop();

    // Aggregate achieved II per design point over the kernel suite
    // (variant 0, copy 0 of each job — all variants/copies achieve the
    // same II by construction). A point where any kernel failed is
    // excluded from the frontier: it cannot run the workload.
    int failures = 0;
    std::map<std::string, double> sumIi;
    std::map<std::string, bool> excluded;
    std::size_t jobIndex = 0;
    for (const DsePoint &point : points) {
        for (std::size_t k = 0; k < specs.size(); ++k) {
            const JobResult &first = results[jobIndex];
            if (first.success) {
                sumIi[point.name] += args.pipelined
                                         ? static_cast<double>(first.ii)
                                         : static_cast<double>(
                                               first.length);
            } else {
                excluded[point.name] = true;
            }
            for (int v = 0; v < args.optionVariants; ++v)
                for (int r = 0; r < args.repeat; ++r) {
                    if (!results[jobIndex].success)
                        ++failures;
                    ++jobIndex;
                }
        }
    }

    std::vector<DseOutcome> outcomes;
    std::vector<const DsePoint *> outcomePoints;
    for (const DsePoint &point : points) {
        if (excluded.count(point.name))
            continue;
        MachineCost cost = machineCost(point.machine);
        DseOutcome outcome;
        outcome.machine = point.name;
        outcome.area = cost.area();
        outcome.power = cost.power();
        outcome.delay = cost.delay;
        outcome.achievedIi = sumIi[point.name];
        outcomes.push_back(outcome);
        outcomePoints.push_back(&point);
    }
    std::vector<std::size_t> frontier = paretoFrontier(outcomes);

    // Normalize the cost axes to the central baseline (the paper's
    // presentation): the first enumerated point is always "central"
    // with the default configuration.
    MachineCost central = machineCost(points.front().machine);

    TextTable table(
        {"Design point", "style", "area", "power", "delay", "sum II"});
    for (std::size_t idx : frontier) {
        const DseOutcome &o = outcomes[idx];
        table.addRow({
            o.machine,
            outcomePoints[idx]->style,
            TextTable::num(o.area / central.area(), 2),
            TextTable::num(o.power / central.power(), 2),
            TextTable::num(o.delay / central.delay, 2),
            TextTable::num(o.achievedIi, 0),
        });
    }
    std::cout << "Pareto frontier (" << frontier.size() << " of "
              << outcomes.size()
              << " feasible points; cost axes relative to the central "
                 "baseline):\n";
    table.print(std::cout);

    ScheduleCache::Stats cache = pipeline.cache().stats();
    ContextCache::Stats contexts = pipeline.contextCache().stats();
    CounterSet stats = pipeline.statsSnapshot();
    std::cout << "\n"
              << batch.size() << " jobs in " << TextTable::num(wallMs, 1)
              << " ms (" << TextTable::num(1000.0 * batch.size() / wallMs, 1)
              << " jobs/s), " << failures << " failure(s); context cache "
              << contexts.hits << "/" << (contexts.hits + contexts.misses)
              << " hits, " << stats.get(counter("pipeline.dedup_joins"))
              << " in-flight join(s)\n";

    static constexpr auto kPipelineCounters = counters(
        "pipeline.",
        {"jobs", "cache_hits", "cache_misses", "dedup_joins", "failures"});
    CounterSet tiers;
    cache.addTo(tiers);
    contexts.addTo(tiers);
    std::cout << "{\"sweep\":{\"points\":" << points.size()
              << ",\"kernels\":" << specs.size()
              << ",\"option_variants\":" << args.optionVariants
              << ",\"repeat\":" << args.repeat
              << ",\"jobs\":" << batch.size()
              << ",\"threads\":" << pipeline.numThreads()
              << ",\"pipelined\":" << (args.pipelined ? "true" : "false")
              << ",\"failures\":" << failures
              << ",\"excluded_points\":" << excluded.size()
              << ",\"pareto_points\":" << frontier.size()
              << ",\"wall_ms\":" << TextTable::num(wallMs, 2)
              << ",\"jobs_per_sec\":"
              << TextTable::num(1000.0 * batch.size() / wallMs, 2)
              << ",\"cache\":";
    writeCounterObject(std::cout, tiers, counterGroup("cache.memory."),
                       "cache.memory.");
    std::cout << ",\"context_cache\":";
    writeCounterObject(std::cout, tiers, counterGroup("context."),
                       "context.");
    std::cout << ",\"pipeline\":";
    writeCounterObject(std::cout, stats, kPipelineCounters, "pipeline.");
    std::cout << ",\"pareto\":[";
    for (std::size_t i = 0; i < frontier.size(); ++i) {
        const DseOutcome &o = outcomes[frontier[i]];
        std::cout << (i ? "," : "") << "{\"machine\":\"" << o.machine
                  << "\",\"area\":" << TextTable::num(o.area, 4)
                  << ",\"power\":" << TextTable::num(o.power, 4)
                  << ",\"delay\":" << TextTable::num(o.delay, 4)
                  << ",\"sum_ii\":" << TextTable::num(o.achievedIi, 0)
                  << "}";
    }
    std::cout << "]}}\n";

    return failures == 0 ? 0 : 1;
}
