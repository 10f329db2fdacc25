/**
 * @file
 * The `sweep` workload: the design-space sweep cs_sweep runs, in the
 * bench_dse_sweep shape — 63 design points from enumerateMachineSpace x
 * FFT, Block Warp, FIR-FP and DCT x 2 option variants x 2 herd copies
 * (1008 jobs) — through one SchedulingPipeline per batch at nproc
 * threads with cs_sweep's defaults: pipelined, serial II search,
 * context sharing and in-flight dedup on. Every batch starts cold.
 *
 * The design space is enumerated with a fixed seed, and the batch keeps
 * cs_sweep's order. A handful of pipelined FIR-FP jobs on clustered4
 * variants take 1-2 s of a ~5 s batch, so which machines a seed draws,
 * or where those jobs land in the batch, moves batch time by up to
 * 1.9x and would swamp any change under test. The run seed is recorded
 * but varies nothing here.
 *
 * The traced run alternates untraced batches with batches submitted
 * job by job through SchedulingPipeline::submit, each job one span
 * from submit to completion with its JobResult::wallMs as the child.
 */

#include <algorithm>
#include <iostream>
#include <memory>

#include "common.hpp"
#include "costmodel/dse.hpp"
#include "pipeline/pipeline.hpp"

namespace csbench {

namespace {

constexpr std::uint64_t kSpaceSeed = 1;
constexpr int kPoints = 63;
constexpr int kOptionVariants = 2;
constexpr int kHerd = 2;
const char *const kKernels[] = {"FFT", "Block Warp", "FIR-FP", "DCT"};

struct SweepInputs
{
    std::vector<cs::DsePoint> points;
    std::vector<cs::ScheduleJob> batch;
    /** Per batch index: its (point, kernel) schedule group. */
    std::vector<std::size_t> group;
    /** Per batch index: first index with the same content key. */
    std::vector<std::size_t> keyLeader;
    std::vector<const cs::KernelSpec *> groupSpec;
    std::vector<std::size_t> groupPoint;
    double enumerateMs = 0.0;
    double kernelBuildMs = 0.0;
};

std::unique_ptr<SweepInputs>
buildInputs()
{
    auto in = std::make_unique<SweepInputs>();
    Clock::time_point t0 = Clock::now();
    in->points = cs::enumerateMachineSpace({kSpaceSeed, kPoints});
    Clock::time_point t1 = Clock::now();
    in->enumerateMs = msBetween(t0, t1);

    // cs_sweep's job order: one design point's work is adjacent
    // (option variants, then herd copies).
    for (std::size_t p = 0; p < in->points.size(); ++p) {
        for (const char *name : kKernels) {
            const cs::KernelSpec &spec = cs::kernelByName(name);
            std::size_t group = in->groupSpec.size();
            in->groupSpec.push_back(&spec);
            in->groupPoint.push_back(p);
            for (int v = 0; v < kOptionVariants; ++v) {
                cs::ScheduleJob job;
                job.label = spec.name + "@" + in->points[p].name + "#v" +
                            std::to_string(v);
                job.kernel = spec.build();
                job.block = cs::BlockId(0);
                job.machine = &in->points[p].machine;
                job.pipelined = true;
                job.options.permutationBudget += v;
                std::size_t leader = in->batch.size();
                for (int r = 0; r < kHerd; ++r) {
                    in->batch.push_back(job);
                    in->group.push_back(group);
                    in->keyLeader.push_back(leader);
                }
            }
        }
    }
    in->kernelBuildMs = msBetween(t1, Clock::now());
    return in;
}

cs::PipelineConfig
pipelineConfig()
{
    // cs_sweep's defaults.
    cs::PipelineConfig config;
    config.numThreads = hardwareThreads();
    config.cacheCapacity = 4096;
    config.contextCacheCapacity = 1024;
    config.dedupInFlight = true;
    config.iiSearchWorkers = 0;
    return config;
}

} // namespace

int
runSweep(const RunConfig &config)
{
    Report report;
    std::vector<double> setupSeconds, setupSteal, enumerateMs, kernelBuildMs;
    std::unique_ptr<SweepInputs> in;
    Clock::time_point setupStart = config.processStart;
    CpuTicks setupTicks = CpuTicks::now();
    // This set-up takes ~25 ms, so host jitter is a large share of one
    // sample: take the median of three times the usual repetitions.
    for (int rep = 0; rep < 3 * kSetupRepetitions; ++rep) {
        in.reset();
        in = buildInputs();
        setupSeconds.push_back(secondsBetween(setupStart, Clock::now()));
        CpuTicks ticks = CpuTicks::now();
        setupSteal.push_back(stealShare(setupTicks, ticks));
        enumerateMs.push_back(in->enumerateMs);
        kernelBuildMs.push_back(in->kernelBuildMs);
        setupStart = Clock::now();
        setupTicks = ticks;
    }
    const std::size_t n = in->batch.size();

    std::vector<std::uint64_t> keys;
    for (const cs::ScheduleJob &job : in->batch)
        keys.push_back(cs::scheduleJobKey(job));
    printEnvironment(config, hex64(hashKeys(keys)), n);

    // Reference listings come from the first batch, which is checked
    // (validator + simulator) outside the timed region.
    std::vector<std::string> reference;
    std::vector<int> groupCycles(in->groupSpec.size(), 0);
    std::vector<int> groupCopies(in->groupSpec.size(), 0);
    auto checkBatch = [&](const std::vector<cs::JobResult> &results) {
        report.attempt(n);
        if (reference.empty()) {
            std::vector<bool> checked(in->groupSpec.size(), false);
            for (std::size_t i = 0; i < n; ++i) {
                std::size_t g = in->group[i];
                if (checked[g] || !results[i].success)
                    continue;
                checked[g] = true;
                std::string problem = checkSchedule(
                    *in->groupSpec[g],
                    in->points[in->groupPoint[g]].machine, results[i]);
                if (!problem.empty())
                    report.fail(in->batch[i].label + ": " + problem);
                groupCycles[g] = results[i].ii;
                groupCopies[g] = results[i].copiesInserted;
            }
            for (const cs::JobResult &r : results)
                reference.push_back(r.listing);
        }
        for (std::size_t i = 0; i < n; ++i) {
            const cs::JobResult &r = results[i];
            if (!r.success) {
                report.fail(in->batch[i].label + ": " + r.sched.failure);
            } else if (!r.verifierErrors.empty()) {
                report.fail(in->batch[i].label + ": verifier: " +
                            r.verifierErrors.front());
            } else if (r.listing != reference[i] ||
                       r.listing != results[in->keyLeader[i]].listing) {
                report.fail(in->batch[i].label +
                            ": listing differs from the reference");
            }
        }
    };

    // Untraced runs report the run() batches' listings, traced runs the
    // submit() batches'.
    auto digestOf = [&](const std::vector<cs::JobResult> &results) {
        std::vector<std::string> listings;
        for (const cs::JobResult &r : results)
            listings.push_back(r.listing);
        report.listings(listings);
    };

    std::vector<double> batchSeconds, batchSteal, tracedBatchSeconds,
        busyShares;
    std::vector<double> jobMs;
    // Per content key, per untraced batch: the slowest copy's wallMs,
    // which is the leader's scheduling time (a joiner waits for part of
    // it, a later copy hits the cache).
    std::vector<std::vector<double>> keyMs(n);
    SpanLog spans(config.processStart);
    CoreCounts counts;
    double contextHitRatio = 0.0, dedupJoins = 0.0, cacheMisses = 0.0;
    int tracedBatches = 0;
    const unsigned threads = hardwareThreads();

    Clock::time_point measureStart = Clock::now();
    while (secondsBetween(measureStart, Clock::now()) < config.seconds) {
        {
            cs::SchedulingPipeline pipeline(pipelineConfig());
            CpuTicks ticks = CpuTicks::now();
            Clock::time_point t0 = Clock::now();
            std::vector<cs::JobResult> results = pipeline.run(in->batch);
            batchSeconds.push_back(secondsBetween(t0, Clock::now()));
            batchSteal.push_back(stealShare(ticks, CpuTicks::now()));
            checkBatch(results);
            if (!config.trace)
                digestOf(results);
            std::vector<double> slowest(n, 0.0);
            for (std::size_t i = 0; i < n; ++i) {
                double &s = slowest[in->keyLeader[i]];
                s = std::max(s, results[i].wallMs);
            }
            for (std::size_t i = 0; i < n; ++i)
                if (in->keyLeader[i] == i)
                    keyMs[i].push_back(slowest[i]);
        }
        if (!config.trace)
            continue;

        // Traced batch: the same jobs, in the same order, through
        // submit(), one span each.
        std::vector<cs::JobResult> results(n);
        cs::SchedulingPipeline pipeline(pipelineConfig());
        Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            int root = spans.open("pipeline.job", Clock::now(), -1, i);
            pipeline.submit(in->batch[i], [&spans, &results, root,
                                           i](cs::JobResult r) {
                Clock::time_point end = Clock::now();
                auto wall = std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(r.wallMs));
                spans.add("core.job", end - wall, end, root, i);
                spans.close(root, end);
                results[i] = std::move(r);
            });
        }
        pipeline.waitIdle();
        double wall = secondsBetween(t0, Clock::now());
        tracedBatchSeconds.push_back(wall);
        ++tracedBatches;
        checkBatch(results);
        digestOf(results);

        double busyMs = 0.0;
        for (const cs::JobResult &r : results) {
            busyMs += r.wallMs;
            jobMs.push_back(r.wallMs);
        }
        busyShares.push_back(busyMs / 1000.0 / (threads * wall));
        contextHitRatio = pipeline.contextCache().stats().hitRate();
        cs::CounterSet stats = pipeline.statsSnapshot();
        dedupJoins = static_cast<double>(stats.get("pipeline.dedup_joins"));
        cacheMisses =
            static_cast<double>(stats.get("pipeline.cache_misses"));
        counts = CoreCounts{};
        counts.add(stats);
        for (std::size_t i = 0; i < n; ++i) {
            if (in->keyLeader[i] == i) {
                counts.iiAttempts +=
                    static_cast<std::uint64_t>(results[i].iiAttempts);
                counts.iiWasted +=
                    static_cast<std::uint64_t>(results[i].iiAttemptsWasted);
            }
        }
    }

    if (!config.trace) {
        std::vector<double> cycles;
        double copies = 0.0;
        for (std::size_t g = 0; g < groupCycles.size(); ++g) {
            cycles.push_back(groupCycles[g]);
            copies += groupCopies[g];
        }
        // Timings come from the quiet batches (see kQuietStealShare).
        bool setupFellBack = false, batchFellBack = false;
        std::vector<std::size_t> setups =
            quietIntervals(setupSteal, 3, &setupFellBack);
        std::vector<std::size_t> batches =
            quietIntervals(batchSteal, 3, &batchFellBack);
        std::cout << "  " << batches.size() << " of " << batchSeconds.size()
                  << (batchFellBack ? " batches used: too few quiet ones"
                                    : " batches quiet")
                  << "; " << setups.size() << " of " << setupSeconds.size()
                  << (setupFellBack ? " set-ups used: too few quiet ones"
                                    : " set-ups quiet")
                  << "; median steal " << 100.0 * median(batchSteal)
                  << "%\n  batch seconds:";
        for (double b : batchSeconds)
            std::cout << " " << b;
        std::cout << "\n";
        std::vector<double> keyMedians;
        for (const std::vector<double> &ms : keyMs)
            if (!ms.empty())
                keyMedians.push_back(median(pick(ms, batches)));
        // latency: geomean over content keys of each key's median
        // scheduling time, so the many short jobs weigh as much as the
        // few that set the batch time; throughput: median batch rate.
        EndToEnd e;
        e.setupS = median(pick(setupSeconds, setups));
        e.latencyMs = geomean(keyMedians);
        e.throughputPerS =
            static_cast<double>(n) / median(pick(batchSeconds, batches));
        e.cyclesGeomean = geomean(cycles);
        e.copies = copies;
        reportEndToEnd(report, e);
        std::cout << "  " << batchSeconds.size() << " batches of " << n
                  << " jobs (" << in->points.size() << " points, "
                  << keyMedians.size() << " content keys, "
                  << groupCycles.size() << " distinct schedules) on "
                  << threads << " threads\n";
        return finish(config, report);
    }

    std::vector<double> queueMs;
    for (double us : spans.selfUs("pipeline.job"))
        queueMs.push_back(us / 1000.0);
    Percentile q50 = percentile(queueMs, 0.50);
    Percentile q99 = percentile(queueMs, 0.99);
    report.metric("pipeline.queue_ms.p50", q50.value, "ms");
    report.metric("pipeline.queue_ms.p99", q99.value, "ms");
    report.metric("pipeline.job_ms", median(jobMs), "ms");
    report.metric("pipeline.busy_share", median(busyShares), "ratio");
    report.metric("pipeline.context_hit_ratio", contextHitRatio, "ratio");
    report.metric("pipeline.dedup_joins", dedupJoins, "count");
    report.metric("pipeline.cache_misses", cacheMisses, "count");
    report.metric("costmodel.enumerate_ms", median(enumerateMs), "ms");
    report.metric("ir.kernel_build_ms", median(kernelBuildMs), "ms");
    auto totals = spans.totalsUnder("pipeline.job");
    double rootUs = totals["pipeline.job"].totalUs;
    report.metric("pipeline.queue_share",
                  rootUs > 0 ? totals["pipeline.job"].selfUs / rootUs : 0,
                  "ratio");
    report.metric("core.job_share",
                  rootUs > 0 ? totals["core.job"].selfUs / rootUs : 0,
                  "ratio");
    std::cout << "  pipeline.queue_ms " << q50.label("ms") << ", "
              << q99.label("ms") << "; serial II search, so "
              << "ii_attempts_wasted is 0 and every count repeats exactly\n";
    reportCoreCounts(report, counts);
    double untraced = median(batchSeconds);
    report.metric("trace.overhead_pct",
                  untraced > 0
                      ? 100.0 * (median(tracedBatchSeconds) / untraced - 1.0)
                      : 0.0,
                  "%");
    if (!q99.supported())
        report.checkFailed("pipeline.queue_ms.p99 lacks samples");
    for (const std::string &problem : spans.verify())
        report.checkFailed("spans: " + problem);
    if (!config.traceOut.empty() && !spans.write(config.traceOut))
        report.checkFailed("cannot write spans to " + config.traceOut);
    std::cout << "  " << batchSeconds.size() << " untraced and "
              << tracedBatches << " traced batches; " << spans.size()
              << " spans\n";
    return finish(config, report);
}

} // namespace csbench
