/**
 * @file
 * The `compile` workload: a closed loop, one job at a time from one
 * thread, no caches. Each pass schedules the paper's suite — the ten
 * Table-1 kernels on the four Section-5 machines in block mode (40
 * jobs) plus pipelined mode for every kernel on central and clustered2
 * and for FFT, Block Warp and FIR-FP on clustered4 and distributed (26
 * jobs) — through runScheduleJob, with the II search on a wavefront
 * pool of nproc workers. The seed orders the jobs of each pass.
 *
 * The traced run alternates untraced passes with replays of the same
 * jobs through the public pieces runScheduleJob is made of
 * (BlockSchedulingContext, scheduleBlock / schedulePipelinedParallel,
 * validateSchedule, exportListing), one span each under a job span.
 */

#include <iostream>
#include <memory>

#include "common.hpp"
#include "core/export.hpp"
#include "core/list_scheduler.hpp"
#include "core/sched_context.hpp"
#include "pipeline/ii_search.hpp"
#include "pipeline/thread_pool.hpp"

namespace csbench {

namespace {

struct CompileJob
{
    const cs::KernelSpec *spec = nullptr;
    std::size_t machineIndex = 0;
    cs::ScheduleJob job;
};

/** Everything one set-up builds; rebuilt by every set-up repetition. */
struct CompileInputs
{
    std::vector<NamedMachine> machines;
    std::vector<CompileJob> jobs;
    std::unique_ptr<cs::ThreadPool> iiPool;
    cs::IiSearchConfig ii;
    /** Reference outputs from the warm-up pass (checked). */
    std::vector<std::string> listings;
    std::vector<int> cycles;
    std::vector<int> copies;
};

std::unique_ptr<CompileInputs>
buildInputs()
{
    auto in = std::make_unique<CompileInputs>();
    in->machines = evaluationMachines();
    auto add = [&](const cs::KernelSpec &spec, std::size_t m,
                   bool pipelined) {
        CompileJob cj;
        cj.spec = &spec;
        cj.machineIndex = m;
        cj.job.label = spec.name + "@" + in->machines[m].name +
                       (pipelined ? "/modulo" : "/block");
        cj.job.kernel = spec.build();
        cj.job.block = cs::BlockId(0);
        cj.job.machine = &in->machines[m].machine;
        cj.job.pipelined = pipelined;
        in->jobs.push_back(std::move(cj));
    };
    for (const cs::KernelSpec &spec : cs::allKernels())
        for (std::size_t m = 0; m < in->machines.size(); ++m)
            add(spec, m, false);
    for (const cs::KernelSpec &spec : cs::allKernels()) {
        add(spec, 0, true);
        add(spec, 1, true);
    }
    for (const char *name : {"FFT", "Block Warp", "FIR-FP"}) {
        add(cs::kernelByName(name), 2, true);
        add(cs::kernelByName(name), 3, true);
    }
    in->iiPool = std::make_unique<cs::ThreadPool>(hardwareThreads());
    in->ii.pool = in->iiPool.get();
    return in;
}

int
cyclesOf(const cs::JobResult &r)
{
    return r.ii > 0 ? r.ii : r.length;
}

} // namespace

int
runCompile(const RunConfig &config)
{
    Report report;
    cs::Rng rng(config.seed);

    // Set-up, repeated: build the inputs, then one checked warm-up pass
    // (fills the allocator, the page cache and the II pool).
    std::vector<double> setupSeconds, setupSteal;
    std::unique_ptr<CompileInputs> in;
    std::vector<std::string> firstListings;
    Clock::time_point setupStart = config.processStart;
    CpuTicks setupTicks = CpuTicks::now();
    for (int rep = 0; rep < kSetupRepetitions; ++rep) {
        in.reset();
        in = buildInputs();
        const std::size_t n = in->jobs.size();
        in->listings.assign(n, {});
        in->cycles.assign(n, 0);
        in->copies.assign(n, 0);
        std::vector<cs::JobResult> results(n);
        for (std::size_t idx : shuffledIndices(n, rng))
            results[idx] = cs::runScheduleJob(in->jobs[idx].job, in->ii);
        Clock::time_point setupEnd = Clock::now();
        setupSeconds.push_back(secondsBetween(setupStart, setupEnd));
        setupSteal.push_back(stealShare(setupTicks, CpuTicks::now()));

        // Output checks, outside every timed region.
        for (std::size_t i = 0; i < n; ++i) {
            const CompileJob &cj = in->jobs[i];
            std::string problem = checkSchedule(
                *cj.spec, in->machines[cj.machineIndex].machine,
                results[i]);
            if (problem.empty() && !results[i].verifierErrors.empty())
                problem = "verifier: " + results[i].verifierErrors.front();
            if (!firstListings.empty() &&
                results[i].listing != firstListings[i])
                problem = "listing differs between set-up repetitions";
            if (!problem.empty())
                report.fail(cj.job.label + ": " + problem);
            in->listings[i] = results[i].listing;
            in->cycles[i] = cyclesOf(results[i]);
            in->copies[i] = results[i].copiesInserted;
        }
        if (firstListings.empty())
            firstListings = in->listings;
        setupStart = Clock::now();
        setupTicks = CpuTicks::now();
    }
    const std::size_t n = in->jobs.size();

    std::vector<std::uint64_t> keys;
    for (const CompileJob &cj : in->jobs)
        keys.push_back(cs::scheduleJobKey(cj.job));
    printEnvironment(config, hex64(hashKeys(keys)), n);

    // Measured passes (and, traced, interleaved replay passes).
    std::vector<std::vector<double>> jobMs(n);
    std::vector<double> passSeconds, passSteal;
    std::vector<double> tracedPassSeconds;
    SpanLog spans(config.processStart);
    CoreCounts counts;
    std::vector<double> blockCounts; // dfs nodes of block jobs, per pass
    bool countsTaken = false;
    int tracedPasses = 0;
    // The last pass's listings, by job: untraced runs report the
    // runScheduleJob pass, traced runs the replay pass.
    std::vector<std::string> lastListings(n);

    auto checkListing = [&](std::size_t idx, const cs::JobResult &r) {
        report.attempt();
        if (!r.success) {
            report.fail(in->jobs[idx].job.label + ": " + r.sched.failure);
        } else if (r.listing != in->listings[idx]) {
            report.fail(in->jobs[idx].job.label +
                        ": listing differs from the checked reference");
        }
    };

    Clock::time_point measureStart = Clock::now();
    while (secondsBetween(measureStart, Clock::now()) < config.seconds) {
        double passMs = 0.0;
        std::uint64_t blockDfs = 0;
        CpuTicks passTicks = CpuTicks::now();
        for (std::size_t idx : shuffledIndices(n, rng)) {
            Clock::time_point t0 = Clock::now();
            cs::JobResult r = cs::runScheduleJob(in->jobs[idx].job, in->ii);
            double ms = msBetween(t0, Clock::now());
            jobMs[idx].push_back(ms);
            passMs += ms;
            checkListing(idx, r);
            if (!config.trace)
                lastListings[idx] = r.listing;
            if (!in->jobs[idx].job.pipelined)
                blockDfs += r.sched.stats.get("dfs_nodes");
        }
        passSeconds.push_back(passMs / 1000.0);
        passSteal.push_back(stealShare(passTicks, CpuTicks::now()));
        blockCounts.push_back(static_cast<double>(blockDfs));
        if (!config.trace)
            continue;

        // Traced replay pass through the public pieces.
        double tracedMs = 0.0;
        ++tracedPasses;
        for (std::size_t idx : shuffledIndices(n, rng)) {
            const CompileJob &cj = in->jobs[idx];
            const cs::ScheduleJob &job = cj.job;
            const std::uint64_t id = idx;
            Clock::time_point t0 = Clock::now();
            int root = spans.open("compile.job", t0, -1, id);
            cs::JobResult r;
            {
                Clock::time_point a = Clock::now();
                cs::BlockSchedulingContext ctx(job.kernel, job.block,
                                               *job.machine);
                Clock::time_point b = Clock::now();
                spans.add("core.analysis", a, b, root, id);
                if (job.pipelined) {
                    cs::PipelineResult pipe = cs::schedulePipelinedParallel(
                        ctx, job.options, job.maxIiSlack, in->ii);
                    r.success = pipe.success;
                    r.ii = pipe.ii;
                    r.iiAttempts = pipe.attempts;
                    r.iiAttemptsWasted = pipe.attemptsWasted;
                    r.sched = std::move(pipe.inner);
                } else {
                    r.sched = cs::scheduleBlock(ctx, job.options);
                    r.success = r.sched.success;
                }
                Clock::time_point c = Clock::now();
                spans.add("core.search", b, c, root, id);
            }
            if (r.success) {
                Clock::time_point c = Clock::now();
                r.verifierErrors = cs::validateSchedule(
                    r.sched.kernel, *job.machine, r.sched.schedule);
                Clock::time_point d = Clock::now();
                spans.add("core.verify", c, d, root, id);
                r.listing = cs::exportListing(r.sched.kernel, *job.machine,
                                              r.sched.schedule);
                Clock::time_point e = Clock::now();
                spans.add("core.export", d, e, root, id);
            }
            Clock::time_point t1 = Clock::now();
            spans.close(root, t1);
            tracedMs += msBetween(t0, t1);

            checkListing(idx, r);
            lastListings[idx] = r.listing;
            if (!r.verifierErrors.empty())
                report.fail(job.label + ": verifier: " +
                            r.verifierErrors.front());
            if (!countsTaken) {
                counts.add(r.sched.stats);
                counts.iiAttempts += static_cast<std::uint64_t>(
                    r.iiAttempts);
                counts.iiWasted += static_cast<std::uint64_t>(
                    r.iiAttemptsWasted);
            }
        }
        countsTaken = true;
        tracedPassSeconds.push_back(tracedMs / 1000.0);
    }

    report.listings(lastListings);
    for (double c : blockCounts) {
        if (c != blockCounts.front()) {
            report.checkFailed("block-job dfs_nodes differ between passes");
            break;
        }
    }

    // Timings come from the quiet passes (see kQuietStealShare).
    bool setupFellBack = false, passFellBack = false;
    std::vector<std::size_t> setups =
        quietIntervals(setupSteal, 2, &setupFellBack);
    std::vector<std::size_t> quietPasses =
        quietIntervals(passSteal, 5, &passFellBack);
    std::cout << "  " << quietPasses.size() << " of " << passSeconds.size()
              << (passFellBack ? " passes used: too few quiet ones"
                               : " passes quiet")
              << "; " << setups.size() << " of " << setupSeconds.size()
              << (setupFellBack ? " set-ups used: too few quiet ones"
                                : " set-ups quiet")
              << "; median steal " << 100.0 * median(passSteal) << "%\n";
    std::vector<double> jobMedians(n);
    for (std::size_t i = 0; i < n; ++i)
        jobMedians[i] = median(pick(jobMs[i], quietPasses));
    std::vector<double> cycles;
    double copies = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        cycles.push_back(in->cycles[i]);
        copies += in->copies[i];
    }

    if (!config.trace) {
        // latency: geomean over the jobs of each job's median wall time
        // (the per-kernel headline); throughput: jobs per second of the
        // median pass, which Sort and Merge dominate, so a slowdown the
        // geomean dilutes still shows.
        EndToEnd e;
        e.setupS = median(pick(setupSeconds, setups));
        e.latencyMs = geomean(jobMedians);
        e.throughputPerS =
            static_cast<double>(n) / median(pick(passSeconds, quietPasses));
        e.cyclesGeomean = geomean(cycles);
        e.copies = copies;
        reportEndToEnd(report, e);
        std::cout << "  " << passSeconds.size() << " passes of " << n
                  << " jobs, median pass used "
                  << median(pick(passSeconds, quietPasses))
                  << " s; block-job dfs_nodes per pass (checked equal): "
                  << blockCounts.front() << "\n";
        return finish(config, report);
    }

    // Per-layer metrics from the traced passes.
    const double passes = tracedPasses > 0 ? tracedPasses : 1;
    auto totals = spans.totalsUnder("compile.job");
    double rootUs = totals["compile.job"].totalUs;
    auto layer = [&](const std::string &span, const std::string &metric) {
        const SpanLog::NameTotals &t = totals[span];
        report.metric(metric + "_ms", t.selfUs / 1000.0 / passes, "ms");
        report.metric(metric + "_share", rootUs > 0 ? t.selfUs / rootUs : 0,
                      "ratio");
    };
    layer("core.analysis", "core.analysis");
    layer("core.search", "core.search");
    layer("core.verify", "core.verify");
    layer("core.export", "core.export");
    layer("compile.job", "compile.harness");

    static const char *const kModes[] = {"block", "modulo"};
    for (std::size_t m = 0; m < in->machines.size(); ++m) {
        for (int mode = 0; mode < 2; ++mode) {
            std::vector<double> v;
            for (std::size_t i = 0; i < n; ++i) {
                if (in->jobs[i].machineIndex == m &&
                    in->jobs[i].job.pipelined == (mode == 1))
                    v.push_back(jobMedians[i]);
            }
            report.metric("compile.geomean_ms." + in->machines[m].name +
                              "." + kModes[mode],
                          geomean(v), "ms");
        }
    }
    std::cout << "  counts over one traced pass; modulo jobs run the "
                 "parallel II wavefront, so ii_attempts_wasted, "
                 "ii_cancel_latency_us and the modulo share of the core.* "
                 "counts are [timing-dependent]; block-job counts and "
                 "ii_attempts_useful repeat exactly\n";
    reportCoreCounts(report, counts);
    double untraced = median(passSeconds);
    report.metric("trace.overhead_pct",
                  untraced > 0
                      ? 100.0 * (median(tracedPassSeconds) / untraced - 1.0)
                      : 0.0,
                  "%");
    for (const std::string &problem : spans.verify())
        report.checkFailed("spans: " + problem);
    if (!config.traceOut.empty() && !spans.write(config.traceOut))
        report.checkFailed("cannot write spans to " + config.traceOut);
    std::cout << "  " << passSeconds.size() << " untraced and "
              << tracedPasses << " traced passes; " << spans.size()
              << " spans\n";
    return finish(config, report);
}

} // namespace csbench
