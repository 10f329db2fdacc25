/**
 * @file
 * Pipeline throughput: jobs/sec scheduling the full Table-1 kernel
 * suite across the four evaluation machines at 1, 2, 4, and
 * hardware-concurrency worker threads, cold cache and warm cache.
 * Emits one JSON line per thread count alongside the usual text
 * table.
 *
 * The batch sweeps three SchedulerOptions variants per (kernel,
 * machine) pair so no single job dominates the critical path: with
 * the plain suite, Sort alone is ~60% of the serial wall time, which
 * would cap even an infinite-thread speedup at ~1.7x. Parallel
 * speedup is meaningful only up to the box's core count — on a
 * single-core container every thread count measures ~1x.
 *
 * `--json-scaling` switches to the pipelined Table-1 suite with the
 * II worker pool sized to each thread count, fixed vs adaptive
 * attempt ordering, and emits one JSON document with per-point
 * attempts-wasted and cancellation-latency accounting (the
 * "scaling"/"pipeline" section of BENCH_sched.json).
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "kernels/kernels.hpp"
#include "pipeline/adaptive.hpp"
#include "pipeline/pipeline.hpp"
#include "support/logging.hpp"

namespace {

using namespace cs;

std::vector<ScheduleJob>
buildBatch(const std::vector<std::pair<std::string, Machine>> &machines)
{
    // Distinct maxDelay values re-key otherwise identical jobs without
    // materially changing the work each one does.
    const int delayVariants[] = {2048, 2047, 2046};
    std::vector<ScheduleJob> batch;
    for (const auto &[machineName, machine] : machines) {
        for (const KernelSpec &spec : allKernels()) {
            for (int maxDelay : delayVariants) {
                ScheduleJob job;
                job.label = spec.name + "@" + machineName + "/d" +
                            std::to_string(maxDelay);
                job.kernel = spec.build();
                job.block = BlockId(0);
                job.machine = &machine;
                job.options.maxDelay = maxDelay;
                job.pipelined = false;
                batch.push_back(std::move(job));
            }
        }
    }
    return batch;
}

double
runBatchMs(SchedulingPipeline &pipeline,
           const std::vector<ScheduleJob> &batch)
{
    auto start = std::chrono::steady_clock::now();
    std::vector<JobResult> results = pipeline.run(batch);
    auto end = std::chrono::steady_clock::now();
    for (const JobResult &result : results)
        CS_ASSERT(result.success, "batch job failed");
    return std::chrono::duration<double, std::milli>(end - start)
        .count();
}

std::vector<ScheduleJob>
buildPipelinedBatch(
    const std::vector<std::pair<std::string, Machine>> &machines)
{
    std::vector<ScheduleJob> batch;
    for (const auto &[machineName, machine] : machines) {
        if (machineName != "Central" && machineName != "Clustered (2)")
            continue; // the cheap suite; clustered4/distributed are
                      // minutes of wall time per point
        for (const KernelSpec &spec : allKernels()) {
            ScheduleJob job;
            job.label = spec.name + "@" + machineName + "/modulo";
            job.kernel = spec.build();
            job.block = BlockId(0);
            job.machine = &machine;
            job.pipelined = true;
            batch.push_back(std::move(job));
        }
    }
    CS_ASSERT(!batch.empty(), "pipelined batch matched no machine");
    return batch;
}

/**
 * End-to-end scaling sweep (--json-scaling): the pipelined Table-1
 * suite through full SchedulingPipeline instances whose II pool is
 * sized to each thread count, fixed vs adaptive ordering. This is the
 * integration-level companion to bench_modulo_ii --scaling: same
 * curve, but through the job pipeline (cache keying, job fan-out, II
 * pool sharing) rather than a bare II search. Per point it records
 * the speculative accounting the multi-core story gates on —
 * attempts wasted and cancellation latency.
 */
int
runScalingMode()
{
    auto machines = bench::evaluationMachines();
    std::vector<ScheduleJob> batch = buildPipelinedBatch(machines);

    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<unsigned> threadCounts = {1, 2, 4};
    if (std::find(threadCounts.begin(), threadCounts.end(), hw) ==
        threadCounts.end())
        threadCounts.push_back(hw);

    std::cout << "{\n  \"schema\": \"cs-pipeline-scaling-v1\",\n"
              << "  \"jobs\": " << batch.size()
              << ",\n  \"hardware_concurrency\": " << hw
              << ",\n  \"points\": [\n";
    bool first = true;
    for (unsigned threads : threadCounts) {
        for (bool adaptive : {false, true}) {
            PortfolioStats::global().clear();
            std::vector<ScheduleJob> jobs = batch;
            for (ScheduleJob &job : jobs)
                job.options.adaptiveOrdering = adaptive;
            SchedulingPipeline pipeline(
                {.numThreads = threads,
                 .cacheCapacity = 2 * jobs.size(),
                 .iiSearchWorkers = threads});
            double coldMs = runBatchMs(pipeline, jobs);
            CounterSet stats = pipeline.statsSnapshot();
            if (!first)
                std::cout << ",\n";
            first = false;
            std::cout << "    {\"threads\":" << threads
                      << ",\"order\":\""
                      << (adaptive ? "adaptive" : "fixed")
                      << "\",\"cold_ms\":" << TextTable::num(coldMs, 2)
                      << ",\"jobs_per_sec\":"
                      << TextTable::num(
                             1000.0 * static_cast<double>(jobs.size()) /
                                 coldMs,
                             2)
                      << ",\"attempts_launched\":"
                      << stats.get("ii_search.attempts_launched")
                      << ",\"attempts_wasted\":"
                      << stats.get("ii_search.attempts_wasted")
                      << ",\"attempts_cancelled\":"
                      << stats.get("ii_search.attempts_cancelled")
                      << ",\"cancel_latency_us\":"
                      << stats.get("ii_search.cancel_latency_us")
                      << ",\"serial_inline\":"
                      << stats.get("ii_search.serial_inline") << "}";
        }
    }
    std::cout << "\n  ]\n}\n";
    PortfolioStats::global().clear();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerboseLogging(false);
    if (argc > 1 && std::string(argv[1]) == "--json-scaling")
        return runScalingMode();

    auto machines = bench::evaluationMachines();
    std::vector<ScheduleJob> batch = buildBatch(machines);

    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<unsigned> threadCounts = {1, 2, 4};
    if (std::find(threadCounts.begin(), threadCounts.end(), hw) ==
        threadCounts.end())
        threadCounts.push_back(hw);

    printBanner(std::cout,
                "Pipeline throughput: " + std::to_string(batch.size()) +
                    " Table-1 jobs, cold vs warm cache (hardware "
                    "concurrency " +
                    std::to_string(hw) + ")");

    TextTable table({"threads", "cold ms", "cold jobs/s", "warm ms",
                     "warm jobs/s", "warm hit rate", "speedup vs 1t"});
    double coldMsAtOneThread = 0.0;
    std::string jsonLines;
    for (unsigned threads : threadCounts) {
        SchedulingPipeline pipeline(
            {.numThreads = threads,
             .cacheCapacity = 2 * batch.size()});

        double coldMs = runBatchMs(pipeline, batch);
        ScheduleCache::Stats cold = pipeline.cache().stats();
        CS_ASSERT(cold.hits == 0, "cold run should not hit the cache");

        double warmMs = runBatchMs(pipeline, batch);
        ScheduleCache::Stats warm = pipeline.cache().stats();
        double warmHitRate =
            static_cast<double>(warm.hits - cold.hits) /
            static_cast<double>(batch.size());

        if (threads == 1)
            coldMsAtOneThread = coldMs;
        double speedup = coldMsAtOneThread / coldMs;

        double coldJobsPerSec = 1000.0 * batch.size() / coldMs;
        double warmJobsPerSec = 1000.0 * batch.size() / warmMs;
        table.addRow({
            std::to_string(threads),
            TextTable::num(coldMs, 1),
            TextTable::num(coldJobsPerSec, 1),
            TextTable::num(warmMs, 1),
            TextTable::num(warmJobsPerSec, 1),
            TextTable::num(warmHitRate, 3),
            TextTable::num(speedup, 2),
        });

        jsonLines += "{\"bench\":\"pipeline_throughput\",\"threads\":" +
                     std::to_string(threads) +
                     ",\"jobs\":" + std::to_string(batch.size()) +
                     ",\"cold_ms\":" + TextTable::num(coldMs, 2) +
                     ",\"cold_jobs_per_sec\":" +
                     TextTable::num(coldJobsPerSec, 2) +
                     ",\"warm_ms\":" + TextTable::num(warmMs, 2) +
                     ",\"warm_jobs_per_sec\":" +
                     TextTable::num(warmJobsPerSec, 2) +
                     ",\"warm_hit_rate\":" +
                     TextTable::num(warmHitRate, 3) +
                     ",\"speedup_vs_1_thread\":" +
                     TextTable::num(speedup, 2) +
                     ",\"hardware_concurrency\":" + std::to_string(hw) +
                     "}\n";
    }

    table.print(std::cout);
    std::cout << "\n" << jsonLines;
    return 0;
}
