/**
 * @file
 * Engineering-health microbenchmarks of the scheduler itself. Two
 * front-ends share one binary:
 *
 *  - default: the original google-benchmark suite (wall-clock cost of
 *    machine construction, kernel construction, DDG building, and
 *    scheduling a few representative kernel/machine pairs);
 *
 *  - `--json [--reps N] [--filter SUBSTR]`: a machine-readable perf
 *    harness that schedules every Table-1 kernel on the four
 *    evaluation machines (block path) plus a pipelined subset, takes
 *    the median wall time of N repetitions per entry, and prints one
 *    JSON document with the medians and the scheduler's effort
 *    counters (probes, prunes, backtracks, table ops). bench/run_perf.sh
 *    wraps this mode to maintain BENCH_sched.json, the repo's
 *    committed perf trajectory.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/list_scheduler.hpp"
#include "core/modulo_scheduler.hpp"
#include "core/sched_context.hpp"
#include "ir/ddg.hpp"
#include "kernels/kernels.hpp"
#include "machine/builders.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/stats.hpp"

namespace {

using namespace cs;

void
BM_BuildDistributedMachine(benchmark::State &state)
{
    for (auto _ : state) {
        Machine m = makeDistributed();
        benchmark::DoNotOptimize(m.numBuses());
    }
}
BENCHMARK(BM_BuildDistributedMachine);

void
BM_BuildKernel(benchmark::State &state)
{
    const KernelSpec &spec =
        allKernels()[static_cast<std::size_t>(state.range(0))];
    for (auto _ : state) {
        Kernel k = spec.build();
        benchmark::DoNotOptimize(k.numOperations());
    }
    state.SetLabel(spec.name);
}
BENCHMARK(BM_BuildKernel)->DenseRange(0, 9);

void
BM_Ddg(benchmark::State &state)
{
    Machine machine = makeCentral();
    Kernel kernel = kernelByName("Sort").build();
    for (auto _ : state) {
        Ddg ddg(kernel, BlockId(0), machine);
        benchmark::DoNotOptimize(ddg.criticalPathLength());
    }
}
BENCHMARK(BM_Ddg);

void
BM_ScheduleBlock(benchmark::State &state)
{
    setVerboseLogging(false);
    Machine machine = state.range(1) == 0 ? makeCentral()
                      : state.range(1) == 1
                          ? makeClustered({}, 4)
                          : makeDistributed();
    const KernelSpec &spec =
        allKernels()[static_cast<std::size_t>(state.range(0))];
    Kernel kernel = spec.build();
    for (auto _ : state) {
        ScheduleResult r = scheduleBlock(kernel, BlockId(0), machine);
        benchmark::DoNotOptimize(r.success);
    }
    state.SetLabel(spec.name + " / " + machine.name());
}
BENCHMARK(BM_ScheduleBlock)
    ->Args({1, 0}) // FFT on central
    ->Args({1, 1}) // FFT on clustered4
    ->Args({1, 2}) // FFT on distributed
    ->Args({3, 2}) // FIR-FP on distributed
    ->Args({0, 2}) // DCT on distributed
    ->Unit(benchmark::kMillisecond);

void
BM_SchedulePipelined(benchmark::State &state)
{
    setVerboseLogging(false);
    Machine machine = makeDistributed();
    const KernelSpec &spec =
        allKernels()[static_cast<std::size_t>(state.range(0))];
    Kernel kernel = spec.build();
    for (auto _ : state) {
        PipelineResult r =
            schedulePipelined(kernel, BlockId(0), machine);
        benchmark::DoNotOptimize(r.ii);
    }
    state.SetLabel(spec.name + " / distributed (modulo)");
}
BENCHMARK(BM_SchedulePipelined)
    ->Arg(1) // FFT
    ->Arg(5) // Block Warp
    ->Arg(3) // FIR-FP
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// JSON perf-harness mode (--json)
// ---------------------------------------------------------------------------

struct JsonEntry
{
    std::string kernel;
    std::string machineName;
    std::string mode; ///< "block" or "modulo"
    std::string label;
    bool success = false;
    double medianMs = 0.0;
    CounterSet stats;
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

/** Counters worth tracking release-over-release. */
const char *const kTrackedCounters[] = {
    "ops_scheduled",     "placement_attempts",  "comm_sched_calls",
    "perm_backtracks",   "perm_budget_exhausted",
    "probe_reads",       "probe_writes",        "prune_read_bus",
    "prune_write_bus",   "prune_route_mask",    "table_acquires",
    "table_releases",    "copies_inserted",     "copies_unwound",
    "write_perm_bus_prechecks",
};

/** Permutation-search effort, grouped under "search" so the perf
 *  trajectory records the DFS size (DESIGN.md section 5d). */
const char *const kSearchCounters[] = {
    "dfs_nodes",
};

void
printJsonEntry(std::ostream &os, const JsonEntry &entry)
{
    os << "    {\"kernel\":\"" << entry.kernel << "\",\"machine\":\""
       << entry.machineName << "\",\"mode\":\"" << entry.mode
       << "\",\"success\":" << (entry.success ? "true" : "false")
       << ",\"median_ms\":" << entry.medianMs << ",\"counters\":";
    writeCounterObject(os, entry.stats, kTrackedCounters);
    os << ",\"search\":";
    writeCounterObject(os, entry.stats, kSearchCounters);
    os << "}";
}

int
runJsonMode(int reps, const std::string &filter)
{
    setVerboseLogging(false);

    std::vector<std::pair<std::string, Machine>> machines;
    machines.emplace_back("central", makeCentral());
    machines.emplace_back("clustered2", makeClustered({}, 2));
    machines.emplace_back("clustered4", makeClustered({}, 4));
    machines.emplace_back("distributed", makeDistributed());

    struct Job
    {
        const KernelSpec *spec;
        const std::pair<std::string, Machine> *machine;
        bool pipelined;
    };
    std::vector<Job> jobs;
    for (const auto &m : machines) {
        for (const KernelSpec &spec : allKernels())
            jobs.push_back({&spec, &m, false});
    }
    // Pipelined path: representative subset on the distributed machine
    // (the full pipelined suite is minutes of wall time; the block
    // path above is the hot loop this file tracks).
    for (const char *name : {"FFT", "Block Warp", "FIR-FP"})
        jobs.push_back({&kernelByName(name), &machines.back(), true});

    std::vector<JsonEntry> entries;
    for (const Job &job : jobs) {
        JsonEntry entry;
        entry.kernel = job.spec->name;
        entry.machineName = job.machine->first;
        entry.mode = job.pipelined ? "modulo" : "block";
        entry.label = entry.kernel + "@" + entry.machineName + "#" +
                      entry.mode;
        if (!filter.empty() &&
            entry.label.find(filter) == std::string::npos) {
            continue;
        }

        Kernel kernel = job.spec->build();
        std::vector<double> times;
        times.reserve(static_cast<std::size_t>(reps));
        for (int r = 0; r < reps; ++r) {
            auto start = std::chrono::steady_clock::now();
            if (job.pipelined) {
                PipelineResult result = schedulePipelined(
                    kernel, BlockId(0), job.machine->second);
                entry.success = result.success;
                if (r == reps - 1)
                    entry.stats = result.inner.stats;
            } else {
                ScheduleResult result = scheduleBlock(
                    kernel, BlockId(0), job.machine->second);
                entry.success = result.success;
                if (r == reps - 1)
                    entry.stats = result.stats;
            }
            auto end = std::chrono::steady_clock::now();
            times.push_back(
                std::chrono::duration<double, std::milli>(end - start)
                    .count());
        }
        entry.medianMs = median(times);
        std::cerr << "  " << entry.label << ": " << entry.medianMs
                  << " ms\n";
        entries.push_back(std::move(entry));
    }

    std::cout << "{\n  \"schema\": \"cs-sched-perf-v1\",\n  \"reps\": "
              << reps << ",\n  \"entries\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        printJsonEntry(std::cout, entries[i]);
        std::cout << (i + 1 < entries.size() ? ",\n" : "\n");
    }
    std::cout << "  ]\n}\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    int reps = 5;
    std::string filter;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (std::strcmp(argv[i], "--reps") == 0 &&
                   i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--filter") == 0 &&
                   i + 1 < argc) {
            filter = argv[++i];
        } else if (json) {
            std::cerr << "usage: bench_sched_perf [--json [--reps N] "
                         "[--filter SUBSTR]]\n";
            return 2;
        }
    }
    if (json) {
        if (reps < 1) {
            std::cerr << "--reps must be >= 1\n";
            return 2;
        }
        return runJsonMode(reps, filter);
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
