/**
 * @file
 * Speculative parallel II search (pipeline/ii_search.hpp): the
 * determinism contract. The parallel search must return the same
 * achieved II and a byte-identical canonical listing as the serial
 * sweep — pinned against the same golden fingerprints the serial
 * equivalence suite uses — for every pipelined configuration, and the
 * attempt accounting must reconcile: attempts - attemptsWasted equals
 * the serial sweep's attempt count exactly.
 *
 * These tests are also the TSan gate for the cooperative-abort
 * machinery (see .claude/skills/verify/SKILL.md): the abort flags are
 * raised concurrently with running schedulers, so a data race here is
 * a protocol bug, not test flakiness.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/export.hpp"
#include "core/sched_context.hpp"
#include "kernels/kernels.hpp"
#include "machine/builders.hpp"
#include "pipeline/ii_search.hpp"
#include "pipeline/pipeline.hpp"
#include "support/fnv.hpp"
#include "support/logging.hpp"

#ifndef CS_TEST_DATA_DIR
#define CS_TEST_DATA_DIR "."
#endif

namespace cs {
namespace {

struct GoldenRecord
{
    int ii = 0;
    std::size_t bytes = 0;
    std::uint64_t hash = 0;
};

/** The modulo entries of tests/golden_listings.txt, keyed
 *  "kernel|machine|modulo" (same file the serial suite pins). */
const std::map<std::string, GoldenRecord> &
moduloGoldens()
{
    static const std::map<std::string, GoldenRecord> table = [] {
        std::map<std::string, GoldenRecord> out;
        std::ifstream in(std::string(CS_TEST_DATA_DIR) +
                         "/golden_listings.txt");
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string key;
            GoldenRecord record;
            fields >> key >> record.ii >> record.bytes >> std::hex >>
                record.hash >> std::dec;
            if (!key.empty() &&
                key.size() > 7 &&
                key.compare(key.size() - 7, 7, "|modulo") == 0)
                out[key] = record;
        }
        return out;
    }();
    return table;
}

Machine
machineByName(const std::string &name)
{
    if (name == "central")
        return makeCentral();
    if (name == "clustered2")
        return makeClustered({}, 2);
    if (name == "clustered4")
        return makeClustered({}, 4);
    CS_ASSERT(name == "distributed", "unknown machine ", name);
    return makeDistributed();
}

std::string
goldenKey(const std::string &kernelName, const std::string &machineName)
{
    std::string key = kernelName;
    for (char &c : key) {
        if (c == ' ')
            c = '_';
    }
    return key + "|" + machineName + "|modulo";
}

/**
 * Parametrized by machine so the TSan job can run the cheap machines
 * without paying for the multi-second clustered4/distributed sweeps.
 */
class ModuloParallelGolden
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(ModuloParallelGolden, MatchesSerialGoldens)
{
    setVerboseLogging(false);
    const std::string machineName = GetParam();
    Machine machine = machineByName(machineName);
    ASSERT_FALSE(moduloGoldens().empty())
        << "golden_listings.txt has no pipelined entries";

    ThreadPool pool(2);
    IiSearchConfig config;
    config.pool = &pool;
    config.maxInFlight = 3;

    for (const KernelSpec &spec : allKernels()) {
        Kernel kernel = spec.build();
        PipelineResult result = schedulePipelinedParallel(
            kernel, BlockId(0), machine, {}, 64, config);
        ASSERT_TRUE(result.success)
            << spec.name << " on " << machineName;

        auto it = moduloGoldens().find(
            goldenKey(spec.name, machineName));
        ASSERT_NE(it, moduloGoldens().end())
            << "no pipelined golden for " << spec.name << " on "
            << machineName;

        EXPECT_EQ(result.ii, it->second.ii)
            << spec.name << " on " << machineName
            << ": parallel search picked a different II";
        std::string listing = exportListing(
            result.inner.kernel, machine, result.inner.schedule);
        EXPECT_EQ(listing.size(), it->second.bytes);
        EXPECT_EQ(fnv1aBytes(listing.data(), listing.size()),
                  it->second.hash)
            << spec.name << " on " << machineName
            << ": parallel listing differs byte-for-byte from serial";

        // Accounting sanity (exact reconciliation against a serial
        // run is covered below on the cheap machines).
        EXPECT_GE(result.attempts, 1);
        EXPECT_GE(result.attemptsWasted, 0);
        EXPECT_GE(result.attempts - result.attemptsWasted, 1);
    }
}

INSTANTIATE_TEST_SUITE_P(AllMachines, ModuloParallelGolden,
                         ::testing::Values("central", "clustered2",
                                           "clustered4",
                                           "distributed"),
                         [](const auto &info) { return info.param; });

TEST(ModuloParallel, NullPoolIsTheSerialSweep)
{
    setVerboseLogging(false);
    Machine machine = makeClustered({}, 2);
    Kernel kernel = allKernels().front().build();

    PipelineResult serial =
        schedulePipelined(kernel, BlockId(0), machine);
    PipelineResult fallback = schedulePipelinedParallel(
        kernel, BlockId(0), machine, {}, 64, IiSearchConfig{});

    ASSERT_EQ(serial.success, fallback.success);
    EXPECT_EQ(serial.ii, fallback.ii);
    EXPECT_EQ(serial.attempts, fallback.attempts);
    EXPECT_EQ(fallback.attemptsWasted, 0);
    EXPECT_EQ(exportListing(serial.inner.kernel, machine,
                            serial.inner.schedule),
              exportListing(fallback.inner.kernel, machine,
                            fallback.inner.schedule));
}

TEST(ModuloParallel, AttemptAccountingReconcilesWithSerial)
{
    setVerboseLogging(false);
    ThreadPool pool(2);
    IiSearchConfig config;
    config.pool = &pool;
    config.maxInFlight = 4;

    for (const char *machineName : {"central", "clustered2"}) {
        Machine machine = machineByName(machineName);
        for (const KernelSpec &spec : allKernels()) {
            Kernel kernel = spec.build();
            PipelineResult serial =
                schedulePipelined(kernel, BlockId(0), machine);
            PipelineResult parallel = schedulePipelinedParallel(
                kernel, BlockId(0), machine, {}, 64, config);

            ASSERT_EQ(serial.success, parallel.success)
                << spec.name << " on " << machineName;
            EXPECT_EQ(serial.ii, parallel.ii);
            EXPECT_EQ(serial.resMii, parallel.resMii);
            EXPECT_EQ(serial.recMii, parallel.recMii);
            // The serial sweep stops at the winner; the speculative
            // search may launch past it, but every extra launch is
            // accounted as wasted.
            EXPECT_EQ(serial.attempts,
                      parallel.attempts - parallel.attemptsWasted)
                << spec.name << " on " << machineName;
            EXPECT_EQ(serial.attemptsWasted, 0);

            // The winner's stats carry the search counters, agreeing
            // with the result fields.
            const CounterSet &stats = parallel.inner.stats;
            EXPECT_EQ(stats.get("ii_search.attempts_launched"),
                      static_cast<std::uint64_t>(parallel.attempts));
            EXPECT_EQ(stats.get("ii_search.attempts_wasted"),
                      static_cast<std::uint64_t>(
                          parallel.attemptsWasted));
            // Cancelled attempts are those wasted ones that were
            // aborted mid-run (the rest finished before the winner).
            EXPECT_LE(stats.get("ii_search.attempts_cancelled"),
                      static_cast<std::uint64_t>(
                          parallel.attemptsWasted));
        }
    }
}

TEST(ModuloParallel, PreArmedAbortCancelsWithoutScheduling)
{
    setVerboseLogging(false);
    Machine machine = makeCentral();
    Kernel kernel = allKernels().front().build();
    BlockSchedulingContext context(kernel, BlockId(0), machine);

    std::atomic<bool> abort{true};
    BlockScheduler scheduler(context, SchedulerOptions{},
                             context.mii());
    scheduler.setAbortFlag(&abort);
    ScheduleResult result = scheduler.run();

    EXPECT_FALSE(result.success);
    EXPECT_TRUE(result.cancelled);
    EXPECT_EQ(result.failure, "cancelled");
    // Cancellation short-circuits before any operation lands.
    EXPECT_EQ(result.stats.get("ops_scheduled"), 0u);
}

TEST(ModuloParallel, UnarmedFlagLeavesRunUntouched)
{
    setVerboseLogging(false);
    Machine machine = makeClustered({}, 2);
    Kernel kernel = allKernels().front().build();
    BlockSchedulingContext context(kernel, BlockId(0), machine);

    PipelineResult reference =
        schedulePipelined(kernel, BlockId(0), machine);
    ASSERT_TRUE(reference.success);

    std::atomic<bool> abort{false};
    BlockScheduler scheduler(context, SchedulerOptions{},
                             reference.ii);
    scheduler.setAbortFlag(&abort);
    ScheduleResult armed = scheduler.run();

    ASSERT_TRUE(armed.success);
    EXPECT_FALSE(armed.cancelled);
    EXPECT_EQ(exportListing(armed.kernel, machine, armed.schedule),
              exportListing(reference.inner.kernel, machine,
                            reference.inner.schedule));
}

TEST(ModuloParallel, PipelineRoutesPipelinedJobsThroughParallelSearch)
{
    setVerboseLogging(false);
    Machine machine = makeClustered({}, 2);

    std::vector<ScheduleJob> jobs;
    for (const KernelSpec &spec : allKernels()) {
        ScheduleJob job;
        job.label = spec.name;
        job.kernel = spec.build();
        job.block = BlockId(0);
        job.machine = &machine;
        job.pipelined = true;
        jobs.push_back(std::move(job));
    }

    PipelineConfig serialConfig;
    serialConfig.numThreads = 2;
    SchedulingPipeline serialPipeline(serialConfig);
    std::vector<JobResult> serial = serialPipeline.run(jobs);

    PipelineConfig parallelConfig;
    parallelConfig.numThreads = 2;
    parallelConfig.iiSearchWorkers = 2;
    SchedulingPipeline parallelPipeline(parallelConfig);
    std::vector<JobResult> parallel = parallelPipeline.run(jobs);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(parallel[i].success) << jobs[i].label;
        EXPECT_EQ(serial[i].ii, parallel[i].ii) << jobs[i].label;
        EXPECT_EQ(serial[i].listing, parallel[i].listing)
            << jobs[i].label;
        EXPECT_EQ(serial[i].iiAttempts,
                  parallel[i].iiAttempts - parallel[i].iiAttemptsWasted)
            << jobs[i].label;
        EXPECT_EQ(serial[i].iiAttemptsWasted, 0);
    }

    // The cache entry records the achieved II and attempt accounting:
    // a repeat submission replays the populating run's numbers.
    std::vector<JobResult> warm = parallelPipeline.run(jobs);
    for (std::size_t i = 0; i < warm.size(); ++i) {
        EXPECT_TRUE(warm[i].cacheHit) << jobs[i].label;
        EXPECT_EQ(warm[i].ii, parallel[i].ii);
        EXPECT_EQ(warm[i].iiAttempts, parallel[i].iiAttempts);
        EXPECT_EQ(warm[i].iiAttemptsWasted,
                  parallel[i].iiAttemptsWasted);
    }

    // The merged pipeline counters expose the search's work.
    CounterSet stats = parallelPipeline.statsSnapshot();
    std::uint64_t launched = 0;
    for (const JobResult &r : parallel)
        launched += static_cast<std::uint64_t>(r.iiAttempts);
    EXPECT_EQ(stats.get("ii_search.attempts_launched"), launched);
}

} // namespace
} // namespace cs
