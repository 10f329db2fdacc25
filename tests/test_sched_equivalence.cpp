/**
 * @file
 * Schedule-equivalence suite: asserts that the canonical VLIW listing
 * produced for every Table-1 kernel on each of the four evaluation
 * machines — block and modulo paths — stays byte-identical across
 * internal scheduler rewrites (flat reservation tables, scratch
 * buffers, pruning masks, ...).
 *
 * The golden fingerprints in tests/golden_listings.txt were captured
 * from the reference implementation (std::map-backed reservation
 * table, allocation-per-probe candidate enumeration). Beside them,
 * tests/golden_counters.txt pins the search counters of every golden
 * job (dfs_nodes, probes, prunes, backtracks, budget trips, perms
 * found, copies, every reject.* reason), plus tight-budget variants of
 * a few block jobs: "same listing" is not the whole exactness claim,
 * since the search counters also steer the II planner. The table
 * acquire/release counts are left out; they measure journaling, not
 * the search. Regenerate both files ONLY for a change that
 * intentionally alters schedules or search work:
 *
 *     CS_WRITE_GOLDENS=1 build/tests/cs_tests \
 *         --gtest_filter='*SchedEquivalence*'
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "core/list_scheduler.hpp"
#include "core/modulo_scheduler.hpp"
#include "kernels/kernels.hpp"
#include "machine/builders.hpp"
#include "pipeline/pipeline.hpp"
#include "core/reject.hpp"
#include "support/fnv.hpp"
#include "support/logging.hpp"

#ifndef CS_TEST_DATA_DIR
#define CS_TEST_DATA_DIR "."
#endif

namespace cs {
namespace {

std::string
goldenPath()
{
    return std::string(CS_TEST_DATA_DIR) + "/golden_listings.txt";
}

std::string
countersPath()
{
    return std::string(CS_TEST_DATA_DIR) + "/golden_counters.txt";
}

struct GoldenRecord
{
    int ii = 0;
    std::size_t bytes = 0;
    std::uint64_t hash = 0;
};

/** key: "kernel|machine|mode" -> fingerprint. */
std::map<std::string, GoldenRecord> &
goldenTable()
{
    static std::map<std::string, GoldenRecord> table = [] {
        std::map<std::string, GoldenRecord> out;
        std::ifstream in(goldenPath());
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string key;
            GoldenRecord record;
            fields >> key >> record.ii >> record.bytes >> std::hex >>
                record.hash >> std::dec;
            if (!key.empty())
                out[key] = record;
        }
        return out;
    }();
    return table;
}

bool
writeGoldensRequested()
{
    const char *env = std::getenv("CS_WRITE_GOLDENS");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/** Accumulates fresh fingerprints when regenerating the golden file. */
std::map<std::string, GoldenRecord> &
freshTable()
{
    static std::map<std::string, GoldenRecord> table;
    return table;
}

/** key -> "name=value ..." in pinnedCounterNames() order. */
std::map<std::string, std::string> &
counterTable()
{
    static std::map<std::string, std::string> table = [] {
        std::map<std::string, std::string> out;
        std::ifstream in(countersPath());
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::size_t space = line.find(' ');
            if (space != std::string::npos)
                out[line.substr(0, space)] = line.substr(space + 1);
        }
        return out;
    }();
    return table;
}

std::map<std::string, std::string> &
freshCounters()
{
    static std::map<std::string, std::string> table;
    return table;
}

/** Every search counter the goldens pin (not table_acquires /
 *  table_releases, which count journaling work). */
const std::vector<std::string> &
pinnedCounterNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out = {
            "dfs_nodes",         "placement_attempts",
            "probe_reads",       "probe_writes",
            "prune_read_bus",    "prune_write_bus",
            "prune_route_mask",  "perm_backtracks",
            "perm_budget_exhausted", "read_perms_found",
            "write_perms_found", "copies_inserted",
            "copies_unwound"};
        for (const char *reason : kRejectReasonNames)
            out.push_back(std::string("reject.") + reason);
        return out;
    }();
    return names;
}

std::string
counterLine(const CounterSet &stats)
{
    std::string line;
    for (const std::string &name : pinnedCounterNames()) {
        if (!line.empty())
            line += ' ';
        line += name + "=" + std::to_string(stats.get(name));
    }
    return line;
}

/** Record (regenerating) or check one job's pinned counter line. */
void
checkCounters(const std::string &key, const std::string &line)
{
    if (writeGoldensRequested()) {
        freshCounters()[key] = line;
        return;
    }
    auto it = counterTable().find(key);
    ASSERT_NE(it, counterTable().end())
        << "no golden counters for " << key
        << " — regenerate with CS_WRITE_GOLDENS=1";
    EXPECT_EQ(line, it->second) << key << ": search counters changed";
}

std::string
kernelKeyOf(const KernelSpec &spec)
{
    // Keys must not contain whitespace (the golden files are
    // whitespace-separated); kernel names like "Block Warp" do.
    std::string key = spec.name;
    for (char &c : key) {
        if (c == ' ')
            c = '_';
    }
    return key;
}

class SchedEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{};

TEST_P(SchedEquivalence, ListingsMatchGoldens)
{
    setVerboseLogging(false);
    const auto &[machineName, pipelined] = GetParam();
    Machine machine = makeStdMachine(machineName).value();
    const bool regen = writeGoldensRequested();

    for (const KernelSpec &spec : allKernels()) {
        Kernel kernel = spec.build();
        int ii = 0;
        std::string listing;
        std::string counters;
        if (pipelined) {
            // Serial sweep: the counters are the winning attempt's.
            PipelineResult result =
                schedulePipelined(kernel, BlockId(0), machine);
            ASSERT_TRUE(result.success)
                << spec.name << " on " << machineName;
            ii = result.ii;
            listing = exportListing(result.inner.kernel, machine,
                                    result.inner.schedule);
            counters = counterLine(result.inner.stats);
        } else {
            ScheduleResult result =
                scheduleBlock(kernel, BlockId(0), machine);
            ASSERT_TRUE(result.success)
                << spec.name << " on " << machineName;
            listing = exportListing(result.kernel, machine,
                                    result.schedule);
            counters = counterLine(result.stats);
        }

        std::string key = kernelKeyOf(spec) + "|" + machineName + "|" +
                          (pipelined ? "modulo" : "block");
        checkCounters(key, counters);
        GoldenRecord fresh{ii, listing.size(),
                           fnv1aBytes(listing.data(), listing.size())};
        if (regen) {
            freshTable()[key] = fresh;
            continue;
        }
        auto it = goldenTable().find(key);
        ASSERT_NE(it, goldenTable().end())
            << "no golden fingerprint for " << key
            << " — regenerate with CS_WRITE_GOLDENS=1";
        EXPECT_EQ(fresh.ii, it->second.ii) << key;
        EXPECT_EQ(fresh.bytes, it->second.bytes) << key;
        EXPECT_EQ(fresh.hash, it->second.hash)
            << key << ": canonical listing changed byte-for-byte";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllMachines, SchedEquivalence,
    ::testing::Combine(::testing::Values("central", "clustered2",
                                         "clustered4", "distributed"),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_modulo" : "_block");
    });

/**
 * Tight permutation budgets on the two machines whose write searches
 * run deepest: budget trips land inside, at and just past a row's
 * held stubs, where the default budget never trips. Each job pins
 * whether it schedules, its listing hash when it does, and its search
 * counters either way.
 */
class SchedEquivalenceBudgets
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(SchedEquivalenceBudgets, TightBudgetsPinOutcomeAndCounters)
{
    setVerboseLogging(false);
    const std::string &machineName = GetParam();
    Machine machine = makeStdMachine(machineName).value();
    for (const char *name : {"Sort", "Merge", "FFT", "DCT"}) {
        const KernelSpec &spec = kernelByName(name);
        Kernel kernel = spec.build();
        for (int budget : {8, 64}) {
            SchedulerOptions options;
            options.permutationBudget = budget;
            ScheduleResult result =
                scheduleBlock(kernel, BlockId(0), machine, options);
            std::string outcome = "ok=0";
            if (result.success) {
                std::string listing = exportListing(
                    result.kernel, machine, result.schedule);
                std::ostringstream hash;
                hash << std::hex
                     << fnv1aBytes(listing.data(), listing.size());
                outcome = "ok=1 hash=" + hash.str();
            }
            checkCounters(kernelKeyOf(spec) + "|" + machineName +
                              "|block|budget" + std::to_string(budget),
                          outcome + " " + counterLine(result.stats));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllMachines, SchedEquivalenceBudgets,
                         ::testing::Values("clustered2", "distributed"),
                         [](const auto &info) { return info.param; });

/**
 * The same 80 golden fingerprints, but produced through the
 * SchedulingPipeline with its shared-analysis context cache and
 * in-flight dedup at their defaults (ON) — the exactness claim of
 * DESIGN.md §5i: analysis sharing must not move a single byte. Every
 * job is submitted twice with scheduler-option variants that differ
 * only in their content key (an unreached budget), so the second
 * variant schedules through a context-cache hit rather than a private
 * analysis, and both listings must still match the golden.
 */
class GoldenViaPipeline
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{};

TEST_P(GoldenViaPipeline, SharedAnalysisKeepsGoldenBytes)
{
    setVerboseLogging(false);
    if (writeGoldensRequested())
        GTEST_SKIP() << "goldens are regenerated by SchedEquivalence";
    const auto &[machineName, pipelined] = GetParam();
    Machine machine = makeStdMachine(machineName).value();

    std::vector<ScheduleJob> jobs;
    for (const KernelSpec &spec : allKernels()) {
        for (int variant = 0; variant < 2; ++variant) {
            ScheduleJob job;
            job.label = spec.name;
            job.kernel = spec.build();
            job.block = BlockId(0);
            job.machine = &machine;
            job.pipelined = pipelined;
            job.options.permutationBudget += variant;
            jobs.push_back(std::move(job));
        }
    }
    PipelineConfig config;
    config.numThreads = 4;
    SchedulingPipeline pipeline(config);
    std::vector<JobResult> results = pipeline.run(jobs);

    std::size_t i = 0;
    for (const KernelSpec &spec : allKernels()) {
        std::string key = kernelKeyOf(spec) + "|" + machineName + "|" +
                          (pipelined ? "modulo" : "block");
        auto it = goldenTable().find(key);
        ASSERT_NE(it, goldenTable().end()) << key;
        for (int variant = 0; variant < 2; ++variant, ++i) {
            const JobResult &result = results[i];
            ASSERT_TRUE(result.success) << key << " v" << variant;
            if (pipelined) {
                EXPECT_EQ(result.ii, it->second.ii) << key;
            }
            EXPECT_EQ(result.listing.size(), it->second.bytes) << key;
            EXPECT_EQ(fnv1aBytes(result.listing.data(),
                                 result.listing.size()),
                      it->second.hash)
                << key << " v" << variant
                << ": listing through the shared-analysis pipeline "
                   "diverged from the golden";
        }
    }
    // The variants really exercised the shared path: every job is a
    // distinct content key, so each of the 20 runs acquired a context,
    // and the 20 acquires share 10 analyses. (Hit counts are not
    // asserted: a concurrent variant pair may benignly race the first
    // build, which counts two misses and adopts one entry.)
    ContextCache::Stats contexts = pipeline.contextCache().stats();
    EXPECT_EQ(contexts.hits + contexts.misses,
              static_cast<std::uint64_t>(jobs.size()));
    EXPECT_EQ(contexts.entries, allKernels().size());
}

INSTANTIATE_TEST_SUITE_P(
    AllMachines, GoldenViaPipeline,
    ::testing::Combine(::testing::Values("central", "clustered2",
                                         "clustered4", "distributed"),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_modulo" : "_block");
    });

/** Runs last (gtest preserves file registration order within a suite
 *  only, so flush from a test-environment teardown instead). */
class GoldenWriter : public ::testing::Environment
{
  public:
    void
    TearDown() override
    {
        if (!writeGoldensRequested())
            return;
        writeCounters();
        if (freshTable().empty())
            return;
        std::ofstream out(goldenPath());
        out << "# Golden schedule fingerprints: key ii bytes "
               "fnv1a-hash(hex)\n"
            << "# Regenerate: CS_WRITE_GOLDENS=1 cs_tests "
               "--gtest_filter='*SchedEquivalence*'\n";
        for (const auto &[key, record] : freshTable()) {
            out << key << " " << record.ii << " " << record.bytes
                << " " << std::hex << record.hash << std::dec << "\n";
        }
        std::cerr << "wrote " << freshTable().size()
                  << " golden fingerprints to " << goldenPath() << "\n";
    }

  private:
    static void
    writeCounters()
    {
        if (freshCounters().empty())
            return;
        std::ofstream out(countersPath());
        out << "# Golden search counters: key [ok=0|1 [hash=...]] "
               "name=value...\n"
            << "# Regenerate: CS_WRITE_GOLDENS=1 cs_tests "
               "--gtest_filter='*SchedEquivalence*'\n";
        for (const auto &[key, line] : freshCounters())
            out << key << " " << line << "\n";
        std::cerr << "wrote " << freshCounters().size()
                  << " golden counter lines to " << countersPath()
                  << "\n";
    }
};

const auto *const kGoldenWriterRegistration =
    ::testing::AddGlobalTestEnvironment(new GoldenWriter);

} // namespace
} // namespace cs
