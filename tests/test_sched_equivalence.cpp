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
 * table, allocation-per-probe candidate enumeration). Regenerate them
 * ONLY for a change that intentionally alters schedules:
 *
 *     CS_WRITE_GOLDENS=1 build/tests/cs_tests \
 *         --gtest_filter='SchedEquivalence*'
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/export.hpp"
#include "core/list_scheduler.hpp"
#include "core/modulo_scheduler.hpp"
#include "kernels/kernels.hpp"
#include "machine/builders.hpp"
#include "pipeline/pipeline.hpp"
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

class SchedEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{};

TEST_P(SchedEquivalence, ListingsMatchGoldens)
{
    setVerboseLogging(false);
    const auto &[machineName, pipelined] = GetParam();
    Machine machine = machineByName(machineName);
    const bool regen = writeGoldensRequested();

    for (const KernelSpec &spec : allKernels()) {
        Kernel kernel = spec.build();
        int ii = 0;
        std::string listing;
        if (pipelined) {
            PipelineResult result =
                schedulePipelined(kernel, BlockId(0), machine);
            ASSERT_TRUE(result.success)
                << spec.name << " on " << machineName;
            ii = result.ii;
            listing = exportListing(result.inner.kernel, machine,
                                    result.inner.schedule);
        } else {
            ScheduleResult result =
                scheduleBlock(kernel, BlockId(0), machine);
            ASSERT_TRUE(result.success)
                << spec.name << " on " << machineName;
            listing = exportListing(result.kernel, machine,
                                    result.schedule);
        }

        // Keys must not contain whitespace (the golden file is
        // whitespace-separated); kernel names like "Block Warp" do.
        std::string kernelKey = spec.name;
        for (char &c : kernelKey) {
            if (c == ' ')
                c = '_';
        }
        std::string key = kernelKey + "|" + machineName + "|" +
                          (pipelined ? "modulo" : "block");
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
    Machine machine = machineByName(machineName);

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
        std::string kernelKey = spec.name;
        for (char &c : kernelKey) {
            if (c == ' ')
                c = '_';
        }
        std::string key = kernelKey + "|" + machineName + "|" +
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
        if (!writeGoldensRequested() || freshTable().empty())
            return;
        std::ofstream out(goldenPath());
        out << "# Golden schedule fingerprints: key ii bytes "
               "fnv1a-hash(hex)\n"
            << "# Regenerate: CS_WRITE_GOLDENS=1 cs_tests "
               "--gtest_filter='SchedEquivalence*'\n";
        for (const auto &[key, record] : freshTable()) {
            out << key << " " << record.ii << " " << record.bytes
                << " " << std::hex << record.hash << std::dec << "\n";
        }
        std::cerr << "wrote " << freshTable().size()
                  << " golden fingerprints to " << goldenPath() << "\n";
    }
};

const auto *const kGoldenWriterRegistration =
    ::testing::AddGlobalTestEnvironment(new GoldenWriter);

} // namespace
} // namespace cs
