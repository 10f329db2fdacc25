/**
 * @file
 * Trace-equivalence suite: scheduling with the span tracer ENABLED
 * must produce byte-identical listings to scheduling with it disabled.
 * The tracer is a pure observer — instrumentation only reads scheduler
 * state — so every Table-1 kernel on each evaluation machine, block
 * and modulo paths, is held against the same golden fingerprints that
 * tests/test_sched_equivalence.cpp checks with tracing off.
 *
 * The instantiation names mirror that suite (<machine>_block /
 * <machine>_modulo) so the slow big-machine modulo combinations route
 * to the perf label exactly like the tracing-off runs do.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include "core/export.hpp"
#include "core/list_scheduler.hpp"
#include "core/modulo_scheduler.hpp"
#include "kernels/kernels.hpp"
#include "machine/builders.hpp"
#include "support/fnv.hpp"
#include "support/logging.hpp"
#include "support/trace.hpp"

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

/** key: "kernel|machine|mode" -> fingerprint (same file the
 *  tracing-off equivalence suite reads). */
const std::map<std::string, GoldenRecord> &
goldenTable()
{
    static std::map<std::string, GoldenRecord> table = [] {
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
            if (!key.empty())
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

class TraceEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{};

TEST_P(TraceEquivalence, TracingOnMatchesGoldens)
{
    setVerboseLogging(false);
    const auto &[machineName, pipelined] = GetParam();
    Machine machine = machineByName(machineName);

    const bool wasEnabled = trace::enabled();
    trace::setEnabled(true);
    trace::clear();

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

        std::string kernelKey = spec.name;
        for (char &c : kernelKey) {
            if (c == ' ')
                c = '_';
        }
        std::string key = kernelKey + "|" + machineName + "|" +
                          (pipelined ? "modulo" : "block");
        auto it = goldenTable().find(key);
        ASSERT_NE(it, goldenTable().end())
            << "no golden fingerprint for " << key;
        EXPECT_EQ(ii, it->second.ii) << key << " with tracing enabled";
        EXPECT_EQ(listing.size(), it->second.bytes)
            << key << " with tracing enabled";
        EXPECT_EQ(fnv1aBytes(listing.data(), listing.size()),
                  it->second.hash)
            << key
            << ": tracing changed the schedule (the tracer must be a "
               "pure observer)";
    }

    trace::setEnabled(wasEnabled);
}

INSTANTIATE_TEST_SUITE_P(
    AllMachines, TraceEquivalence,
    ::testing::Combine(::testing::Values("central", "clustered2",
                                         "clustered4", "distributed"),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_modulo" : "_block");
    });

} // namespace
} // namespace cs
