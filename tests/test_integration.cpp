/**
 * @file
 * End-to-end integration: every Table-1 kernel on every standard
 * register-file architecture, scheduled both as a plain block and
 * software-pipelined, structurally validated, executed on the
 * datapath simulator, and compared bit-for-bit against the scalar
 * reference. This is the repository's core correctness statement:
 * communication scheduling produces executable schedules on shared-
 * interconnect machines.
 */

#include <gtest/gtest.h>

#include "machine/builders.hpp"
#include "sim/harness.hpp"

namespace cs {
namespace {

struct Config
{
    int kernelIndex;
    int machineKind; // 0 central, 1 clustered2, 2 clustered4, 3 dist
    bool pipelined;
};

Machine
machineFor(int kind)
{
    switch (kind) {
      case 0: return makeCentral();
      case 1: return makeClustered({}, 2);
      case 2: return makeClustered({}, 4);
      default: return makeDistributed();
    }
}

const char *
machineName(int kind)
{
    switch (kind) {
      case 0: return "central";
      case 1: return "clustered2";
      case 2: return "clustered4";
      default: return "distributed";
    }
}

class EndToEnd : public ::testing::TestWithParam<Config>
{
};

TEST_P(EndToEnd, ScheduleValidateSimulateMatch)
{
    const Config &config = GetParam();
    const KernelSpec &spec = allKernels()[config.kernelIndex];
    Machine machine = machineFor(config.machineKind);

    KernelRunResult result =
        runKernel(spec, machine, config.pipelined);
    EXPECT_TRUE(result.scheduled);
    EXPECT_TRUE(result.valid);
    EXPECT_TRUE(result.simulated);
    EXPECT_TRUE(result.matches);
    for (const auto &p : result.problems)
        ADD_FAILURE() << spec.name << " on "
                      << machineName(config.machineKind) << ": " << p;
    EXPECT_GT(result.cyclesPerIteration, 0);
    // A central register file never needs copies.
    if (config.machineKind == 0) {
        EXPECT_EQ(result.copies, 0);
    }
}

std::vector<Config>
allConfigs()
{
    std::vector<Config> configs;
    for (int k = 0; k < 10; ++k) {
        for (int m = 0; m < 4; ++m) {
            configs.push_back({k, m, false});
            configs.push_back({k, m, true});
        }
    }
    return configs;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllMachines, EndToEnd, ::testing::ValuesIn(allConfigs()),
    [](const auto &info) {
        const Config &c = info.param;
        std::string name = allKernels()[c.kernelIndex].name;
        for (char &ch : name) {
            if (!isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        name += std::string("_") + machineName(c.machineKind);
        name += c.pipelined ? "_pipelined" : "_plain";
        return name;
    });

TEST(Performance, DistributedTracksCentral)
{
    // The headline result at coarse tolerance: the geometric-mean
    // slowdown of the distributed machine versus central is small,
    // and far smaller than its area/power advantage.
    Machine central = makeCentral();
    Machine distributed = makeDistributed();
    std::vector<double> speedups;
    for (const KernelSpec &spec : allKernels()) {
        if (spec.name == "Sort" || spec.name == "Merge")
            continue; // covered by the bench; keep the test quick
        int c = scheduleCyclesPerIteration(spec, central, true);
        int d = scheduleCyclesPerIteration(spec, distributed, true);
        speedups.push_back(static_cast<double>(c) / d);
    }
    double overall = geometricMean(speedups);
    EXPECT_GT(overall, 0.75); // paper: 0.98; shape, not exact value
    EXPECT_LE(overall, 1.001);
}

TEST(Performance, ClusteredPaysForCopies)
{
    Machine central = makeCentral();
    Machine clustered = makeClustered({}, 4);
    std::vector<double> speedups;
    for (const KernelSpec &spec : allKernels()) {
        if (spec.name == "Sort" || spec.name == "Merge")
            continue;
        int c = scheduleCyclesPerIteration(spec, central, true);
        int cl = scheduleCyclesPerIteration(spec, clustered, true);
        speedups.push_back(static_cast<double>(c) / cl);
    }
    double overall = geometricMean(speedups);
    // Copies cost real performance (paper: 0.82 overall).
    EXPECT_LT(overall, 1.0);
    EXPECT_GT(overall, 0.55);
}

} // namespace
} // namespace cs
