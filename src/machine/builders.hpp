/**
 * @file
 * Standard machine configurations from the paper's evaluation
 * (Section 5, Figures 25-27): central, clustered (2 or 4 clusters, with
 * copy units driving global buses), and distributed register-file
 * variants of the Imagine functional-unit mix, plus the small Figure-5
 * machine used by the motivating example.
 */

#ifndef CS_MACHINE_BUILDERS_HPP
#define CS_MACHINE_BUILDERS_HPP

#include <optional>
#include <string_view>

#include "machine/builder.hpp"
#include "machine/machine.hpp"

namespace cs {

/**
 * Functional-unit mix. Defaults to the paper's Imagine configuration:
 * six adders, three multipliers, a divider, a permutation unit, a
 * scratchpad, and four load/store units.
 */
struct FuMix
{
    int adders = 6;
    int multipliers = 3;
    int dividers = 1;
    int permuters = 1;
    int scratchpads = 1;
    int loadStores = 4;

    int
    total() const
    {
        return adders + multipliers + dividers + permuters +
               scratchpads + loadStores;
    }

    /** Arithmetic units only (the paper's "twelve functional units"). */
    int
    arithmetic() const
    {
        return adders + multipliers + dividers + permuters + scratchpads;
    }

    /** Scale every unit count by an integer factor (cost studies). */
    FuMix scaled(int factor) const;
};

/** Shared knobs for the standard machines. */
struct StdMachineConfig
{
    FuMix mix;
    /** Total architectural registers, divided among the files. */
    int totalRegisters = 256;
    /** Global result buses in the distributed machine (paper: ten). */
    int numGlobalBuses = 10;
    /**
     * Force unit latency for all opcodes (the paper's illustrative
     * examples assume it; the evaluation machines use realistic ones).
     */
    bool unitLatency = false;
};

/**
 * Central register file (Figure 1/25): one register file; every
 * functional-unit input and output has a dedicated port and wire.
 */
Machine makeCentral(const StdMachineConfig &config = {});

/**
 * Clustered register files (Figure 2/26): units divided into
 * @p numClusters clusters, each with its own register file accessed
 * through dedicated ports; one copy unit per cluster drives a global
 * bus into a shared copy-in write port on every other cluster's file.
 */
Machine makeClustered(const StdMachineConfig &config, int numClusters);

/**
 * Distributed register files (Figure 3/27): a dedicated two-port
 * register file in front of every functional-unit input; all outputs
 * share @c numGlobalBuses global buses, any of which can drive the
 * single shared write port of any register file. All units except the
 * scratchpad implement the copy operation (paper Section 5).
 */
Machine makeDistributed(const StdMachineConfig &config = {});

/**
 * Style names of the four evaluation machines, in the order the
 * design-space sweep draws them by index (costmodel/dse).
 */
inline constexpr std::string_view kStdMachineStyles[] = {
    "central", "clustered2", "clustered4", "distributed"};

/**
 * The evaluation machine of @p style, one of kStdMachineStyles, built
 * with @p config; nothing for any other name.
 */
std::optional<Machine> makeStdMachine(std::string_view style,
                                      const StdMachineConfig &config = {});

/**
 * The motivating example's machine (Figure 5): two adders and a
 * load/store unit, three register files, and two shared buses; the
 * center file's single write port is drivable by either bus. All
 * latencies are one cycle, as in the paper's illustration.
 */
Machine makeFigure5Machine();

} // namespace cs

#endif // CS_MACHINE_BUILDERS_HPP
