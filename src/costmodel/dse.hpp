/**
 * @file
 * Design-space enumeration for fleet sweeps: generate machine
 * configurations around the paper's four evaluation machines
 * (register-file style x FU mix x register budget x global buses),
 * seeded and reproducible, and reduce sweep outcomes to the Pareto
 * frontier of RF area/power/delay (costmodel) vs achieved II — the
 * paper's Figures 25-29 generalized from a four-point lookup into a
 * search over hundreds of candidate machines.
 *
 * The enumerator is deliberately machine-shaped, not kernel-shaped:
 * every point pairs one concrete Machine with the cost model's
 * area/power/delay for it, and the pipeline supplies the achieved-II
 * axis by scheduling kernels onto it. Points are unique by
 * configuration; the four paper evaluation machines always come
 * first so a sweep subsumes the reproduction.
 */

#ifndef CS_COSTMODEL_DSE_HPP
#define CS_COSTMODEL_DSE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "costmodel/machine_cost.hpp"
#include "machine/builders.hpp"
#include "machine/machine.hpp"

namespace cs {

/** One enumerated design point: a buildable machine plus its recipe. */
struct DsePoint
{
    /** Unique display name, e.g. "clustered2/a4m2d1p1s1l3/r192". */
    std::string name;
    /** One of kStdMachineStyles (machine/builders.hpp). */
    std::string style;
    StdMachineConfig config;
    Machine machine;
};

/** Enumeration knobs. */
struct DseSpaceConfig
{
    /** Seed for the variant draw; equal seeds enumerate identically. */
    std::uint64_t seed = 1;
    /**
     * Total points to produce (clamped to >= 4): the four paper
     * evaluation machines first, then seeded unique variants around
     * them (mix counts, register budget, bus count, style).
     */
    int variants = 64;
};

/**
 * Enumerate @p config.variants unique machine configurations. Every
 * mix keeps at least one unit of each class, so any Table-1 kernel
 * remains schedulable (possibly at a high II) on every point.
 * Deterministic: the same config yields the same points in the same
 * order, across runs and platforms (support/random.hpp).
 */
std::vector<DsePoint> enumerateMachineSpace(const DseSpaceConfig &config);

/** One machine's sweep outcome: cost-model axes + achieved II. */
struct DseOutcome
{
    std::string machine;
    double area = 0.0;
    double power = 0.0;
    double delay = 0.0;
    /**
     * Aggregate achieved II over the swept kernels (sum; lower is
     * better). Points where any kernel failed to schedule should be
     * excluded before the Pareto reduction.
     */
    double achievedIi = 0.0;
};

/**
 * Indices of the non-dominated outcomes, minimizing (area, power,
 * delay, achievedIi) jointly: an outcome is dominated when another is
 * <= on every axis and < on at least one. Returned in input order.
 */
std::vector<std::size_t>
paretoFrontier(const std::vector<DseOutcome> &outcomes);

} // namespace cs

#endif // CS_COSTMODEL_DSE_HPP
