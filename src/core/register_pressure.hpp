/**
 * @file
 * Register allocation analysis (the paper's Section 7 future work).
 *
 * When communication scheduling assigns a communication to a route
 * through a register file, it implicitly allocates a register there
 * from the value's arrival (the writer's completion) until its last
 * read out of that file. This pass makes that implicit allocation
 * explicit: it computes, for every register file, the live intervals
 * of every value staged through it and the peak simultaneous demand,
 * and reports files whose demand exceeds their capacity.
 *
 * For modulo schedules a value produced in iteration k may be read
 * d iterations later; its interval spans d*II extra cycles, and the
 * steady-state demand of one interval of length L is ceil(L / II)
 * overlapping instances — the classic modulo-variable-expansion
 * count. The analysis accounts for both.
 */

#ifndef CS_CORE_REGISTER_PRESSURE_HPP
#define CS_CORE_REGISTER_PRESSURE_HPP

#include <optional>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "ir/kernel.hpp"
#include "machine/machine.hpp"

namespace cs {

/** One value's stay in one register file. */
struct LiveInterval
{
    RegFileId regFile;
    ValueId value;
    /** Cycle the value arrives (writer completion). */
    int from = 0;
    /** Last cycle it is read out of this file (iteration-adjusted). */
    int to = 0;

    int length() const { return to - from + 1; }

    /**
     * Registers this interval occupies (1 for plain schedules;
     * the modulo-expansion count for pipelined ones). Filled by
     * analyzeRegisterPressure.
     */
    int demand = 1;

    /** Registers this interval occupies in steady state. */
    int
    instances(int ii) const
    {
        if (ii <= 0)
            return 1;
        return (length() + ii - 1) / ii;
    }
};

/** Demand summary for one register file. */
struct RegFilePressure
{
    RegFileId regFile;
    /** Peak simultaneous live values (plain) or steady-state demand
     *  including modulo variable expansion (pipelined). */
    int required = 0;
    int capacity = 0;

    bool fits() const { return required <= capacity; }
};

/** Whole-schedule register allocation report. */
struct PressureReport
{
    std::vector<LiveInterval> intervals;
    std::vector<RegFilePressure> files;
    /** Files whose demand exceeds capacity. */
    std::vector<RegFileId> overflows;

    bool fits() const { return overflows.empty(); }
    /** Max over files of required/capacity. */
    double worstUtilization() const;
};

/**
 * Analyze the (validated) schedule's implicit register allocation.
 * Live-in communications contribute an interval from cycle zero;
 * values with no recorded read out of a file occupy it for one cycle.
 */
PressureReport analyzeRegisterPressure(const Kernel &kernel,
                                       const Machine &machine,
                                       const BlockSchedule &schedule);

/** Human-readable summary (benches, examples). */
std::string describePressure(const Machine &machine,
                             const PressureReport &report);

/**
 * One planned spill, per the paper's Section 7 recipe: copy the value
 * out of the overflowing file just after it is computed and back in
 * just before use, parking it in a file with headroom.
 */
struct SpillPlan
{
    ValueId value;
    RegFileId from;  ///< overflowing file
    RegFileId park;  ///< file with headroom, copy-reachable both ways
    int copies = 2;  ///< copy-out plus copy-in
};

/**
 * Plan spills until every file fits (longest intervals evicted
 * first). Returns the plan, empty when the schedule already fits, or
 * nullopt when the schedule is unspillable: an overflowing file has
 * no copy-reachable park file with headroom, or too few intervals to
 * evict.
 */
std::optional<std::vector<SpillPlan>> planSpills(
    const Machine &machine, const PressureReport &report);

} // namespace cs

#endif // CS_CORE_REGISTER_PRESSURE_HPP
