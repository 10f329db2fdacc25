#include "core/register_pressure.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "support/logging.hpp"

namespace cs {

double
PressureReport::worstUtilization() const
{
    double worst = 0.0;
    for (const RegFilePressure &file : files) {
        if (file.capacity > 0) {
            worst = std::max(worst, static_cast<double>(file.required) /
                                        file.capacity);
        }
    }
    return worst;
}

PressureReport
analyzeRegisterPressure(const Kernel &kernel, const Machine &machine,
                        const BlockSchedule &schedule)
{
    PressureReport report;
    const int ii = schedule.ii();

    // Gather per (file, value): arrival and last read.
    std::map<std::pair<std::uint32_t, std::uint32_t>,
             std::pair<int, int>>
        spans; // -> (from, to)

    for (const RouteRecord &route : schedule.routes()) {
        const Placement &rp = schedule.placement(route.reader);
        if (!rp.scheduled)
            continue;
        RegFileId rf = machine.readPortRegFile(route.readStub.readPort);
        int read_cycle = rp.cycle + route.distance * ii;

        int from = 0; // live-ins occupy the file from the start
        if (route.writer.valid()) {
            const Placement &wp = schedule.placement(route.writer);
            if (!wp.scheduled)
                continue;
            from = wp.cycle +
                   machine.latency(kernel.operation(route.writer)
                                       .opcode);
        }
        auto key = std::make_pair(rf.index(), route.value.index());
        auto it = spans.find(key);
        if (it == spans.end()) {
            spans[key] = {from, std::max(from, read_cycle)};
        } else {
            it->second.first = std::min(it->second.first, from);
            it->second.second =
                std::max(it->second.second, read_cycle);
        }
    }

    for (const auto &[key, span] : spans) {
        LiveInterval interval;
        interval.regFile = RegFileId(key.first);
        interval.value = ValueId(key.second);
        interval.from = span.first;
        interval.to = span.second;
        interval.demand = interval.instances(ii);
        report.intervals.push_back(interval);
    }

    // Demand per file. For a plain schedule: max interval overlap.
    // For a modulo schedule: the sum of per-interval instance counts
    // landing in each modulo slot, maximized over slots — but the
    // standard conservative steady-state figure is the sum of
    // modulo-expansion counts of intervals alive at each slot; we use
    // interval overlap on the folded timeline.
    std::map<std::uint32_t, std::vector<std::pair<int, int>>> deltas;
    for (const LiveInterval &interval : report.intervals) {
        if (ii <= 0) {
            deltas[interval.regFile.index()].push_back(
                {interval.from, +1});
            deltas[interval.regFile.index()].push_back(
                {interval.to + 1, -1});
        } else {
            // Fold: an interval of length L contributes
            // ceil(L / II) registers for its residue span.
            int instances = interval.instances(ii);
            deltas[interval.regFile.index()].push_back(
                {0, instances});
            deltas[interval.regFile.index()].push_back(
                {1 << 30, -instances});
        }
    }

    for (std::size_t r = 0; r < machine.numRegFiles(); ++r) {
        RegFilePressure pressure;
        pressure.regFile = RegFileId(static_cast<std::uint32_t>(r));
        pressure.capacity = machine.regFile(pressure.regFile).capacity;
        auto it = deltas.find(static_cast<std::uint32_t>(r));
        if (it != deltas.end()) {
            std::sort(it->second.begin(), it->second.end());
            int live = 0;
            for (auto &[cycle, delta] : it->second) {
                live += delta;
                pressure.required = std::max(pressure.required, live);
            }
        }
        report.files.push_back(pressure);
        if (!pressure.fits())
            report.overflows.push_back(pressure.regFile);
    }
    return report;
}

std::optional<std::vector<SpillPlan>>
planSpills(const Machine &machine, const PressureReport &report)
{
    std::vector<SpillPlan> plan;
    if (report.fits())
        return plan;

    // Headroom per file, updated as values are parked.
    std::vector<int> headroom(machine.numRegFiles());
    for (const RegFilePressure &file : report.files) {
        headroom[file.regFile.index()] =
            file.capacity - file.required;
    }

    for (RegFileId overflowing : report.overflows) {
        int excess = -headroom[overflowing.index()];
        CS_ASSERT(excess > 0, "overflow list out of sync");

        // Longest intervals first: evicting them frees the most.
        std::vector<const LiveInterval *> candidates;
        for (const LiveInterval &interval : report.intervals) {
            if (interval.regFile == overflowing)
                candidates.push_back(&interval);
        }
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const LiveInterval *a,
                            const LiveInterval *b) {
                             if (a->demand != b->demand)
                                 return a->demand > b->demand;
                             return a->length() > b->length();
                         });

        for (const LiveInterval *interval : candidates) {
            if (excess <= 0)
                break;
            int freed = interval->demand;
            // Park where there is headroom and a copy path both ways.
            RegFileId best;
            int best_headroom = 0;
            for (std::size_t r = 0; r < machine.numRegFiles(); ++r) {
                RegFileId rf(static_cast<std::uint32_t>(r));
                if (rf == overflowing || headroom[r] <= 0)
                    continue;
                if (machine.copyDistance(overflowing, rf) >=
                        Machine::kUnreachable ||
                    machine.copyDistance(rf, overflowing) >=
                        Machine::kUnreachable) {
                    continue;
                }
                if (headroom[r] > best_headroom) {
                    best_headroom = headroom[r];
                    best = rf;
                }
            }
            if (!best.valid())
                return std::nullopt; // no spill target reachable
            plan.push_back(SpillPlan{interval->value, overflowing,
                                     best, 2});
            headroom[best.index()] -= freed;
            excess -= freed;
        }
        if (excess > 0)
            return std::nullopt; // not enough spillable intervals
        headroom[overflowing.index()] = 0;
    }
    return plan;
}

std::string
describePressure(const Machine &machine, const PressureReport &report)
{
    std::ostringstream os;
    os << "register pressure: " << report.intervals.size()
       << " live intervals, worst utilization "
       << static_cast<int>(100 * report.worstUtilization()) << "%";
    if (!report.fits()) {
        os << ", OVERFLOWS:";
        for (RegFileId rf : report.overflows)
            os << " " << machine.regFile(rf).name;
    }
    return os.str();
}

} // namespace cs
