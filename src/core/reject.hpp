/**
 * @file
 * Closed taxonomy of placement-rejection reasons. Every path on which
 * the scheduler gives up on a candidate placement (or on an op, or on
 * a whole attempt) is classified with exactly one RejectReason; the
 * scheduler counts each reason into its statistics (`reject.<name>`
 * counters) and, when tracing is enabled, emits an instant event per
 * rejection so the time axis shows *which constraint killed which
 * placement* (DESIGN.md section 5e).
 */

#ifndef CS_CORE_REJECT_HPP
#define CS_CORE_REJECT_HPP

#include <array>
#include <cstddef>

#include "support/stats.hpp"

namespace cs {

enum class RejectReason : unsigned {
    /** A required transfer could not reserve its bus slot. */
    BusConflict = 0,
    /** Write-stub permutation search exhausted every write port
     * assignment. */
    WritePortConflict,
    /** Read-stub permutation search exhausted every read port
     * assignment. */
    ReadPortConflict,
    /** No register file can service a write stub for the producing
     * unit at all (the candidate list was empty). */
    NoServiceableWriteStub,
    /** Copy insertion could not close a route: the feed chain was
     * unroutable, the copy range was empty, or the copy-depth budget
     * ran out. */
    RouteInfeasible,
    /** A search budget (permutation DFS nodes, or per-op placement
     * attempts) was exhausted before a feasible placement was found. */
    BudgetExhausted,
    /** A cooperative abort (parallel II search cancellation) stopped
     * this attempt. */
    Aborted,
};

constexpr std::size_t kNumRejectReasons = 7;

/** Stable snake_case names, indexable by the enum value. These feed
 * counter names ("reject.bus_conflict") and trace-event names. */
constexpr std::array<const char *, kNumRejectReasons> kRejectReasonNames = {
    "bus_conflict",
    "write_port_conflict",
    "read_port_conflict",
    "no_serviceable_write_stub",
    "route_infeasible",
    "budget_exhausted",
    "aborted",
};

/** The "reject.<name>" counter of each reason, by enum value. */
inline constexpr auto kRejectCounters = []() consteval {
    std::array<CounterId, kNumRejectReasons> ids{};
    for (std::size_t i = 0; i < kNumRejectReasons; ++i)
        ids[i] = counter("reject.", kRejectReasonNames[i]);
    return ids;
}();

} // namespace cs

#endif // CS_CORE_REJECT_HPP
