/**
 * @file
 * Small numeric helpers used by the benchmark harnesses: geometric mean
 * (the paper's Figure 29 aggregates per-kernel speedups this way),
 * arithmetic summaries, and the project's one way to count: every
 * counter declared once in kCounterNames, a job's counters in a flat
 * CounterSet, and counters that threads share in a SharedCounterSet.
 */

#ifndef CS_SUPPORT_STATS_HPP
#define CS_SUPPORT_STATS_HPP

#include <algorithm>
#include <array>
#include <atomic>
#include <bitset>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace cs {

/** Geometric mean of a set of strictly positive values. */
double geometricMean(const std::vector<double> &values);

/** Arithmetic mean; zero for an empty set. */
double arithmeticMean(const std::vector<double> &values);

/** Minimum of a non-empty set. */
double minOf(const std::vector<double> &values);

/** Maximum of a non-empty set. */
double maxOf(const std::vector<double> &values);

/**
 * Every counter, declared once, in byte order: a counter is its index
 * here, so sets iterate in name order and no writer sorts. Names are
 * attached only where JSON is written.
 */
inline constexpr std::string_view kCounterNames[] = {
    "attempt_budget_exhausted",
    "batch.failures",
    "batch.jobs",
    "cache.disk.dropped_read_only",
    "cache.disk.hits",
    "cache.disk.loaded_entries",
    "cache.disk.misses",
    "cache.disk.owned_shards",
    "cache.disk.ownership_promotions",
    "cache.disk.read_errors",
    "cache.disk.truncated_bytes",
    "cache.disk.write_errors",
    "cache.disk.writes",
    "cache.evictions",
    "cache.hits",
    "cache.memory.capacity",
    "cache.memory.entries",
    "cache.memory.evictions",
    "cache.memory.hits",
    "cache.memory.misses",
    "cache.misses",
    "context.capacity",
    "context.entries",
    "context.evictions",
    "context.hits",
    "context.misses",
    "copies_inserted",
    "copies_reused",
    "copies_unwound",
    "copy_depth_exhausted",
    "copy_feed_unroutable",
    "copy_range_empty",
    "copy_schedule_failures",
    "dfs_nodes",
    "ii_search.attempts_cancelled",
    "ii_search.attempts_launched",
    "ii_search.attempts_wasted",
    "ii_search.cancel_latency_us",
    "ii_search.serial_inline",
    "ii_search.window",
    "ops_scheduled",
    "perm_backtracks",
    "perm_budget_exhausted",
    "pipeline.cache_hits",
    "pipeline.cache_misses",
    "pipeline.cancelled",
    "pipeline.dedup_joins",
    "pipeline.failures",
    "pipeline.jobs",
    "pipeline.verifier_rejects",
    "placement_attempts",
    "probe_reads",
    "probe_writes",
    "prune_read_bus",
    "prune_route_mask",
    "prune_write_bus",
    "read_perm_failures",
    "read_perms_found",
    "reject.aborted",
    "reject.budget_exhausted",
    "reject.bus_conflict",
    "reject.no_serviceable_write_stub",
    "reject.read_port_conflict",
    "reject.route_infeasible",
    "reject.write_port_conflict",
    "route_close_failures",
    "serve.bad_requests",
    "serve.connections",
    "serve.deadline_expired",
    "serve.deadline_preempted",
    "serve.errors",
    "serve.fast_path_hits",
    "serve.fast_path_misses",
    "serve.frames_in",
    "serve.frames_out",
    "serve.ok",
    "serve.pings",
    "serve.rejected_overload",
    "serve.request_memo.bytes",
    "serve.request_memo.entries",
    "serve.request_memo.hits",
    "serve.request_memo.misses",
    "serve.requests",
    "serve.schedule_requests",
    "serve.shutting_down",
    "serve.stats_requests",
    "serve.watch_requests",
    "serve.write_errors",
    "stub_retargets",
    "table_acquires",
    "table_releases",
    "write_perm_failures",
    "write_perms_found",
};

inline constexpr std::size_t kNumCounters = std::size(kCounterNames);
static_assert(std::ranges::adjacent_find(kCounterNames,
                                         std::greater_equal{}) ==
                  std::end(kCounterNames),
              "kCounterNames must be sorted and unique");

/** A declared counter: its index in kCounterNames. */
enum class CounterId : std::uint16_t
{
};

constexpr std::string_view
counterName(CounterId id)
{
    return kCounterNames[static_cast<std::size_t>(id)];
}

/** The counter named @p head + @p tail, resolved at compile time: a
 *  name kCounterNames does not declare fails to compile. */
consteval CounterId
counter(std::string_view head, std::string_view tail = {})
{
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        std::string_view name = kCounterNames[i];
        if (name.size() == head.size() + tail.size() &&
            name.starts_with(head) && name.ends_with(tail))
            return static_cast<CounterId>(i);
    }
    throw "counter not declared in kCounterNames";
}

/** The counter named @p name, looked up at run time (tests,
 *  benches); nullopt when @p name is not declared. */
std::optional<CounterId> findCounter(std::string_view name);

/** Every declared counter, in name order. */
inline constexpr auto kAllCounters = [] {
    std::array<CounterId, kNumCounters> all{};
    for (std::size_t i = 0; i < kNumCounters; ++i)
        all[i] = static_cast<CounterId>(i);
    return all;
}();

/** Every counter named @p prefix + something: adjacent in the list. */
consteval std::span<const CounterId>
counterGroup(std::string_view prefix)
{
    auto named = [prefix](CounterId id) {
        return counterName(id).starts_with(prefix);
    };
    auto first = std::ranges::find_if(kAllCounters, named);
    auto last = std::find_if_not(first, kAllCounters.end(), named);
    if (first == last)
        throw "no counter declared under this prefix";
    return {first, last};
}

/** The counters @p prefix + each of @p names, in name order. */
template <std::size_t N>
consteval std::array<CounterId, N>
counters(std::string_view prefix, const std::string_view (&names)[N])
{
    std::array<CounterId, N> ids{};
    for (std::size_t i = 0; i < N; ++i)
        ids[i] = counter(prefix, names[i]);
    std::ranges::sort(ids);
    return ids;
}

/**
 * One job's counters: a flat array with one writer and no lock. A
 * counter is listed (visited by forEach, so written to JSON and disk)
 * while it is non-zero, and once a bump or merge named it with 0:
 * "cache.hits":0 prints, an untouched counter does not.
 */
class CounterSet
{
  public:
    void
    bump(CounterId id, std::uint64_t delta = 1)
    {
        (*this)[id] += delta;
        if (delta == 0)
            zeroListed_.set(static_cast<std::size_t>(id));
    }

    /** The counter's slot, for a writer that adds and restores in
     *  place (BlockScheduler refunds search work it charged ahead);
     *  written only here, a counter is listed while non-zero. */
    std::uint64_t &
    operator[](CounterId id)
    {
        return values_[static_cast<std::size_t>(id)];
    }

    std::uint64_t
    get(CounterId id) const
    {
        return values_[static_cast<std::size_t>(id)];
    }

    /** By name, for tests, examples and benches; 0 when undeclared. */
    std::uint64_t get(std::string_view name) const;

    bool
    listed(CounterId id) const
    {
        return get(id) != 0 || zeroListed_.test(static_cast<std::size_t>(id));
    }

    /** Add every counter of @p other, and list what it lists. */
    void merge(const CounterSet &other);

    /** Visit every listed counter in name order: fn(name, value). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (CounterId id : kAllCounters) {
            if (listed(id))
                fn(counterName(id), get(id));
        }
    }

  private:
    friend class SharedCounterSet;

    std::array<std::uint64_t, kNumCounters> values_{};
    std::bitset<kNumCounters> zeroListed_;
};

/**
 * Counters that threads share (a pipeline's totals, a server's
 * serve.* counters): relaxed atomic adds, no lock. A snapshot reads
 * each counter whole, not the set at one instant.
 */
class SharedCounterSet
{
  public:
    void
    bump(CounterId id, std::uint64_t delta = 1)
    {
        auto i = static_cast<std::size_t>(id);
        values_[i].fetch_add(delta, std::memory_order_relaxed);
        if (delta == 0)
            zeroListed_[i].store(true, std::memory_order_relaxed);
    }

    /** Add every counter of @p set, and list what it lists. */
    void merge(const CounterSet &set);

    CounterSet snapshot() const;

  private:
    std::array<std::atomic<std::uint64_t>, kNumCounters> values_{};
    std::array<std::atomic<bool>, kNumCounters> zeroListed_{};
};

} // namespace cs

#endif // CS_SUPPORT_STATS_HPP
