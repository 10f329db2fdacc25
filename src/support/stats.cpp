#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/logging.hpp"

namespace cs {

double
geometricMean(const std::vector<double> &values)
{
    CS_ASSERT(!values.empty(), "geometric mean of empty set");
    double log_sum = 0.0;
    for (double v : values) {
        CS_ASSERT(v > 0.0, "geometric mean requires positive values, got ",
                  v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
arithmeticMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
minOf(const std::vector<double> &values)
{
    CS_ASSERT(!values.empty(), "min of empty set");
    return *std::min_element(values.begin(), values.end());
}

double
maxOf(const std::vector<double> &values)
{
    CS_ASSERT(!values.empty(), "max of empty set");
    return *std::max_element(values.begin(), values.end());
}

std::optional<CounterId>
findCounter(std::string_view name)
{
    const auto *it = std::ranges::lower_bound(kCounterNames, name);
    if (it == std::end(kCounterNames) || *it != name)
        return std::nullopt;
    return static_cast<CounterId>(it - std::begin(kCounterNames));
}

std::uint64_t
CounterSet::get(std::string_view name) const
{
    std::optional<CounterId> id = findCounter(name);
    return id ? get(*id) : 0;
}

void
CounterSet::merge(const CounterSet &other)
{
    for (std::size_t i = 0; i < kNumCounters; ++i)
        values_[i] += other.values_[i];
    zeroListed_ |= other.zeroListed_;
}

void
SharedCounterSet::merge(const CounterSet &set)
{
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        if (set.values_[i] != 0)
            values_[i].fetch_add(set.values_[i], std::memory_order_relaxed);
        if (set.zeroListed_.test(i))
            zeroListed_[i].store(true, std::memory_order_relaxed);
    }
}

CounterSet
SharedCounterSet::snapshot() const
{
    CounterSet out;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        out.values_[i] = values_[i].load(std::memory_order_relaxed);
        out.zeroListed_[i] = zeroListed_[i].load(std::memory_order_relaxed);
    }
    return out;
}

} // namespace cs
