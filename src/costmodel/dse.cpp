#include "costmodel/dse.hpp"

#include <set>

#include "support/logging.hpp"
#include "support/random.hpp"

namespace cs {

namespace {

std::string
mixTag(const FuMix &mix)
{
    return "a" + std::to_string(mix.adders) + "m" +
           std::to_string(mix.multipliers) + "d" +
           std::to_string(mix.dividers) + "p" +
           std::to_string(mix.permuters) + "s" +
           std::to_string(mix.scratchpads) + "l" +
           std::to_string(mix.loadStores);
}

std::string
pointName(std::string_view style, const StdMachineConfig &config)
{
    std::string name = std::string(style) + "/" + mixTag(config.mix) +
                       "/r" + std::to_string(config.totalRegisters);
    if (style == "distributed")
        name += "/b" + std::to_string(config.numGlobalBuses);
    return name;
}

} // namespace

std::vector<DsePoint>
enumerateMachineSpace(const DseSpaceConfig &spaceConfig)
{
    const int want = spaceConfig.variants < 4 ? 4 : spaceConfig.variants;

    std::vector<DsePoint> points;
    points.reserve(static_cast<std::size_t>(want));
    std::set<std::string> seen;

    auto add = [&](std::string_view style,
                   const StdMachineConfig &config) {
        std::string name = pointName(style, config);
        if (!seen.insert(name).second)
            return;
        points.push_back(DsePoint{std::move(name), std::string(style),
                                  config,
                                  makeStdMachine(style, config).value()});
    };

    // The paper's evaluation machines anchor the space.
    for (std::string_view style : kStdMachineStyles)
        add(style, StdMachineConfig{});

    // Seeded variants around them. The draw ranges keep every opclass
    // populated (>= 1 unit) and the machines within the cost model's
    // intended regime; duplicates are re-drawn (the space holds tens
    // of thousands of distinct names, so the loop terminates fast).
    Rng rng(spaceConfig.seed);
    int guard = 0;
    while (static_cast<int>(points.size()) < want &&
           guard < want * 100) {
        ++guard;
        StdMachineConfig config;
        config.mix.adders = static_cast<int>(rng.uniformInt(2, 8));
        config.mix.multipliers = static_cast<int>(rng.uniformInt(1, 4));
        config.mix.dividers = static_cast<int>(rng.uniformInt(1, 2));
        config.mix.permuters = static_cast<int>(rng.uniformInt(1, 2));
        config.mix.scratchpads = static_cast<int>(rng.uniformInt(1, 2));
        config.mix.loadStores = static_cast<int>(rng.uniformInt(2, 5));
        config.totalRegisters =
            64 * static_cast<int>(rng.uniformInt(2, 5));
        config.numGlobalBuses =
            static_cast<int>(rng.uniformInt(6, 12));
        add(kStdMachineStyles[static_cast<std::size_t>(
                rng.uniformInt(0, 3))],
            config);
    }
    CS_ASSERT(static_cast<int>(points.size()) == want,
              "design space exhausted at ", points.size(), " of ",
              want, " points");
    return points;
}

std::vector<std::size_t>
paretoFrontier(const std::vector<DseOutcome> &outcomes)
{
    auto dominates = [](const DseOutcome &a, const DseOutcome &b) {
        bool noWorse = a.area <= b.area && a.power <= b.power &&
                       a.delay <= b.delay &&
                       a.achievedIi <= b.achievedIi;
        bool better = a.area < b.area || a.power < b.power ||
                      a.delay < b.delay || a.achievedIi < b.achievedIi;
        return noWorse && better;
    };

    std::vector<std::size_t> frontier;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        bool dominated = false;
        for (std::size_t j = 0; j < outcomes.size() && !dominated; ++j)
            dominated = j != i && dominates(outcomes[j], outcomes[i]);
        if (!dominated)
            frontier.push_back(i);
    }
    return frontier;
}

} // namespace cs
