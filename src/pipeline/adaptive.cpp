#include "pipeline/adaptive.hpp"

#include <algorithm>

#include "support/fnv.hpp"

namespace cs {

namespace {

/** log2-style bucket: 0,1,2,3,4,5,6,7,8+ -> 0..8, then by powers. */
std::uint32_t
logBucket(std::uint32_t v)
{
    if (v < 8)
        return v;
    std::uint32_t bucket = 8;
    while (v >= 16) {
        v >>= 1;
        ++bucket;
    }
    return bucket;
}

} // namespace

std::uint64_t
BlockFeatures::shapeKey() const
{
    FnvHasher h;
    h.u64(logBucket(static_cast<std::uint32_t>(numOps)));
    h.u64(logBucket(static_cast<std::uint32_t>(maxFanOut)));
    // RecMII/ResMII ratio in quarters, saturated at 4x: separates
    // recurrence-bound blocks (ratio > 1) from resource-bound ones
    // without splitting hairs between nearly-identical shapes.
    std::uint32_t ratioQuarters = 0;
    if (resMii > 0) {
        std::uint64_t q =
            (static_cast<std::uint64_t>(recMii) * 4) /
            static_cast<std::uint64_t>(resMii);
        ratioQuarters = static_cast<std::uint32_t>(std::min<std::uint64_t>(q, 16));
    }
    h.u64(ratioQuarters);
    for (std::uint16_t count : classCounts)
        h.u64(logBucket(count));
    h.u64(machineUnits);
    h.u64(machineFiles);
    h.u64(machineBuses);
    return h.state;
}

BlockFeatures
classifyBlock(const BlockSchedulingContext &context)
{
    BlockFeatures f;
    const Kernel &kernel = context.kernel();
    const Block &block = kernel.block(context.block());
    f.numOps = static_cast<int>(block.operations.size());
    f.resMii = context.resMii();
    f.recMii = context.recMii();
    for (OperationId opId : block.operations) {
        const Operation &op = kernel.operation(opId);
        std::size_t cls =
            static_cast<std::size_t>(opcodeClass(op.opcode));
        if (f.classCounts[cls] < 0xFFFF)
            ++f.classCounts[cls];
        if (op.hasResult()) {
            int uses = static_cast<int>(
                kernel.value(op.result).uses.size());
            f.maxFanOut = std::max(f.maxFanOut, uses);
        }
    }
    const Machine &machine = context.machine();
    f.machineUnits = static_cast<std::uint32_t>(machine.numFuncUnits());
    f.machineFiles = static_cast<std::uint32_t>(machine.numRegFiles());
    f.machineBuses = static_cast<std::uint32_t>(machine.numBuses());
    return f;
}

PortfolioStats &
PortfolioStats::global()
{
    static PortfolioStats instance;
    return instance;
}

PortfolioProfile
PortfolioStats::lookup(std::uint64_t shapeKey) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = shapes_.find(shapeKey);
    return it != shapes_.end() ? it->second : PortfolioProfile{};
}

void
PortfolioStats::record(std::uint64_t shapeKey, int winnerK)
{
    if (winnerK < 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = shapes_.find(shapeKey);
    if (it == shapes_.end()) {
        if (shapes_.size() >= kMaxShapes)
            return; // memory bound; known shapes keep learning
        it = shapes_.emplace(shapeKey, PortfolioProfile{}).first;
    }
    PortfolioProfile &p = it->second;
    ++p.jobs;
    p.maxWinnerK =
        std::max(p.maxWinnerK, static_cast<std::uint32_t>(winnerK));
}

void
PortfolioStats::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    shapes_.clear();
}

std::size_t
PortfolioStats::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shapes_.size();
}

AttemptPlan
planAttempts(const PortfolioProfile &profile, int requestedWindow)
{
    AttemptPlan plan;
    plan.window = std::max(requestedWindow, 1);
    if (profile.jobs >= 2) {
        // The shape's observed worst-case winner bounds how deep
        // speculation can ever pay; one attempt of headroom covers a
        // block that needs one more slack step than history saw.
        int needed = static_cast<int>(profile.maxWinnerK) + 1;
        if (needed <= 1) {
            plan.serialInline = true;
            plan.window = 1;
            return plan;
        }
        plan.window = std::clamp(needed + 1, 2, plan.window);
    }
    return plan;
}

} // namespace cs
