#include "pipeline/context_cache.hpp"

#include "pipeline/job.hpp"
#include "support/fnv.hpp"

namespace cs {

ContextCache::ContextCache(std::size_t capacity) : capacity_(capacity)
{
}

std::uint64_t
ContextCache::key(const Kernel &kernel, BlockId block,
                  const Machine &machine)
{
    FnvHasher h;
    h.u64(hashKernel(kernel, block));
    h.u64(hashMachine(machine));
    return h.state;
}

std::shared_ptr<const SharedBlockContext>
ContextCache::acquire(const Kernel &kernel, BlockId block,
                      const Machine &machine)
{
    auto build = [&] {
        return std::make_shared<const SharedBlockContext>(kernel, block,
                                                          machine);
    };
    if (capacity_ == 0) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++misses_;
        }
        return build();
    }

    std::uint64_t k = key(kernel, block, machine);
    std::shared_ptr<Slot> slot;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(k);
        if (it != index_.end()) {
            ++hits_;
            lru_.splice(lru_.begin(), lru_, it->second);
            slot = it->second->second;
        } else {
            ++misses_;
            if (lru_.size() >= capacity_) {
                index_.erase(lru_.back().first);
                lru_.pop_back();
                ++evictions_;
            }
            slot = std::make_shared<Slot>();
            lru_.emplace_front(k, slot);
            index_[k] = lru_.begin();
        }
    }
    // Build outside the lock: analysis is the expensive part, and
    // acquires of other keys must not wait for it. Acquires of this
    // key wait here for the one build.
    std::call_once(slot->built, [&] { slot->context = build(); });
    return slot->context;
}

ContextCache::Stats
ContextCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.entries = lru_.size();
    s.capacity = capacity_;
    return s;
}

void
ContextCache::Stats::addTo(CounterSet &out) const
{
    out.bump(counter("context.hits"), hits);
    out.bump(counter("context.misses"), misses);
    out.bump(counter("context.evictions"), evictions);
    out.bump(counter("context.entries"), entries);
    out.bump(counter("context.capacity"), capacity);
}

} // namespace cs
