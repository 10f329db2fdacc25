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
    std::uint64_t k = key(kernel, block, machine);

    if (capacity_ != 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(k);
        if (it != index_.end()) {
            ++hits_;
            lru_.splice(lru_.begin(), lru_, it->second);
            return it->second->second;
        }
        ++misses_;
    } else {
        std::lock_guard<std::mutex> lock(mutex_);
        ++misses_;
    }

    // Build outside the lock: analysis is the expensive part, and two
    // threads racing on a fresh key would otherwise serialize on it.
    auto built =
        std::make_shared<const SharedBlockContext>(kernel, block, machine);

    if (capacity_ == 0)
        return built;

    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(k);
    if (it != index_.end()) {
        // Another thread built and published first; adopt its entry so
        // every holder of this key shares one analysis. The race is not
        // a counted hit — both threads paid the build.
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->second;
    }
    if (lru_.size() >= capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++evictions_;
    }
    lru_.emplace_front(k, built);
    index_[k] = lru_.begin();
    return built;
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
ContextCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    index_.clear();
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
