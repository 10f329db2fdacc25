#include "pipeline/schedule_cache.hpp"

#include <utility>

namespace cs {

ScheduleCache::ScheduleCache(std::size_t capacity) : capacity_(capacity)
{
}

std::shared_ptr<const JobResult>
ScheduleCache::lookup(std::uint64_t key, bool countMiss)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        misses_ += countMiss;
        return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
}

void
ScheduleCache::insert(std::uint64_t key,
                      std::shared_ptr<const JobResult> result)
{
    if (capacity_ == 0)
        return;
    // The evicted or replaced pointer is released after the unlock:
    // dropping the last reference frees a whole result, which no other
    // lookup should wait for.
    std::shared_ptr<const JobResult> released;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        released = std::exchange(it->second->second, std::move(result));
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    if (lru_.size() >= capacity_) {
        index_.erase(lru_.back().first);
        released = std::move(lru_.back().second);
        lru_.pop_back();
        ++evictions_;
    }
    lru_.emplace_front(key, std::move(result));
    index_[key] = lru_.begin();
}

ScheduleCache::Stats
ScheduleCache::stats() const
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
ScheduleCache::Stats::addTo(CounterSet &out) const
{
    out.bump(counter("cache.memory.hits"), hits);
    out.bump(counter("cache.memory.misses"), misses);
    out.bump(counter("cache.memory.evictions"), evictions);
    out.bump(counter("cache.memory.entries"), entries);
    out.bump(counter("cache.memory.capacity"), capacity);
}

} // namespace cs
