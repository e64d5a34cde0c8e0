#include "mem/lru_cache.hpp"

#include "util/logging.hpp"

namespace grow::mem {

LruRowCache::LruRowCache(Bytes capacity_bytes, Bytes row_bytes)
{
    GROW_ASSERT(row_bytes > 0, "row size must be positive");
    uint64_t rows = capacity_bytes / row_bytes;
    maxRows_ = static_cast<uint32_t>(rows == 0 ? 1 : rows);
}

bool
LruRowCache::lookup(NodeId id)
{
    auto it = map_.find(id);
    if (it == map_.end()) {
        ++misses_;
        return false;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
}

void
LruRowCache::insert(NodeId id)
{
    if (map_.count(id))
        return;
    while (map_.size() >= maxRows_) {
        map_.erase(lru_.back());
        lru_.pop_back();
        ++evictions_;
    }
    lru_.push_front(id);
    map_[id] = lru_.begin();
}

double
LruRowCache::hitRate() const
{
    uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) /
                            static_cast<double>(total);
}

void
LruRowCache::clear()
{
    lru_.clear();
    map_.clear();
    hits_ = misses_ = evictions_ = 0;
}

} // namespace grow::mem
