/**
 * @file
 * Byte-budgeted LRU cache keyed by node ID.
 *
 * Models GAMMA's "fiber cache" (Sec. VII-H): a demand-filled cache over
 * RHS matrix rows with least-recently-used replacement -- deliberately
 * *not* aware of the graph's power-law structure, which is exactly the
 * contrast the paper draws against GROW's pinned HDN cache. Also used
 * by the pinned-vs-LRU replacement-policy study (Sec. VIII).
 */
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "sim/types.hpp"

namespace grow::mem {

class LruRowCache
{
  public:
    /**
     * @param capacity_bytes total data capacity
     * @param row_bytes      size of one cached row
     */
    LruRowCache(Bytes capacity_bytes, Bytes row_bytes);

    /**
     * Probe for @p id; on hit, refresh recency. On miss the row is NOT
     * inserted (call insert() once the fill returns).
     */
    bool lookup(NodeId id);

    /** Insert @p id, evicting LRU rows as needed. */
    void insert(NodeId id);

    uint32_t residentRows() const
    {
        return static_cast<uint32_t>(map_.size());
    }
    uint32_t maxRows() const { return maxRows_; }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t evictions() const { return evictions_; }
    double hitRate() const;

    void clear();

  private:
    uint32_t maxRows_;
    std::list<NodeId> lru_; ///< front = most recent
    std::unordered_map<NodeId, std::list<NodeId>::iterator> map_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace grow::mem
