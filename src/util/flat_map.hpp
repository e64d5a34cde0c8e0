/**
 * @file
 * Open-addressing flat hash map for the simulator hot loops.
 *
 * FlatMap<K, V> replaces std::unordered_map in per-engine tables whose
 * live size is bounded by the hardware configuration (core::RowEngine's
 * LDN table above all): one contiguous slot array, linear probing, no
 * per-node allocation, no pointer chasing -- a lookup touches one cache
 * line in the common case instead of walking a bucket chain.
 *
 * The table never rehashes: capacity is fixed at construction (rounded
 * to a power of two, two slots per live entry, so the load factor never
 * exceeds 1/2) and exceeding it asserts: live occupancy is
 * hardware-bounded, so overflow is a sizing bug.
 *
 * Deletion is backward-shift deletion, so there are no tombstones: after
 * erase() every probe chain looks exactly as if the erased key had
 * never been inserted. The LDN table churns at full occupancy (one
 * erase per distinct miss), where tombstones would force a rebuild of
 * the whole table about once every eight misses.
 *
 * Pointers returned by find() stay valid across insert() but not across
 * erase(), which may move other entries: copy the value out before
 * erasing.
 *
 * Key type K must be an unsigned integral; one key value must be
 * reserved as the empty sentinel (kInvalidNode for NodeId keys).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/bitutil.hpp"
#include "util/logging.hpp"

namespace grow::util {

template <typename K, typename V>
class FlatMap
{
    static_assert(std::is_unsigned_v<K>,
                  "FlatMap keys must be unsigned integrals");

  public:
    /**
     * @param max_live  most entries ever live at once (hardware bound)
     * @param empty_key reserved key value that is never inserted
     */
    FlatMap(size_t max_live, K empty_key)
        : emptyKey_(empty_key),
          mask_(nextPow2((max_live ? max_live : 1) * kSlotsPerEntry) - 1),
          slots_(mask_ + 1, Slot{empty_key, V{}}),
          maxLive_(max_live ? max_live : 1)
    {
    }

    size_t size() const { return live_; }
    bool empty() const { return live_ == 0; }
    size_t capacity() const { return maxLive_; }
    size_t slotCount() const { return mask_ + 1; }

    /** Slot a probe for @p key starts at (tests build collision chains
     *  with it). */
    size_t
    homeSlot(K key) const
    {
        // Fibonacci hashing spreads consecutive node ids; consecutive
        // probes stay linear for cache friendliness.
        uint64_t h = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL;
        return static_cast<size_t>(h >> 32) & mask_;
    }

    /** Pointer to the value of @p key, or nullptr. Invalidated by
     *  erase(), not by insert(). */
    V *
    find(K key)
    {
        for (size_t i = homeSlot(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.key == emptyKey_)
                return nullptr;
            if (s.key == key)
                return &s.value;
        }
    }

    const V *
    find(K key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    /** Insert or overwrite. Asserts when live occupancy would exceed
     *  the construction bound. */
    void
    insert(K key, const V &value)
    {
        GROW_ASSERT(key != emptyKey_, "FlatMap: reserved key inserted");
        size_t i = homeSlot(key);
        for (; slots_[i].key != emptyKey_; i = (i + 1) & mask_) {
            if (slots_[i].key == key) {
                slots_[i].value = value;
                return;
            }
        }
        GROW_ASSERT(live_ < maxLive_,
                    "FlatMap full: fixed capacity, growth rejected");
        slots_[i] = Slot{key, value};
        ++live_;
    }

    /** Remove @p key if present; returns whether it was. */
    bool
    erase(K key)
    {
        size_t hole = homeSlot(key);
        for (;; hole = (hole + 1) & mask_) {
            if (slots_[hole].key == emptyKey_)
                return false;
            if (slots_[hole].key == key)
                break;
        }
        // Backward shift: walk the rest of the probe cluster and move
        // into the hole every entry whose probe path crosses it (its
        // displacement from its home slot reaches back to the hole).
        for (size_t j = (hole + 1) & mask_; slots_[j].key != emptyKey_;
             j = (j + 1) & mask_) {
            const size_t home = homeSlot(slots_[j].key);
            if (((j - home) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole] = Slot{emptyKey_, V{}};
        --live_;
        return true;
    }

    void
    clear()
    {
        for (Slot &s : slots_)
            s = Slot{emptyKey_, V{}};
        live_ = 0;
    }

  private:
    struct Slot
    {
        K key; ///< emptyKey_ marks a free slot
        V value;
    };

    /** Slot array head-room: 2 slots per live entry caps the load
     *  factor at 1/2, so probe clusters stay short. */
    static constexpr size_t kSlotsPerEntry = 2;

    K emptyKey_;
    size_t mask_;
    std::vector<Slot> slots_;
    size_t maxLive_;
    size_t live_ = 0;
};

} // namespace grow::util
