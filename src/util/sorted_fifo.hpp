/**
 * @file
 * Queues for the row engine: a growable ring FIFO, and a min-queue
 * that is a FIFO for as long as pushes arrive in order.
 *
 * Fifo<T> is the simulator's one ring buffer. RowEngine keeps its
 * multi-row window and its stream-chunk FIFO in one each, and the
 * queues below sit on it. It doubles when full, so a steady stream
 * reuses one allocation; the engine bounds what it holds by the
 * hardware configuration and asserts those bounds itself.
 *
 * Aggregation's ready times are mostly monotone. The HDN ID CAM does
 * one lookup per cycle, so CAM-ready products arrive in ready order;
 * on SimpleDram a fetch never completes before the previous one, so
 * fills arrive in completion order too. SortedFifo<T, Less> exploits
 * that:
 *
 *  - push(v) appends v to a FIFO when v is not less than the FIFO's
 *    tail, and pushes it onto a binary heap otherwise;
 *  - top() and pop() take the smaller of the FIFO head and the heap
 *    top.
 *
 * The FIFO stays sorted and the heap stays a heap, so the smaller head
 * is the minimum of everything queued: for any sequence of pushes and
 * pops, the pop order equals std::priority_queue's under the same
 * strict order (values that compare equal cannot be told apart).
 * In-order pushes cost O(1); out-of-order ones -- BankedDram fills,
 * products sharing an earlier LDN fill -- cost the heap's O(log n).
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "util/logging.hpp"

namespace grow::util {

/**
 * Unbounded FIFO over a power-of-two ring that doubles when full.
 * Elements are indexed from the front (0 = oldest); every access is
 * asserted in range.
 */
template <typename T>
class Fifo
{
  public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    /** @p i counted from the front (0 = oldest). */
    T &
    operator[](size_t i)
    {
        GROW_ASSERT(i < size_, "FIFO index out of range");
        return buf_[(head_ + i) & (capacity_ - 1)];
    }

    const T &
    operator[](size_t i) const
    {
        GROW_ASSERT(i < size_, "FIFO index out of range");
        return buf_[(head_ + i) & (capacity_ - 1)];
    }

    void
    push_back(const T &v)
    {
        if (size_ == capacity_)
            grow();
        buf_[(head_ + size_) & (capacity_ - 1)] = v;
        ++size_;
    }

    void
    pop_front()
    {
        GROW_ASSERT(size_ > 0, "pop_front() of an empty FIFO");
        head_ = (head_ + 1) & (capacity_ - 1);
        --size_;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(std::max<size_t>(16, 2 * capacity_));
        for (size_t i = 0; i < size_; ++i)
            bigger[i] = (*this)[i];
        buf_.swap(bigger);
        capacity_ = buf_.size();
        head_ = 0;
    }

    std::vector<T> buf_;
    /** buf_.size(), kept apart so indexing never divides by
     *  sizeof(T). */
    size_t capacity_ = 0;
    size_t head_ = 0;
    size_t size_ = 0;
};

/** Min-queue: a sorted FIFO with a binary-heap fallback (see above). */
template <typename T, typename Less = std::less<T>>
class SortedFifo
{
  public:
    bool empty() const { return fifo_.empty() && heap_.empty(); }
    size_t size() const { return fifo_.size() + heap_.size(); }

    /** Entries that arrived out of order and took the heap. */
    size_t heapSize() const { return heap_.size(); }

    void
    push(const T &v)
    {
        if (fifo_.empty() || !Less{}(v, fifo_.back())) {
            fifo_.push_back(v);
        } else {
            heap_.push_back(v);
            std::push_heap(heap_.begin(), heap_.end(), Greater{});
        }
    }

    /** Smallest queued value. @pre !empty() */
    const T &
    top() const
    {
        return heapFirst() ? heap_.front() : fifo_.front();
    }

    /** Remove top(). @pre !empty() */
    void
    pop()
    {
        if (heapFirst()) {
            std::pop_heap(heap_.begin(), heap_.end(), Greater{});
            heap_.pop_back();
        } else {
            fifo_.pop_front();
        }
    }

  private:
    /** Heap order: std heaps keep the Compare-largest at the front. */
    struct Greater
    {
        bool
        operator()(const T &a, const T &b) const
        {
            return Less{}(b, a);
        }
    };

    /** Whether the heap top is the smallest value (ties go to the
     *  FIFO; equal values cannot be told apart). */
    bool
    heapFirst() const
    {
        GROW_ASSERT(!empty(), "top()/pop() of an empty queue");
        return fifo_.empty() ||
               (!heap_.empty() && Less{}(heap_.front(), fifo_.front()));
    }

    Fifo<T> fifo_;
    std::vector<T> heap_;
};

} // namespace grow::util
