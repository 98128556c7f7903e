/**
 * @file
 * Fixed-capacity circular FIFO used for the paper's hardware FIFOs:
 * the Fill Buffer, Delayed Branch Queue and Critical Map Queue, as
 * well as pipeline latches.
 */

#ifndef CDFSIM_COMMON_CIRCULAR_QUEUE_HH
#define CDFSIM_COMMON_CIRCULAR_QUEUE_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace cdfsim
{

/**
 * A bounded FIFO over a ring buffer.
 *
 * Supports indexed access from the head (index 0 == oldest) so the
 * Fill Buffer's backwards dataflow walk and partial flushes of the
 * DBQ/CMQ (Section 3.6) can be expressed directly.
 */
template <typename T>
class CircularQueue
{
  public:
    explicit CircularQueue(std::size_t capacity)
        : buf_(capacity), head_(0), count_(0)
    {
        SIM_ASSERT(capacity > 0, "CircularQueue needs capacity > 0");
    }

    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == buf_.size(); }
    std::size_t size() const { return count_; }
    std::size_t capacity() const { return buf_.size(); }
    std::size_t freeSlots() const { return buf_.size() - count_; }

    /** Append to the tail. The queue must not be full. */
    void
    push(T value)
    {
        SIM_ASSERT(!full(), "push into full CircularQueue");
        buf_[index(count_)] = std::move(value);
        ++count_;
    }

    /** Remove and return the head (oldest) element. */
    T
    pop()
    {
        SIM_ASSERT(!empty(), "pop from empty CircularQueue");
        T value = std::move(buf_[head_]);
        if (++head_ == buf_.size())
            head_ = 0;
        --count_;
        return value;
    }

    /** Oldest element. */
    T &front() { SIM_ASSERT(!empty()); return buf_[head_]; }
    const T &front() const { SIM_ASSERT(!empty()); return buf_[head_]; }

    /** Youngest element. */
    T &back() { SIM_ASSERT(!empty()); return buf_[index(count_ - 1)]; }

    const T &
    back() const
    {
        SIM_ASSERT(!empty());
        return buf_[index(count_ - 1)];
    }

    /** Element @p i positions from the head (0 == oldest). */
    T &
    at(std::size_t i)
    {
        SIM_ASSERT(i < count_, "CircularQueue index out of range");
        return buf_[index(i)];
    }

    const T &
    at(std::size_t i) const
    {
        SIM_ASSERT(i < count_, "CircularQueue index out of range");
        return buf_[index(i)];
    }

    /**
     * Drop every element at position >= @p keep (counting from the
     * head). Models a partial flush of a hardware FIFO whose entries
     * are in program order.
     */
    void
    truncate(std::size_t keep)
    {
        SIM_ASSERT(keep <= count_, "truncate beyond queue size");
        count_ = keep;
    }

    /** Drop all elements. */
    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

    /**
     * Serialize capacity, cursor and live elements. head_ is kept
     * verbatim (not renormalized to zero) so a restored queue's slot
     * layout — and therefore any future snapshot of it — is
     * byte-identical to the original's.
     */
    template <typename Ar, typename Elem = VisitField>
    void
    fields(Ar &ar, Elem elem = Elem{})
    {
        std::uint64_t capacity = buf_.size();
        ar(capacity);
        SIM_ASSERT(capacity == buf_.size(),
                   "snapshot CircularQueue capacity ", capacity,
                   " != configured ", buf_.size());
        ar(head_, count_);
        SIM_ASSERT(!Ar::kLoading ||
                       (head_ < buf_.size() && count_ <= buf_.size()),
                   "snapshot CircularQueue cursor out of range");
        for (std::size_t i = 0; i < count_; ++i)
            elem(ar, buf_[index(i)]);
    }

  private:
    /** Ring slot of position @p i; i <= size() keeps head_ + i below
     *  twice the capacity, so one conditional subtract wraps it
     *  (no division on the per-uop queue paths). */
    std::size_t index(std::size_t i) const
    {
        const std::size_t j = head_ + i;
        return j >= buf_.size() ? j - buf_.size() : j;
    }

    SIM_SNAPSHOT_FIELDS(3);

    std::vector<T> buf_;
    std::size_t head_;
    std::size_t count_;
};

} // namespace cdfsim

#endif // CDFSIM_COMMON_CIRCULAR_QUEUE_HH
