/**
 * @file
 * CycleList: the completion cycles of work in flight, kept sorted.
 * It backs the MSHR file (backpressure needs the earliest completion)
 * and the hierarchy's outstanding-miss counters (MLP sampling needs
 * the count). Every reader prunes to its current cycle first, so
 * size() is the number of entries still in the future.
 *
 * A sorted std::vector: completion times arrive nearly in order, so
 * push() scans back only a few slots from the tail. pruneUpTo()
 * advances a head index past the expired entries and erases them only
 * once they fill half the vector; erasing on every prune moved the
 * whole live list each cycle and made the per-cycle MLP sample an
 * order of magnitude slower (BM_MlpSample).
 */

#ifndef CDFSIM_COMMON_CYCLE_LIST_HH
#define CDFSIM_COMMON_CYCLE_LIST_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace cdfsim
{

/** A sorted multiset of cycles with O(1) earliest() and size(). */
class CycleList
{
  public:
    std::size_t size() const { return cycles_.size() - head_; }
    bool empty() const { return head_ == cycles_.size(); }

    /** Smallest cycle held. Requires a non-empty list. */
    Cycle
    earliest() const
    {
        SIM_ASSERT(!empty(), "earliest() on empty cycle list");
        return cycles_[head_];
    }

    /** Insert @p c, keeping the list sorted. */
    void
    push(Cycle c)
    {
        const auto first = cycles_.begin() + head_;
        auto pos = cycles_.end();
        while (pos != first && *(pos - 1) > c)
            --pos;
        cycles_.insert(pos, c);
        SIM_AUDIT(cycles_[head_] <= cycles_.back(),
                  "cycle list ends out of order after push(", c, ")");
    }

    /** Drop every entry with cycle <= @p now. */
    void
    pruneUpTo(Cycle now)
    {
        while (head_ < cycles_.size() && cycles_[head_] <= now)
            ++head_;
        // Drop the expired prefix once it is at least half the
        // vector: each entry is moved O(1) times on average.
        if (2 * head_ >= cycles_.size()) {
            cycles_.erase(cycles_.begin(), cycles_.begin() + head_);
            head_ = 0;
        }
        // Prune boundary: whatever survives is strictly in the
        // future, or the list is empty.
        SIM_AUDIT(empty() || cycles_[head_] > now,
                  "cycle list kept an expired entry past pruneUpTo(",
                  now, ")");
    }

    /** Prune to @p now, then the earliest cycle left (strictly after
     *  @p now), or kNeverCycle when nothing is left. */
    Cycle
    earliestAfter(Cycle now)
    {
        pruneUpTo(now);
        return empty() ? kNeverCycle : earliest();
    }

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        // Only the live entries travel, so a restored list starts
        // with no expired prefix.
        std::vector<Cycle> live(cycles_.begin() + head_, cycles_.end());
        ar(sized<std::uint32_t>(live));
        if constexpr (Ar::kLoading) {
            SIM_ASSERT(std::is_sorted(live.begin(), live.end()),
                       "snapshot cycle list is not sorted");
            cycles_ = std::move(live);
            head_ = 0;
        }
    }

  private:
    SIM_SNAPSHOT_FIELDS(2);

    std::vector<Cycle> cycles_;
    std::size_t head_ = 0; //!< cycles_[0, head_) are expired
};

} // namespace cdfsim

#endif // CDFSIM_COMMON_CYCLE_LIST_HH
