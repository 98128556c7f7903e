/**
 * @file
 * Ring buffers over completion *cycles*, built for the memory
 * system's two hot bookkeeping patterns:
 *
 *  - MonotonicCycleRing: the MSHR file. A sorted ring of in-flight
 *    completion times with O(1) prune-from-head and O(1) earliest
 *    lookup, replacing the per-miss erase_if + min-scan over a
 *    vector. Holds the same multiset of cycles the vector held, so
 *    backpressure decisions are bit-identical.
 *
 *  - CycleCountRing: the hierarchy's outstanding-miss counters
 *    (MLP sampling reads them every cycle). Instead of storing one
 *    element per miss and pruning linearly, it keeps a count per
 *    future cycle in a power-of-two ring and advances a cursor,
 *    subtracting expired buckets — O(1) amortized per simulated
 *    cycle regardless of how many misses are in flight.
 *
 * Both grow on demand (DRAM completion times drift arbitrarily far
 * ahead under bank queueing), so neither imposes a semantic cap.
 */

#ifndef CDFSIM_COMMON_CYCLE_RING_HH
#define CDFSIM_COMMON_CYCLE_RING_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace cdfsim
{

/**
 * Sorted ring of cycle values with head-side removal.
 *
 * Invariant: the live entries, read from head to tail, are
 * non-decreasing. push() inserts from the tail with a backward
 * shift; completion times arrive nearly in order, so the shift is
 * almost always empty. Capacity doubles when full.
 */
class MonotonicCycleRing
{
  public:
    explicit MonotonicCycleRing(std::size_t capacityHint = 16)
    {
        buf_.resize(std::bit_ceil(capacityHint < 2 ? std::size_t{2}
                                                   : capacityHint));
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Smallest live cycle. Requires a non-empty ring. */
    Cycle
    earliest() const
    {
        SIM_ASSERT(count_ > 0, "earliest() on empty cycle ring");
        return buf_[head_ & (buf_.size() - 1)];
    }

    /** Drop every entry with cycle <= @p now. */
    void
    pruneUpTo(Cycle now)
    {
        const std::size_t mask = buf_.size() - 1;
        while (count_ > 0 && buf_[head_ & mask] <= now) {
            ++head_;
            --count_;
        }
        // Prune boundary: whatever survives is strictly in the
        // future, or the ring is empty.
        SIM_AUDIT(count_ == 0 || buf_[head_ & mask] > now,
                  "cycle ring kept an expired entry past pruneUpTo(",
                  now, ")");
    }

    /** Insert @p c, keeping the ring sorted. */
    void
    push(Cycle c)
    {
        if (count_ == buf_.size())
            grow();
        const std::size_t mask = buf_.size() - 1;
        std::size_t i = count_;
        while (i > 0 && buf_[(head_ + i - 1) & mask] > c) {
            buf_[(head_ + i) & mask] = buf_[(head_ + i - 1) & mask];
            --i;
        }
        buf_[(head_ + i) & mask] = c;
        ++count_;
        SIM_AUDIT_ONLY(if (auditTick_.due()) auditInvariants();)
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

    std::size_t capacity() const { return buf_.size(); }

    /**
     * Serialize the buffer verbatim — capacity included, because
     * capacity grows on demand and determines when future pushes
     * reshuffle the ring (head_ resets on grow), which a re-snapshot
     * of the restored ring must reproduce.
     */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        std::uint64_t capacity = buf_.size();
        ar(capacity, head_, count_);
        SIM_ASSERT(!Ar::kLoading || count_ <= capacity,
                   "snapshot cycle ring count exceeds capacity");
        if constexpr (Ar::kLoading)
            buf_.resize(static_cast<std::size_t>(capacity));
        ar(std::span(buf_));
    }

    /**
     * Monotonicity walk: the live entries read head to tail must be
     * non-decreasing (earliest() and the prune loop both depend on
     * it), and the live count must fit the buffer. O(size); sampled
     * from push() in Audit builds.
     */
    void auditInvariants() const
    {
        SIM_ASSERT(count_ <= buf_.size(),
                   "cycle ring holds more entries than its buffer");
        const std::size_t mask = buf_.size() - 1;
        for (std::size_t i = 1; i < count_; ++i) {
            SIM_ASSERT(buf_[(head_ + i - 1) & mask] <=
                           buf_[(head_ + i) & mask],
                       "cycle ring lost sort order at live index ", i);
        }
    }

  private:
    friend struct AuditPeer;

    void
    grow()
    {
        std::vector<Cycle> bigger(buf_.size() * 2);
        const std::size_t mask = buf_.size() - 1;
        for (std::size_t i = 0; i < count_; ++i)
            bigger[i] = buf_[(head_ + i) & mask];
        buf_ = std::move(bigger);
        head_ = 0;
    }

    SIM_SNAPSHOT_FIELDS(4);

    std::vector<Cycle> buf_;
    std::size_t head_ = 0; //!< free-running; index is head_ & mask
    std::size_t count_ = 0;
    AuditSampler auditTick_{1024};
};

/**
 * Per-cycle completion counts over a sliding power-of-two horizon.
 *
 * add(c) records one event completing at cycle c; advanceTo(now)
 * expires every bucket <= now. outstanding() then equals the number
 * of recorded events with completion cycle > now — exactly the size
 * the old vector reported after erase_if(c <= now).
 */
class CycleCountRing
{
  public:
    explicit CycleCountRing(std::size_t horizonHint = 1024)
    {
        counts_.resize(std::bit_ceil(
            horizonHint < 2 ? std::size_t{2} : horizonHint));
    }

    /** Record one event completing at cycle @p c. Events at or
     *  before the cursor are already expired and are dropped. */
    void
    add(Cycle c)
    {
        if (c <= base_)
            return;
        if (c - base_ > counts_.size())
            grow(static_cast<std::size_t>(c - base_));
        ++counts_[c & (counts_.size() - 1)];
        ++outstanding_;
        SIM_AUDIT_ONLY(if (auditTick_.due()) auditInvariants();)
    }

    /** Expire every bucket at or before @p now. Amortized O(1) per
     *  simulated cycle: each bucket is cleared at most once per
     *  revolution, and empty spans are skipped wholesale. */
    void
    advanceTo(Cycle now)
    {
        if (now <= base_)
            return;
        if (outstanding_ == 0) { // all buckets zero; jump the cursor
            base_ = now;
            return;
        }
        const std::size_t mask = counts_.size() - 1;
        while (base_ < now) {
            ++base_;
            std::uint32_t &slot = counts_[base_ & mask];
            outstanding_ -= slot;
            slot = 0;
            if (outstanding_ == 0) {
                base_ = now;
                break;
            }
        }
    }

    /** Events still in flight (completion cycle > cursor). */
    std::size_t outstanding() const { return outstanding_; }

    /**
     * Cycle of the next non-empty bucket strictly after the cursor,
     * or kNeverCycle when nothing is in flight. The outstanding()
     * value is constant for every cycle in (cursor, nextEventCycle):
     * the idle-skip fast path uses this bound to bulk-apply the
     * per-cycle MLP sample. O(horizon) worst case, but only called
     * when the core is quiescent.
     */
    Cycle
    nextEventCycle() const
    {
        if (outstanding_ == 0)
            return kNeverCycle;
        const std::size_t mask = counts_.size() - 1;
        for (std::size_t i = 1; i <= counts_.size(); ++i) {
            if (counts_[(base_ + i) & mask] != 0)
                return base_ + i;
        }
        panic("cycle count ring outstanding without a live bucket");
    }

    Cycle cursor() const { return base_; }
    std::size_t horizon() const { return counts_.size(); }

    /** Serialize buckets verbatim (horizon included — it grows on
     *  demand, so it is part of the reproducible state). */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        std::uint64_t horizon = counts_.size();
        ar(horizon, base_, outstanding_);
        if constexpr (Ar::kLoading)
            counts_.resize(static_cast<std::size_t>(horizon));
        ar(std::span(counts_));
        SIM_AUDIT_ONLY(if constexpr (Ar::kLoading) auditInvariants();)
    }

    /**
     * Count-agreement walk: the cached outstanding total (which MLP
     * sampling reads every cycle) must equal the sum of all live
     * buckets. O(horizon); sampled from add() in Audit builds.
     */
    void auditInvariants() const
    {
        std::size_t sum = 0;
        for (std::uint32_t c : counts_)
            sum += c;
        SIM_ASSERT(sum == outstanding_,
                   "cycle count ring out of sync: buckets hold ", sum,
                   " events but outstanding count is ", outstanding_);
    }

  private:
    friend struct AuditPeer;

    void
    grow(std::size_t needed)
    {
        std::vector<std::uint32_t> bigger(std::bit_ceil(needed));
        const std::size_t oldMask = counts_.size() - 1;
        const std::size_t newMask = bigger.size() - 1;
        // Live cycles occupy (base_, base_ + oldCapacity]; they stay
        // distinct modulo the larger power of two.
        for (std::size_t i = 1; i <= counts_.size(); ++i) {
            const Cycle cy = base_ + i;
            bigger[cy & newMask] = counts_[cy & oldMask];
        }
        counts_ = std::move(bigger);
    }

    SIM_SNAPSHOT_FIELDS(4);

    std::vector<std::uint32_t> counts_;
    Cycle base_ = 0; //!< cursor: cycles <= base_ are expired
    std::size_t outstanding_ = 0;
    AuditSampler auditTick_{1024};
};

} // namespace cdfsim

#endif // CDFSIM_COMMON_CYCLE_RING_HH
