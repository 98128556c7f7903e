/**
 * @file
 * Partitioned load and store queues with timestamp-based memory
 * disambiguation (paper Section 3.5, "Memory Disambiguation").
 *
 * Entries within each section are in program order; disambiguation
 * searches both sections and compares timestamps, exactly the
 * "two sets of (smaller) ordered queues" the paper describes.
 */

#ifndef CDFSIM_OOO_LSQ_HH
#define CDFSIM_OOO_LSQ_HH

#include <algorithm>

#include "ooo/section_queue.hh"

namespace cdfsim::ooo
{

/** Load + store queues with the disambiguation searches. */
class Lsq
{
  public:
    Lsq(unsigned lqSize, unsigned sqSize) : lq_(lqSize), sq_(sqSize) {}

    SectionQueue &lq() { return lq_; }
    SectionQueue &sq() { return sq_; }
    const SectionQueue &lq() const { return lq_; }
    const SectionQueue &sq() const { return sq_; }

    /**
     * Store-to-load forwarding search for @p load (whose address is
     * known): the youngest older store to the same word whose
     * address is known. Each section is age-ordered, so its scan
     * starts at the youngest store older than the load and stops at
     * the first match.
     *
     * @return the store, or nullptr. When @p olderUnknownAddr is
     * non-null it is set iff an older store with an unresolved
     * address exists — the caller decides whether to speculate past
     * it (that report scans every older store).
     */
    DynInst *
    forwardingStore(const DynInst *load, bool *olderUnknownAddr) const
    {
        DynInst *best = nullptr;
        bool unknown = false;
        for (const auto *q : sq_.sections()) {
            auto it = std::lower_bound(
                q->begin(), q->end(), load->ts,
                [](const DynInst *e, SeqNum ts) { return e->ts < ts; });
            while (it != q->begin()) {
                DynInst *st = *--it;
                if (!st->addrKnown) {
                    unknown = true;
                    continue;
                }
                if (st->memWord() == load->memWord()) {
                    if (!best || st->ts > best->ts)
                        best = st;
                    break;
                }
            }
            if (olderUnknownAddr && !unknown) {
                unknown = std::any_of(
                    q->begin(), it,
                    [](const DynInst *st) { return !st->addrKnown; });
            }
        }
        if (olderUnknownAddr)
            *olderUnknownAddr = unknown;
        return best;
    }

    /**
     * Ordering-violation search when @p store resolves its address:
     * the OLDEST younger load on the same word that already executed
     * and did not forward from this store or a younger one. Each
     * section's scan starts at its oldest load younger than the
     * store and stops at the first match (or once it cannot beat
     * the other section's).
     */
    DynInst *
    violatingLoad(const DynInst *store) const
    {
        DynInst *worst = nullptr;
        for (const auto *q : lq_.sections()) {
            auto it = std::upper_bound(
                q->begin(), q->end(), store->ts,
                [](SeqNum ts, const DynInst *e) { return ts < e->ts; });
            for (; it != q->end(); ++it) {
                DynInst *ld = *it;
                if (worst && ld->ts > worst->ts)
                    break;
                if (!ld->addrKnown)
                    continue;
                if (ld->state != InstState::Issued &&
                    ld->state != InstState::Completed)
                    continue;
                if (ld->memWord() != store->memWord())
                    continue;
                if (ld->forwardSrcTs >= store->ts)
                    continue; // got its data from this store or younger
                worst = ld;
                break;
            }
        }
        return worst;
    }

  private:
    SectionQueue lq_;
    SectionQueue sq_;
};

} // namespace cdfsim::ooo

#endif // CDFSIM_OOO_LSQ_HH
