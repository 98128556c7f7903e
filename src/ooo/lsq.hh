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
#include <array>
#include <deque>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "ooo/dyn_inst.hh"

namespace cdfsim::ooo
{

/** One partitioned queue (used for both the LQ and the SQ). */
class MemQueue
{
  public:
    explicit MemQueue(unsigned size) : size_(size), critCap_(0) {}

    unsigned size() const { return size_; }
    unsigned criticalCap() const { return critCap_; }

    void
    setCriticalCap(unsigned cap)
    {
        SIM_ASSERT(cap <= size_, "critical cap exceeds queue");
        critCap_ = cap;
    }

    bool
    canInsert(bool critical) const
    {
        if (critical)
            return crit_.size() < critCap_;
        return nonCrit_.size() < size_ - critCap_;
    }

    void
    insert(DynInst *inst, bool critical)
    {
        SIM_ASSERT(canInsert(critical), "LSQ section overflow");
        auto &q = critical ? crit_ : nonCrit_;
        SIM_ASSERT(q.empty() || q.back()->ts < inst->ts,
                   "LSQ section out of program order");
        q.push_back(inst);
    }

    /** Remove a specific retiring instruction (it is a head). */
    void
    retire(DynInst *inst)
    {
        if (!crit_.empty() && crit_.front() == inst) {
            crit_.pop_front();
            return;
        }
        SIM_ASSERT(!nonCrit_.empty() && nonCrit_.front() == inst,
                   "retiring instruction is not an LSQ head");
        nonCrit_.pop_front();
    }

    unsigned
    flushYounger(SeqNum flushTs)
    {
        unsigned dropped = 0;
        for (auto *q : {&crit_, &nonCrit_}) {
            while (!q->empty() && q->back()->ts > flushTs) {
                q->pop_back();
                ++dropped;
            }
        }
        return dropped;
    }

    std::size_t occupancy() const { return crit_.size() + nonCrit_.size(); }
    std::size_t criticalOccupancy() const { return crit_.size(); }
    std::size_t nonCriticalOccupancy() const { return nonCrit_.size(); }

    /** Both sections, each in ascending timestamp order. */
    std::array<const std::deque<DynInst *> *, 2>
    sections() const
    {
        return {&crit_, &nonCrit_};
    }

    /** Visit every entry (both sections), in no particular order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (DynInst *i : crit_)
            fn(i);
        for (DynInst *i : nonCrit_)
            fn(i);
    }

    void
    clear()
    {
        crit_.clear();
        nonCrit_.clear();
    }

    /**
     * Age-order walk (see Rob::auditAgeOrder): both sections must
     * hold non-null entries in strictly increasing timestamp order
     * under a cap that fits the capacity. @p name labels the queue
     * ("LQ"/"SQ") in the panic message. Always compiled; sampled
     * from the retire stage in Audit builds.
     */
    void
    auditAgeOrder(const char *name) const
    {
        SIM_ASSERT(critCap_ <= size_, name,
                   " critical cap exceeds capacity");
        for (const auto *q : {&crit_, &nonCrit_}) {
            const DynInst *prev = nullptr;
            for (const DynInst *inst : *q) {
                SIM_ASSERT(inst != nullptr, "null ", name, " entry");
                SIM_ASSERT(!prev || prev->ts < inst->ts, name,
                           " section out of age order");
                prev = inst;
            }
        }
    }

    /** Snapshot both sections; @p ref visits one DynInst* (as a
     *  pool handle). forEach() cannot reconstruct the section split,
     *  hence the member visitor. */
    template <typename Ar, typename Ref>
    void
    fields(Ar &ar, Ref ref)
    {
        ar(critCap_, sized<std::uint32_t>(crit_, ref),
           sized<std::uint32_t>(nonCrit_, ref));
    }

  private:
    friend struct cdfsim::AuditPeer; //!< test-only corruption access

    SIM_SNAPSHOT_FIELDS(4);

    unsigned size_;
    unsigned critCap_;
    std::deque<DynInst *> crit_;
    std::deque<DynInst *> nonCrit_;
};

/** Load + store queues with the disambiguation searches. */
class Lsq
{
  public:
    Lsq(unsigned lqSize, unsigned sqSize) : lq_(lqSize), sq_(sqSize) {}

    MemQueue &lq() { return lq_; }
    MemQueue &sq() { return sq_; }
    const MemQueue &lq() const { return lq_; }
    const MemQueue &sq() const { return sq_; }

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

    /**
     * Age-order + kind walk: both queues pass their section walks,
     * every LQ entry is a load, and every SQ entry is a store.
     * Always compiled; sampled from the retire stage in Audit
     * builds (Core::auditLsqRobAge adds the cross-checks against
     * the ROB and the instruction pool).
     */
    void
    auditAgeOrder() const
    {
        lq_.auditAgeOrder("LQ");
        sq_.auditAgeOrder("SQ");
        lq_.forEach([](DynInst *inst) {
            SIM_ASSERT(inst->isLoad(), "non-load in the LQ");
        });
        sq_.forEach([](DynInst *inst) {
            SIM_ASSERT(inst->isStore(), "non-store in the SQ");
        });
    }

    /** Snapshot both queues (delegates the pointer visitor). */
    template <typename Ar, typename Ref>
    void
    fields(Ar &ar, Ref ref)
    {
        lq_.fields(ar, ref);
        sq_.fields(ar, ref);
    }

  private:
    SIM_SNAPSHOT_FIELDS(2);

    MemQueue lq_;
    MemQueue sq_;
};

} // namespace cdfsim::ooo

#endif // CDFSIM_OOO_LSQ_HH
