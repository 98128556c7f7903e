/**
 * @file
 * Partitioned reorder buffer (paper Section 3.5).
 *
 * Two program-ordered sections — critical and non-critical — share
 * one capacity budget. In baseline mode everything lives in the
 * non-critical section. Retirement compares the timestamps of the
 * two section heads and retires the older, which is exactly the
 * paper's dual-retire-pointer scheme. Flushes truncate each section
 * from the back (entries are timestamp-ordered within a section).
 */

#ifndef CDFSIM_OOO_ROB_HH
#define CDFSIM_OOO_ROB_HH

#include <deque>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "ooo/dyn_inst.hh"

namespace cdfsim::ooo
{

/** The reorder buffer. */
class Rob
{
  public:
    explicit Rob(unsigned size) : size_(size), critCap_(0) {}

    unsigned size() const { return size_; }

    /** Capacity currently granted to the critical section. */
    unsigned criticalCap() const { return critCap_; }

    /** Update partition capacities (from the partition controller). */
    void
    setCriticalCap(unsigned cap)
    {
        SIM_ASSERT(cap <= size_, "critical cap exceeds ROB");
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
        SIM_ASSERT(canInsert(critical), "ROB section overflow");
        auto &q = critical ? crit_ : nonCrit_;
        SIM_ASSERT(q.empty() || q.back()->ts < inst->ts,
                   "ROB section out of program order");
        q.push_back(inst);
    }

    bool empty() const { return crit_.empty() && nonCrit_.empty(); }

    std::size_t
    occupancy() const
    {
        return crit_.size() + nonCrit_.size();
    }

    std::size_t criticalOccupancy() const { return crit_.size(); }
    std::size_t nonCriticalOccupancy() const { return nonCrit_.size(); }

    /** The globally oldest instruction (minimum timestamp head). */
    DynInst *
    head() const
    {
        if (crit_.empty())
            return nonCrit_.empty() ? nullptr : nonCrit_.front();
        if (nonCrit_.empty())
            return crit_.front();
        return crit_.front()->ts < nonCrit_.front()->ts
                   ? crit_.front()
                   : nonCrit_.front();
    }

    /** Remove the head returned by head(). */
    void
    popHead()
    {
        DynInst *h = head();
        SIM_ASSERT(h, "popHead on empty ROB");
        if (!crit_.empty() && crit_.front() == h)
            crit_.pop_front();
        else
            nonCrit_.pop_front();
    }

    /**
     * Drop every instruction with ts > @p flushTs. Returns how many
     * were dropped (callers walk the master list for cleanup).
     */
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

    /** Iteration support for stall analysis (Fig. 1). */
    const std::deque<DynInst *> &criticalSection() const { return crit_; }

    const std::deque<DynInst *> &
    nonCriticalSection() const
    {
        return nonCrit_;
    }

    void
    clear()
    {
        crit_.clear();
        nonCrit_.clear();
    }

    /**
     * Age-order walk: both sections must hold non-null entries in
     * strictly increasing timestamp order, under a critical cap that
     * fits the capacity. insert() asserts each of these pairwise at
     * insert time; the walk catches later corruption of resident
     * state. Always compiled (tests call it in any build type);
     * sampled from the retire stage in Audit builds.
     */
    void
    auditAgeOrder() const
    {
        SIM_ASSERT(critCap_ <= size_,
                   "ROB critical cap exceeds capacity");
        for (const auto *q : {&crit_, &nonCrit_}) {
            const DynInst *prev = nullptr;
            for (const DynInst *inst : *q) {
                SIM_ASSERT(inst != nullptr, "null ROB entry");
                SIM_ASSERT(!prev || prev->ts < inst->ts,
                           "ROB section out of age order");
                prev = inst;
            }
        }
    }

    /** Snapshot both sections; @p ref visits one DynInst* (as a
     *  pool handle). Capacity is config-fixed and excluded. */
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

} // namespace cdfsim::ooo

#endif // CDFSIM_OOO_ROB_HH
