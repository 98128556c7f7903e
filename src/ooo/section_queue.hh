/**
 * @file
 * Partitioned window queue (paper Section 3.5): the reorder buffer,
 * the load queue and the store queue are each one SectionQueue.
 *
 * Two program-ordered sections — critical and non-critical — share
 * one capacity budget, of which the partition controller grants the
 * critical section a cap. In baseline mode everything lives in the
 * non-critical section. The oldest entry is the older of the two
 * section heads, which is exactly the paper's dual-head-pointer
 * scheme; flushes truncate each section from the back (entries are
 * timestamp-ordered within a section).
 */

#ifndef CDFSIM_OOO_SECTION_QUEUE_HH
#define CDFSIM_OOO_SECTION_QUEUE_HH

#include <array>
#include <deque>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "ooo/dyn_inst.hh"

namespace cdfsim::ooo
{

/** One partitioned window structure (ROB, LQ or SQ). */
class SectionQueue
{
  public:
    explicit SectionQueue(unsigned size) : size_(size), critCap_(0) {}

    unsigned size() const { return size_; }

    /** Capacity currently granted to the critical section. */
    unsigned criticalCap() const { return critCap_; }

    /** Update the critical cap (from the partition controller). */
    void
    setCriticalCap(unsigned cap)
    {
        SIM_ASSERT(cap <= size_, "critical cap exceeds queue size");
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
        SIM_ASSERT(canInsert(critical), "queue section overflow");
        auto &q = critical ? crit_ : nonCrit_;
        SIM_ASSERT(q.empty() || q.back()->ts < inst->ts,
                   "queue section out of program order");
        q.push_back(inst);
    }

    bool empty() const { return crit_.empty() && nonCrit_.empty(); }
    std::size_t occupancy() const { return crit_.size() + nonCrit_.size(); }
    std::size_t criticalOccupancy() const { return crit_.size(); }
    std::size_t nonCriticalOccupancy() const { return nonCrit_.size(); }

    /** The globally oldest entry (minimum timestamp head). */
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

    /** Remove a specific retiring instruction (it is a head). */
    void
    retire(DynInst *inst)
    {
        if (!crit_.empty() && crit_.front() == inst) {
            crit_.pop_front();
            return;
        }
        SIM_ASSERT(!nonCrit_.empty() && nonCrit_.front() == inst,
                   "retiring instruction is not a section head");
        nonCrit_.pop_front();
    }

    /**
     * Drop every entry with ts > @p flushTs. Returns how many were
     * dropped (callers walk the master list for cleanup).
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

    /** Both sections (critical first), each in ascending ts order. */
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

    /**
     * Age-order walk: both sections must hold non-null entries in
     * strictly increasing timestamp order, under a critical cap that
     * fits the capacity. insert() asserts each of these pairwise at
     * insert time; the walk catches later corruption of resident
     * state. @p name labels the queue ("ROB"/"LQ"/"SQ") in the panic
     * message. Always compiled (tests call it in any build type);
     * sampled from the retire stage in Audit builds.
     */
    void
    auditAgeOrder(const char *name) const
    {
        SIM_ASSERT(critCap_ <= size_, name,
                   " critical cap exceeds capacity");
        for (const auto *q : sections()) {
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
     *  hence the member visitor. Capacity is config-fixed and
     *  excluded. */
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

#endif // CDFSIM_OOO_SECTION_QUEUE_HH
