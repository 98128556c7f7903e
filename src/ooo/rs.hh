/**
 * @file
 * Reservation stations with oldest-first, critical-preferred
 * selection (paper Section 3.5, "Issue and Dispatch").
 */

#ifndef CDFSIM_OOO_RS_HH
#define CDFSIM_OOO_RS_HH

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "ooo/dyn_inst.hh"
#include "ooo/rename.hh"

namespace cdfsim::ooo
{

/**
 * The reservation station pool.
 *
 * Entries are held in two per-class vectors (critical / regular)
 * kept sorted by timestamp, so the (critical-first, oldest-first)
 * selection order of Section 3.5 falls out of plain iteration with
 * no per-cycle sort. Insertions are append-only in the common case:
 * within a class, dispatch hands instructions over in ts order and
 * flushes only ever remove a youngest suffix, so the back of each
 * vector stays the youngest entry (a sorted insert covers the
 * remaining cases).
 */
class ReservationStations
{
  public:
    explicit ReservationStations(unsigned size)
        : size_(size), critCap_(0)
    {
        crit_.reserve(size);
        reg_.reserve(size);
    }

    unsigned size() const { return size_; }

    /** Cap on critical uops resident in the RS (scales with ROB). */
    void setCriticalCap(unsigned cap) { critCap_ = cap; }

    bool
    canInsert(bool critical) const
    {
        if (crit_.size() + reg_.size() >= size_)
            return false;
        if (critical && crit_.size() >= critCap_)
            return false;
        return true;
    }

    void
    insert(DynInst *inst)
    {
        SIM_ASSERT(canInsert(inst->critical), "RS overflow");
        auto &v = inst->critical ? crit_ : reg_;
        if (!v.empty() && v.back()->ts > inst->ts) {
            v.insert(std::upper_bound(
                         v.begin(), v.end(), inst,
                         [](const DynInst *a, const DynInst *b) {
                             return a->ts < b->ts;
                         }),
                     inst);
        } else {
            v.push_back(inst);
        }
    }

    /**
     * Select up to @p maxPick ready instructions: critical uops
     * first, then oldest timestamp (Section 3.5). Selected entries
     * are removed. @p ready decides readiness; @p accept may refuse
     * an instruction (e.g. a load port limit), leaving it resident.
     */
    template <typename ReadyFn, typename AcceptFn>
    unsigned
    selectAndIssue(unsigned maxPick, ReadyFn &&ready, AcceptFn &&accept)
    {
        scratch_.clear();
        unsigned issued = 0;
        for (auto *v : {&crit_, &reg_}) {
            for (DynInst *inst : *v) {
                if (issued >= maxPick)
                    break;
                if (!ready(inst) || !accept(inst))
                    continue;
                scratch_.push_back(inst);
                ++issued;
            }
        }
        for (DynInst *inst : scratch_)
            remove(inst);
        return issued;
    }

    void
    remove(DynInst *inst)
    {
        auto &v = inst->critical ? crit_ : reg_;
        auto it = std::find(v.begin(), v.end(), inst);
        SIM_ASSERT(it != v.end(), "RS remove: not resident");
        v.erase(it);
    }

    unsigned
    flushYounger(SeqNum flushTs)
    {
        unsigned dropped = 0;
        for (auto *v : {&crit_, &reg_}) {
            while (!v->empty() && v->back()->ts > flushTs) {
                v->pop_back();
                ++dropped;
            }
        }
        return dropped;
    }

    /**
     * Lower bound on the next cycle any resident entry could issue,
     * from the rsNextTry wakeup cache. Entries due at or before
     * @p now set @p anyDue (the scheduler must run — their cached
     * retry cycle is not a future bound); parked entries
     * (kNeverCycle) wake only via the completion broadcast, which
     * cannot run while the core is quiescent, so they do not bound
     * the skip. Returns kNeverCycle when no entry has a finite
     * future retry cycle.
     */
    Cycle
    earliestRetry(Cycle now, bool &anyDue) const
    {
        Cycle earliest = kNeverCycle;
        for (const auto *v : {&crit_, &reg_}) {
            for (const DynInst *inst : *v) {
                if (inst->rsNextTry <= now)
                    anyDue = true;
                else if (inst->rsNextTry < earliest)
                    earliest = inst->rsNextTry;
            }
        }
        return earliest;
    }

    /** Visit every resident entry (audit walks). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto *v : {&crit_, &reg_})
            for (const DynInst *inst : *v)
                fn(inst);
    }

    std::size_t occupancy() const { return crit_.size() + reg_.size(); }
    std::size_t criticalOccupancy() const { return crit_.size(); }
    bool full() const { return occupancy() >= size_; }

    void
    clear()
    {
        crit_.clear();
        reg_.clear();
    }

    /** Snapshot both classes; @p ref visits one DynInst* (as a pool
     *  handle). The issue scratch vector is transient (cleared at
     *  the top of every selectAndIssue) and excluded. */
    template <typename Ar, typename Ref>
    void
    fields(Ar &ar, Ref ref)
    {
        ar(critCap_, sized<std::uint32_t>(crit_, ref),
           sized<std::uint32_t>(reg_, ref));
    }

  private:
    SIM_SNAPSHOT_FIELDS(5);

    unsigned size_;
    unsigned critCap_;
    std::vector<DynInst *> crit_; //!< ts-sorted critical entries
    std::vector<DynInst *> reg_;  //!< ts-sorted regular entries
    std::vector<DynInst *> scratch_;
};

} // namespace cdfsim::ooo

#endif // CDFSIM_OOO_RS_HH
