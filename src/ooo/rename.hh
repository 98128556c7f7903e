/**
 * @file
 * Register Alias Table, physical register file bookkeeping and the
 * free list.
 *
 * The CDF implementation keeps two RenameMaps: the regular RAT and
 * the critical RAT (a copy taken when CDF mode begins, Section 3.4).
 * Both draw physical registers from one shared FreeList /
 * scoreboard. The regular RAT additionally carries the per-register
 * poison bits used to detect critical-stream dependence violations
 * (Section 3.6, Fig. 11).
 */

#ifndef CDFSIM_OOO_RENAME_HH
#define CDFSIM_OOO_RENAME_HH

#include <array>
#include <bitset>
#include <vector>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/types.hh"
#include "isa/uop.hh"

namespace cdfsim::ooo
{

/** Shared physical register state: free list plus ready times. */
class PhysRegFile
{
  public:
    explicit PhysRegFile(unsigned numPhysRegs)
        : readyAt_(numPhysRegs, 0)
    {
        SIM_ASSERT(numPhysRegs > kNumArchRegs + 8,
                   "too few physical registers");
        // Regs [0, kNumArchRegs) boot as the committed arch state;
        // the rest are free.
        freeList_.reserve(numPhysRegs);
        for (RegId p = numPhysRegs; p-- > kNumArchRegs;)
            freeList_.push_back(p);
    }

    bool hasFree() const { return !freeList_.empty(); }
    std::size_t numFree() const { return freeList_.size(); }
    std::size_t size() const { return readyAt_.size(); }

    RegId
    allocate()
    {
        SIM_ASSERT(!freeList_.empty(), "phys reg underflow");
        RegId p = freeList_.back();
        freeList_.pop_back();
        readyAt_[p] = kNeverCycle;
        return p;
    }

    void
    release(RegId p)
    {
        SIM_ASSERT(p < readyAt_.size(), "bad phys reg");
        freeList_.push_back(p);
    }

    /** Value of @p p becomes available at @p cycle. */
    void
    setReadyAt(RegId p, Cycle cycle)
    {
        SIM_ASSERT(p < readyAt_.size(), "bad phys reg");
        readyAt_[p] = cycle;
    }

    Cycle
    readyAt(RegId p) const
    {
        SIM_ASSERT(p < readyAt_.size(), "bad phys reg");
        return readyAt_[p];
    }

    bool
    isReady(RegId p, Cycle now) const
    {
        return p == kInvalidReg || readyAt_[p] <= now;
    }

    /** Free-list view for the rename-map audit walk. */
    const std::vector<RegId> &freeRegs() const { return freeList_; }

    /** Snapshot ready times and the free list verbatim (allocation
     *  order is architectural: it decides future mappings). */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        auto n = static_cast<std::uint32_t>(readyAt_.size());
        ar(n);
        SIM_ASSERT(n == readyAt_.size(),
                   "snapshot phys reg count differs from this core's");
        ar(std::span(readyAt_), sized<std::uint32_t>(freeList_));
    }

  private:
    SIM_SNAPSHOT_FIELDS(2);

    friend struct cdfsim::AuditPeer;

    std::vector<Cycle> readyAt_;
    std::vector<RegId> freeList_;
};

/** The outcome of renaming one uop. */
struct RenameResult
{
    RegId physSrc1 = kInvalidReg;
    RegId physSrc2 = kInvalidReg;
    RegId physDst = kInvalidReg;
    RegId oldPhysDst = kInvalidReg;
};

/** One Register Alias Table. */
class RenameMap
{
  public:
    RenameMap()
    {
        for (RegId a = 0; a < kNumArchRegs; ++a)
            table_[a] = a;
    }

    /** Rename @p uop, allocating the destination from @p prf. */
    RenameResult
    rename(const isa::Uop &uop, PhysRegFile &prf)
    {
        RenameResult r;
        if (uop.src1 != kInvalidReg)
            r.physSrc1 = table_[uop.src1];
        if (uop.src2 != kInvalidReg)
            r.physSrc2 = table_[uop.src2];
        if (uop.writesReg()) {
            r.oldPhysDst = table_[uop.dst];
            r.physDst = prf.allocate();
            table_[uop.dst] = r.physDst;
        }
        return r;
    }

    /**
     * Replay a rename performed elsewhere (the CMQ path): update the
     * mapping to an already-allocated physical register.
     */
    RegId
    replay(RegId archDst, RegId physDst)
    {
        SIM_ASSERT(archDst < kNumArchRegs, "bad arch reg");
        RegId old = table_[archDst];
        table_[archDst] = physDst;
        return old;
    }

    /** Undo one rename during squash walk (youngest first). */
    void
    undo(RegId archDst, RegId oldPhysDst)
    {
        SIM_ASSERT(archDst < kNumArchRegs, "bad arch reg");
        table_[archDst] = oldPhysDst;
    }

    RegId
    lookup(RegId archReg) const
    {
        SIM_ASSERT(archReg < kNumArchRegs, "bad arch reg");
        return table_[archReg];
    }

    /** Copy mappings (critical RAT creation at CDF entry). */
    void copyFrom(const RenameMap &other) { table_ = other.table_; }

    // --- Poison bits (regular RAT only; Section 3.6) ---

    void setPoison(RegId archReg) { poison_[archReg] = true; }
    void clearPoison(RegId archReg) { poison_[archReg] = false; }
    bool poisoned(RegId archReg) const { return poison_[archReg]; }
    void clearAllPoison() { poison_.reset(); }

    /** Snapshot/restore the poison bits (flush recovery). */
    std::uint64_t
    poisonBits() const
    {
        static_assert(kNumArchRegs <= 64, "poison snapshot width");
        return poison_.to_ullong();
    }

    void setPoisonBits(std::uint64_t bits) { poison_ = bits; }

    /** True when any source of @p uop reads a poisoned register. */
    bool
    readsPoisoned(const isa::Uop &uop) const
    {
        return (uop.src1 != kInvalidReg && poison_[uop.src1]) ||
               (uop.src2 != kInvalidReg && poison_[uop.src2]);
    }

    /** Snapshot the mapping table and the poison bits. */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(table_, poison_);
    }

  private:
    SIM_SNAPSHOT_FIELDS(2);

    friend struct cdfsim::AuditPeer;

    std::array<RegId, kNumArchRegs> table_;
    std::bitset<kNumArchRegs> poison_;
};

} // namespace cdfsim::ooo

#endif // CDFSIM_OOO_RENAME_HH
