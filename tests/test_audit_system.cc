/**
 * @file
 * Corruption tests for the system-level audit walks: the core's RS
 * wakeup cache (Core::auditRsWakeupCache), its rename maps
 * (Core::auditRenameMaps), its LSQ/ROB age ordering
 * (Core::auditLsqRobAge), its branch-checkpoint ownership
 * (Core::auditBpCheckpoints), the CDF side tables
 * (CriticalCountTable::auditInvariants, MaskCache::auditInvariants),
 * and the CMQ replay's check of the handle each entry carries.
 *
 * Unlike tests/test_audit.cc — which covers the header-only audited
 * containers and deliberately links only cdfsim_common — these walks
 * live in library object code, are always compiled (their bounds are
 * load-bearing for the idle-skip fast-forward path) and assert with
 * the always-on SIM_ASSERT. The tests therefore use the regular full
 * link and need no forced CDFSIM_AUDIT: each walk must stay silent on
 * a core driven mid-flight through the public API, and must panic
 * once AuditPeer (the befriended test-only backdoor) applies one
 * targeted corruption of private state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "cdf/critical_table.hh"
#include "cdf/fifos.hh"
#include "cdf/mask_cache.hh"
#include "common/audit.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "ooo/core.hh"
#include "ooo/dyn_inst.hh"
#include "ooo/rename.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace cdfsim
{

/**
 * The test-only backdoor (forward-declared in common/audit.hh) that
 * Core and the CDF side tables befriend. Every mutating helper
 * performs one deliberate, targeted corruption of private state.
 */
struct AuditPeer
{
    // --- Core: RS wakeup cache --------------------------------------

    /** First resident RS entry matching @p pred (nullptr if none). */
    template <typename Pred>
    static ooo::DynInst *
    findRsEntry(ooo::Core &c, Pred &&pred)
    {
        ooo::DynInst *hit = nullptr;
        c.rs_.forEach([&](const ooo::DynInst *inst) {
            if (!hit && pred(*inst))
                hit = const_cast<ooo::DynInst *>(inst);
        });
        return hit;
    }

    /** The operand-ready bound the audit walk recomputes. */
    static Cycle
    operandReadyBound(const ooo::Core &c, const ooo::DynInst &inst)
    {
        const Cycle r1 = inst.physSrc1 == kInvalidReg
                             ? 0
                             : c.prf_.readyAt(inst.physSrc1);
        const bool memOp = inst.isLoad() || inst.isStore();
        const Cycle r2 = (memOp || inst.physSrc2 == kInvalidReg)
                             ? 0
                             : c.prf_.readyAt(inst.physSrc2);
        return std::max(r1, r2);
    }

    /**
     * Overwrite a resident entry's cached retry cycle with a finite
     * value that cannot match the recomputed operand-ready bound —
     * exactly the drift a missed wakeup broadcast would leave behind.
     */
    static bool
    skewRsRetryCycle(ooo::Core &c)
    {
        ooo::DynInst *victim =
            findRsEntry(c, [](const ooo::DynInst &) { return true; });
        if (!victim)
            return false;
        const Cycle wait = operandReadyBound(c, *victim);
        victim->rsNextTry =
            wait == kNeverCycle ? Cycle{12'345} : wait + 1;
        return true;
    }

    /**
     * Register a ghost waiter on a register that is already ready:
     * the completion broadcast clears whole lists, so a non-empty
     * list on a ready register can only mean a lost broadcast.
     */
    static void
    ghostWaiterOnReadyReg(ooo::Core &c)
    {
        for (std::size_t r = 0; r < c.regWaiters_.size(); ++r) {
            if (c.prf_.readyAt(static_cast<RegId>(r)) == kNeverCycle)
                continue;
            c.regWaiters_[r].emplace_back(0u, ~SeqNum{0});
            return;
        }
        SIM_ASSERT(false, "test found no ready physical register");
    }

    /**
     * Strip a parked entry's waiter registrations, leaving it
     * unwakeable — the bug class the registration invariant exists
     * to catch.
     */
    static bool
    orphanParkedRsEntry(ooo::Core &c)
    {
        ooo::DynInst *parked =
            findRsEntry(c, [](const ooo::DynInst &inst) {
                return inst.rsNextTry == kNeverCycle;
            });
        if (!parked)
            return false;
        auto scrub = [&](RegId r) {
            if (r == kInvalidReg)
                return;
            std::erase_if(c.regWaiters_[r], [&](const auto &p) {
                return p.first == parked->poolIdx &&
                       p.second == parked->fetchSeq;
            });
        };
        scrub(parked->physSrc1);
        if (!(parked->isLoad() || parked->isStore()))
            scrub(parked->physSrc2);
        return true;
    }

    // --- CDF side tables: CCT and mask cache ------------------------

    static cdf::CriticalCountTable *
    loadCct(ooo::Core &c)
    {
        return c.loadCct_.get();
    }

    static cdf::MaskCache *
    maskCache(ooo::Core &c)
    {
        return c.maskCache_.get();
    }

    /** Clone a valid CCT tag into a second way of the same set. */
    static bool
    duplicateCctTag(cdf::CriticalCountTable &t)
    {
        const unsigned ways = t.config_.ways;
        for (std::size_t set = 0; set < t.sets_; ++set) {
            auto *base = &t.entries_[set * ways];
            for (unsigned w = 0; w < ways; ++w) {
                if (!base[w].valid)
                    continue;
                const unsigned other = (w + 1) % ways;
                base[other].valid = true;
                base[other].tag = base[w].tag;
                return true;
            }
        }
        return false;
    }

    /** Stamp a valid CCT entry newer than the allocation clock. */
    static bool
    skewCctLruTick(cdf::CriticalCountTable &t)
    {
        for (auto &e : t.entries_) {
            if (!e.valid)
                continue;
            e.lruTick = t.tick_ + 1;
            return true;
        }
        return false;
    }

    /** Move a valid CCT entry into a set its tag cannot hash to. */
    static bool
    teleportCctEntry(cdf::CriticalCountTable &t)
    {
        const unsigned ways = t.config_.ways;
        if (t.sets_ < 2)
            return false;
        for (std::size_t set = 0; set < t.sets_; ++set) {
            auto *base = &t.entries_[set * ways];
            for (unsigned w = 0; w < ways; ++w) {
                if (!base[w].valid)
                    continue;
                t.entries_[((set + 1) % t.sets_) * ways] = base[w];
                return true;
            }
        }
        return false;
    }

    /** Clone a valid mask cache tag into a second way of its set. */
    static bool
    duplicateMaskTag(cdf::MaskCache &m)
    {
        const unsigned ways = m.config_.ways;
        for (std::size_t set = 0; set < m.sets_; ++set) {
            auto *base = &m.entries_[set * ways];
            for (unsigned w = 0; w < ways; ++w) {
                if (!base[w].valid)
                    continue;
                const unsigned other = (w + 1) % ways;
                base[other].valid = true;
                base[other].tag = base[w].tag;
                return true;
            }
        }
        return false;
    }

    /** Stamp a valid mask cache entry ahead of the clock. */
    static bool
    skewMaskLruTick(cdf::MaskCache &m)
    {
        for (auto &e : m.entries_) {
            if (!e.valid)
                continue;
            e.lruTick = m.tick_ + 1;
            return true;
        }
        return false;
    }

    // --- Core: LSQ/ROB age ordering ---------------------------------

    /** Swap two adjacent entries of a ROB section, breaking the
     *  strictly-increasing timestamp order. */
    static bool
    swapAdjacentRobEntries(ooo::Core &c)
    {
        for (auto *q : {&c.rob_.crit_, &c.rob_.nonCrit_}) {
            if (q->size() >= 2) {
                std::swap((*q)[0], (*q)[1]);
                return true;
            }
        }
        return false;
    }

    /** Swap two adjacent entries of an LQ section. */
    static bool
    swapAdjacentLqEntries(ooo::Core &c)
    {
        auto &lq = c.lsq_.lq();
        for (auto *q : {&lq.crit_, &lq.nonCrit_}) {
            if (q->size() >= 2) {
                std::swap((*q)[0], (*q)[1]);
                return true;
            }
        }
        return false;
    }

    /** Duplicate a resident load into the store queue — the kind
     *  confusion a dispatch bug would produce. */
    static bool
    loadIntoStoreQueue(ooo::Core &c)
    {
        auto &lq = c.lsq_.lq();
        for (auto *q : {&lq.crit_, &lq.nonCrit_}) {
            if (!q->empty()) {
                c.lsq_.sq().nonCrit_.push_back(q->front());
                return true;
            }
        }
        return false;
    }

    /** Grant the ROB's critical section more capacity than the ROB
     *  has. */
    static void
    robCapOverSize(ooo::Core &c)
    {
        c.rob_.critCap_ = c.rob_.size_ + 1;
    }

    /** Erase the ROB entry backing an LQ head, leaving an LSQ entry
     *  with no ROB residence (a missed-squash shape). */
    static bool
    vanishRobEntryForLqHead(ooo::Core &c)
    {
        auto &lq = c.lsq_.lq();
        const ooo::DynInst *victim = nullptr;
        for (auto *q : {&lq.crit_, &lq.nonCrit_}) {
            if (!q->empty()) {
                victim = q->front();
                break;
            }
        }
        if (!victim)
            return false;
        for (auto *q : {&c.rob_.crit_, &c.rob_.nonCrit_}) {
            auto it = std::find(q->begin(), q->end(), victim);
            if (it != q->end()) {
                q->erase(it);
                return true;
            }
        }
        return false;
    }

    // --- Core: branch-checkpoint pool ------------------------------

    /** Allocate a checkpoint slot nobody owns — the leak a missed
     *  free on some squash or clear path would leave. */
    static void
    leakBpCheckpoint(ooo::Core &c)
    {
        c.bpCkptPool_.allocate();
    }

    /** Point a second in-flight instruction at a live instruction's
     *  checkpoint handle (the shape of a copied-not-moved handoff). */
    static bool
    shareBpCheckpoint(ooo::Core &c)
    {
        ooo::DynInst *holder = nullptr;
        ooo::DynInst *other = nullptr;
        for (std::uint32_t i = c.inflightHead_; i != kNoInst;
             i = c.inflightPool_.at(i).nextIdx) {
            ooo::DynInst &inst = c.inflightPool_.at(i);
            if (!holder && inst.hasBpCheckpoint())
                holder = &inst;
            else if (!other && !inst.hasBpCheckpoint())
                other = &inst;
        }
        if (!holder || !other)
            return false;
        other->bpCkpt = holder->bpCkpt;
        return true;
    }

    /** Hand the checkpoint a queued DBQ entry owns to an in-flight
     *  instruction as well, without removing the DBQ entry. */
    static bool
    shareDbqEntryCkpt(ooo::Core &c)
    {
        std::uint32_t ckpt = kNoInst;
        for (std::size_t i = 0; i < c.dbq_->size() && ckpt == kNoInst;
             ++i)
            ckpt = c.dbq_->at(i).ckpt;
        if (ckpt == kNoInst)
            return false;
        for (std::uint32_t i = c.inflightHead_; i != kNoInst;
             i = c.inflightPool_.at(i).nextIdx) {
            ooo::DynInst &inst = c.inflightPool_.at(i);
            if (!inst.hasBpCheckpoint()) {
                inst.bpCkpt = ckpt;
                return true;
            }
        }
        return false;
    }

    /** Point the oldest CMQ entry at the critical instruction of the
     *  next one, which stays live until its own replay. */
    static bool
    misdirectCmqHandle(ooo::Core &c)
    {
        if (c.cmq_->size() < 2)
            return false;
        c.cmq_->front().inst = c.cmq_->at(1).inst;
        return true;
    }

    // --- Core: rename maps ------------------------------------------

    /** Point an arch reg at a physical register that does not exist. */
    static void
    ratOutOfRange(ooo::Core &c)
    {
        c.rat_.table_[0] = static_cast<RegId>(c.prf_.size());
    }

    /** Map two arch regs onto the same physical register. */
    static void
    ratDuplicateMapping(ooo::Core &c)
    {
        c.rat_.table_[1] = c.rat_.table_[0];
    }

    /** Push a RAT-mapped register back onto the free list, the
     *  double-release a squash-walk bug would produce. */
    static void
    freeListOverlap(ooo::Core &c)
    {
        c.prf_.freeList_.push_back(c.rat_.lookup(0));
    }

    /** Duplicate a mapping in the critical RAT, if one is live. */
    static bool
    critRatDuplicateMapping(ooo::Core &c)
    {
        if (!c.critRatCopied_)
            return false;
        c.critRat_.table_[1] = c.critRat_.table_[0];
        return true;
    }
};

} // namespace cdfsim

namespace
{

using cdfsim::Addr;
using cdfsim::AuditPeer;
using cdfsim::PanicError;

/**
 * A core paused mid-flight on a memory-bound workload: run() stops
 * between cycles once the retire target is reached, leaving live
 * in-flight state (RS entries, waiter lists) for the helpers to
 * corrupt. mcf keeps dependents parked on outstanding DRAM misses.
 */
class AuditSystem : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cdfsim::ooo::CoreConfig cfg;
        sim_ = std::make_unique<cdfsim::sim::Simulator>(
            cfg, cdfsim::workloads::makeWorkload("mcf"));
        auto &core = sim_->core();
        for (int i = 0; i < 64 && !core.halted(); ++i) {
            core.run(core.retired() + 2'000);
            if (AuditPeer::findRsEntry(
                    core, [](const cdfsim::ooo::DynInst &) {
                        return true;
                    }))
                return;
        }
        FAIL() << "could not pause the core with a non-empty RS";
    }

    cdfsim::ooo::Core &core() { return sim_->core(); }

    std::unique_ptr<cdfsim::sim::Simulator> sim_;
};

// ------------------------------------------------- RS wakeup cache

TEST_F(AuditSystem, RsWakeupSilentOnDrivenCore)
{
    EXPECT_NO_THROW(core().auditRsWakeupCache());
}

TEST_F(AuditSystem, RsWakeupFiresOnSkewedRetryCycle)
{
    ASSERT_TRUE(AuditPeer::skewRsRetryCycle(core()));
    EXPECT_THROW(core().auditRsWakeupCache(), PanicError);
}

TEST_F(AuditSystem, RsWakeupFiresOnGhostWaiter)
{
    AuditPeer::ghostWaiterOnReadyReg(core());
    EXPECT_THROW(core().auditRsWakeupCache(), PanicError);
}

TEST_F(AuditSystem, RsWakeupFiresOnOrphanedParkedEntry)
{
    // Step forward until a parked entry (never-ready source) is in
    // the RS; on mcf one appears almost immediately, but the stop
    // point is workload state, not something the test controls.
    auto &c = core();
    bool orphaned = AuditPeer::orphanParkedRsEntry(c);
    for (int i = 0; i < 64 && !orphaned && !c.halted(); ++i) {
        c.run(c.retired() + 2'000);
        orphaned = AuditPeer::orphanParkedRsEntry(c);
    }
    if (!orphaned)
        GTEST_SKIP() << "no parked RS entry at any stop point";
    EXPECT_THROW(c.auditRsWakeupCache(), PanicError);
}

// ------------------------------------------------- rename maps

TEST_F(AuditSystem, RenameMapsSilentOnDrivenCore)
{
    EXPECT_NO_THROW(core().auditRenameMaps());
}

TEST_F(AuditSystem, RenameMapsFireOnOutOfRangeEntry)
{
    AuditPeer::ratOutOfRange(core());
    EXPECT_THROW(core().auditRenameMaps(), PanicError);
}

TEST_F(AuditSystem, RenameMapsFireOnDuplicateMapping)
{
    AuditPeer::ratDuplicateMapping(core());
    EXPECT_THROW(core().auditRenameMaps(), PanicError);
}

TEST_F(AuditSystem, RenameMapsFireOnFreeListOverlap)
{
    AuditPeer::freeListOverlap(core());
    EXPECT_THROW(core().auditRenameMaps(), PanicError);
}

// ------------------------------------------------- LSQ/ROB ordering

TEST_F(AuditSystem, LsqRobSilentOnDrivenCore)
{
    EXPECT_NO_THROW(core().auditLsqRobAge());
}

TEST_F(AuditSystem, LsqRobFiresOnRobAgeSwap)
{
    // The fixture pauses with a non-empty RS, so the ROB holds the
    // same in-flight instructions — two adjacent ones to swap.
    ASSERT_TRUE(AuditPeer::swapAdjacentRobEntries(core()));
    EXPECT_THROW(core().auditLsqRobAge(), PanicError);
}

TEST_F(AuditSystem, LsqRobFiresOnLqAgeSwap)
{
    // mcf keeps multiple loads in flight, but the pause point is
    // workload state; step until two LQ entries coexist.
    auto &c = core();
    bool corrupted = AuditPeer::swapAdjacentLqEntries(c);
    for (int i = 0; i < 64 && !corrupted && !c.halted(); ++i) {
        c.run(c.retired() + 2'000);
        corrupted = AuditPeer::swapAdjacentLqEntries(c);
    }
    if (!corrupted)
        GTEST_SKIP() << "never saw two resident LQ entries";
    EXPECT_THROW(c.auditLsqRobAge(), PanicError);
}

TEST_F(AuditSystem, LsqRobFiresOnLoadInStoreQueue)
{
    auto &c = core();
    bool corrupted = AuditPeer::loadIntoStoreQueue(c);
    for (int i = 0; i < 64 && !corrupted && !c.halted(); ++i) {
        c.run(c.retired() + 2'000);
        corrupted = AuditPeer::loadIntoStoreQueue(c);
    }
    if (!corrupted)
        GTEST_SKIP() << "never saw a resident LQ entry";
    EXPECT_THROW(c.auditLsqRobAge(), PanicError);
}

TEST_F(AuditSystem, LsqRobFiresOnCapOverSize)
{
    AuditPeer::robCapOverSize(core());
    EXPECT_THROW(core().auditLsqRobAge(), PanicError);
}

TEST_F(AuditSystem, LsqRobFiresOnVanishedRobEntry)
{
    auto &c = core();
    bool corrupted = AuditPeer::vanishRobEntryForLqHead(c);
    for (int i = 0; i < 64 && !corrupted && !c.halted(); ++i) {
        c.run(c.retired() + 2'000);
        corrupted = AuditPeer::vanishRobEntryForLqHead(c);
    }
    if (!corrupted)
        GTEST_SKIP() << "never saw a resident LQ entry";
    EXPECT_THROW(c.auditLsqRobAge(), PanicError);
}

// ------------------------------------------------- checkpoint pool

TEST_F(AuditSystem, BpCheckpointsSilentOnDrivenCore)
{
    EXPECT_NO_THROW(core().auditBpCheckpoints());
}

TEST_F(AuditSystem, BpCheckpointsFireOnLeakedHandle)
{
    AuditPeer::leakBpCheckpoint(core());
    EXPECT_THROW(core().auditBpCheckpoints(), PanicError);
}

TEST_F(AuditSystem, BpCheckpointsFireOnDoublyOwnedHandle)
{
    auto &c = core();
    bool corrupted = AuditPeer::shareBpCheckpoint(c);
    for (int i = 0; i < 64 && !corrupted && !c.halted(); ++i) {
        c.run(c.retired() + 2'000);
        corrupted = AuditPeer::shareBpCheckpoint(c);
    }
    ASSERT_TRUE(corrupted) << "never saw an in-flight branch";
    EXPECT_THROW(c.auditBpCheckpoints(), PanicError);
}

// ------------------------------------------------- CDF side tables

/**
 * As AuditSystem, but in CDF mode so retire training populates the
 * load CCT and episodes merge masks into the mask cache. mcf is
 * memory bound, so CDF engages within the first few thousand
 * instructions.
 */
class AuditSystemCdf : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cdfsim::ooo::CoreConfig cfg;
        cfg.mode = cdfsim::ooo::CoreMode::Cdf;
        sim_ = std::make_unique<cdfsim::sim::Simulator>(
            cfg, cdfsim::workloads::makeWorkload("mcf"));
    }

    cdfsim::ooo::Core &core() { return sim_->core(); }

    /** Step until @p corrupt lands (it returns false while the state
     *  it targets has not appeared yet), then expect the walk named
     *  by @p walk to panic. */
    template <typename Corrupt, typename Walk>
    void
    expectFires(Corrupt &&corrupt, Walk &&walk)
    {
        auto &c = core();
        bool corrupted = corrupt(c);
        for (int i = 0; i < 64 && !corrupted && !c.halted(); ++i) {
            c.run(c.retired() + 2'000);
            corrupted = corrupt(c);
        }
        ASSERT_TRUE(corrupted)
            << "target state never appeared on mcf/cdf";
        EXPECT_THROW(walk(c), PanicError);
    }

    std::unique_ptr<cdfsim::sim::Simulator> sim_;
};

TEST_F(AuditSystemCdf, SideTablesSilentOnDrivenCore)
{
    auto &c = core();
    c.run(c.retired() + 100'000);
    ASSERT_NE(AuditPeer::loadCct(c), nullptr);
    ASSERT_NE(AuditPeer::maskCache(c), nullptr);
    EXPECT_NO_THROW(AuditPeer::loadCct(c)->auditInvariants());
    EXPECT_NO_THROW(AuditPeer::maskCache(c)->auditInvariants());
    EXPECT_NO_THROW(c.auditRenameMaps());
    EXPECT_NO_THROW(c.auditLsqRobAge());
    EXPECT_NO_THROW(c.auditBpCheckpoints());
}

TEST_F(AuditSystemCdf, CctFiresOnDuplicateTag)
{
    expectFires(
        [](auto &c) {
            return AuditPeer::duplicateCctTag(*AuditPeer::loadCct(c));
        },
        [](auto &c) { AuditPeer::loadCct(c)->auditInvariants(); });
}

TEST_F(AuditSystemCdf, CctFiresOnLruAheadOfClock)
{
    expectFires(
        [](auto &c) {
            return AuditPeer::skewCctLruTick(*AuditPeer::loadCct(c));
        },
        [](auto &c) { AuditPeer::loadCct(c)->auditInvariants(); });
}

TEST_F(AuditSystemCdf, CctFiresOnTeleportedEntry)
{
    expectFires(
        [](auto &c) {
            return AuditPeer::teleportCctEntry(
                *AuditPeer::loadCct(c));
        },
        [](auto &c) { AuditPeer::loadCct(c)->auditInvariants(); });
}

TEST_F(AuditSystemCdf, MaskCacheFiresOnDuplicateTag)
{
    expectFires(
        [](auto &c) {
            return AuditPeer::duplicateMaskTag(
                *AuditPeer::maskCache(c));
        },
        [](auto &c) { AuditPeer::maskCache(c)->auditInvariants(); });
}

TEST_F(AuditSystemCdf, MaskCacheFiresOnLruAheadOfClock)
{
    expectFires(
        [](auto &c) {
            return AuditPeer::skewMaskLruTick(
                *AuditPeer::maskCache(c));
        },
        [](auto &c) { AuditPeer::maskCache(c)->auditInvariants(); });
}

TEST_F(AuditSystemCdf, CritRatFiresOnDuplicateMapping)
{
    expectFires(
        [](auto &c) { return AuditPeer::critRatDuplicateMapping(c); },
        [](auto &c) { c.auditRenameMaps(); });
}

TEST_F(AuditSystemCdf, BpCheckpointsFireOnDbqHandleSharedWithInst)
{
    expectFires(
        [](auto &c) { return AuditPeer::shareDbqEntryCkpt(c); },
        [](auto &c) { c.auditBpCheckpoints(); });
}

TEST_F(AuditSystemCdf, CmqReplayFiresOnMisdirectedHandle)
{
    // Not a walk: the regular rename's replay checks the handle of
    // every CMQ entry it pops, so the next replay must panic.
    expectFires(
        [](auto &c) { return AuditPeer::misdirectCmqHandle(c); },
        [](auto &c) {
            try {
                c.run(c.retired() + 20'000);
            } catch (const PanicError &e) {
                EXPECT_NE(std::string(e.what()).find("CMQ replay"),
                          std::string::npos)
                    << e.what();
                throw;
            }
        });
}

} // namespace
