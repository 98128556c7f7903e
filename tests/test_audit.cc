/**
 * @file
 * Unit tests for the SIM_AUDIT invariant layer (common/audit.hh).
 *
 * Each structure with an auditInvariants() walk is exercised twice:
 * the walk must stay silent on a structure driven only through its
 * public API, and must panic once AuditPeer (the test-only friend)
 * corrupts private state in the specific way the check exists to
 * catch. This target is compiled with CDFSIM_AUDIT=1, so the hot-path
 * SIM_AUDIT / SIM_AUDIT_ONLY hooks are live here too: one test proves
 * a sampled mutator hook actually fires without any direct
 * auditInvariants() call, and CycleList (no walk, only O(1) hooks)
 * is driven to show its hooks stay silent on valid use.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/audit.hh"
#include "common/cycle_list.hh"
#include "common/logging.hh"
#include "common/pool.hh"
#include "common/serialize.hh"

static_assert(SIM_AUDIT_ENABLED,
              "test_audit must be compiled with CDFSIM_AUDIT=1");

namespace cdfsim
{

/**
 * The test-only backdoor audited structures befriend. Every helper
 * performs one deliberate, targeted corruption of private state.
 */
struct AuditPeer
{
    // --- SlabPool ---------------------------------------------------
    template <typename T>
    static void
    flagDeadSlotLive(SlabPool<T> &pool)
    {
        // The freelist still holds the slot, so the bitmap now
        // disagrees with both the live count and the freelist.
        SIM_ASSERT(!pool.freeList_.empty(), "test needs a free slot");
        pool.alive_[pool.freeList_.back()] = 1;
    }

    template <typename T>
    static void
    duplicateFreeListEntry(SlabPool<T> &pool)
    {
        SIM_ASSERT(pool.freeList_.size() >= 2,
                   "test needs two free slots");
        pool.freeList_[0] = pool.freeList_[1];
    }

    template <typename T>
    static void
    inflateLiveCount(SlabPool<T> &pool)
    {
        ++pool.live_;
    }
};

} // namespace cdfsim

namespace
{

using cdfsim::AuditPeer;
using cdfsim::AuditSampler;
using cdfsim::PanicError;
using cdfsim::SlabPool;

// ---------------------------------------------------------------- pool

TEST(AuditPool, SilentOnValidStructure)
{
    SlabPool<int> pool(8);
    std::vector<std::uint32_t> handles;
    for (int i = 0; i < 20; ++i)
        handles.push_back(pool.allocate());
    for (std::size_t i = 0; i < handles.size(); i += 2)
        pool.free(handles[i]);
    EXPECT_NO_THROW(pool.auditInvariants());
}

TEST(AuditPool, FiresOnLivenessBitmapCorruption)
{
    SlabPool<int> pool(8);
    pool.allocate();
    AuditPeer::flagDeadSlotLive(pool);
    EXPECT_THROW(pool.auditInvariants(), PanicError);
}

TEST(AuditPool, FiresOnDuplicatedFreeListEntry)
{
    SlabPool<int> pool(8);
    const auto a = pool.allocate();
    const auto b = pool.allocate();
    pool.free(a);
    pool.free(b);
    AuditPeer::duplicateFreeListEntry(pool);
    EXPECT_THROW(pool.auditInvariants(), PanicError);
}

TEST(AuditPool, FiresOnLiveCountDrift)
{
    SlabPool<int> pool(8);
    pool.allocate();
    AuditPeer::inflateLiveCount(pool);
    EXPECT_THROW(pool.auditInvariants(), PanicError);
}

TEST(AuditPool, DoubleAllocationOfLiveSlotPanics)
{
    // The always-on SIM_ASSERT in allocate(): a freelist corruption
    // that hands out a live slot must be caught at the allocation
    // site, not only by the sampled walk.
    SlabPool<int> pool(8);
    pool.allocate();
    AuditPeer::flagDeadSlotLive(pool);
    EXPECT_THROW(pool.allocate(), PanicError);
}

TEST(AuditPool, SampledHookFiresWithoutDirectCall)
{
    // Corrupt the pool, then keep allocating and freeing through the
    // public API: the SIM_AUDIT_ONLY sampler in the mutators must
    // trip the walk on its own within one sampling interval. Proves
    // the hot-path wiring, not just the walk.
    SlabPool<int> pool(8);
    pool.allocate();
    AuditPeer::inflateLiveCount(pool);
    EXPECT_THROW(
        {
            for (int i = 0; i < 4096; ++i)
                pool.free(pool.allocate());
        },
        PanicError);
}

// ---------------------------------------------------------- cycle list

TEST(AuditCycleList, SilentOnValidUse)
{
    // CycleList has no auditInvariants() walk; its push and prune
    // each carry one O(1) SIM_AUDIT, live in this target.
    cdfsim::CycleList list;
    EXPECT_NO_THROW({
        for (cdfsim::Cycle c : {30u, 10u, 20u, 50u, 40u, 15u, 15u})
            list.push(c);
        list.pruneUpTo(15);
        list.push(16);
        list.pruneUpTo(3);
    });
    EXPECT_EQ(list.earliest(), 16u);
    EXPECT_EQ(list.size(), 5u);
}

// --------------------------------------------------------- the macros

TEST(AuditMacro, FiresOnFalseCondition)
{
    EXPECT_THROW(SIM_AUDIT(1 + 1 == 3, "arithmetic broke"),
                 PanicError);
}

TEST(AuditMacro, SilentOnTrueCondition)
{
    EXPECT_NO_THROW(SIM_AUDIT(1 + 1 == 2, "arithmetic broke"));
}

TEST(AuditMacro, MessageNamesConditionAndLocation)
{
    try {
        SIM_AUDIT(false, "extra context ", 42);
        FAIL() << "SIM_AUDIT(false) did not panic";
    } catch (const PanicError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("audit:"), std::string::npos) << what;
        EXPECT_NE(what.find("false"), std::string::npos) << what;
        EXPECT_NE(what.find("test_audit.cc"), std::string::npos)
            << what;
        EXPECT_NE(what.find("extra context 42"), std::string::npos)
            << what;
    }
}

TEST(AuditMacro, AuditOnlyStatementRuns)
{
    int sideEffect = 0;
    SIM_AUDIT_ONLY(sideEffect = 7;)
    EXPECT_EQ(sideEffect, 7);
}

// --------------------------------------------------------- the sampler

TEST(AuditSamplerTest, DueExactlyOncePerInterval)
{
    AuditSampler sampler(4);
    EXPECT_EQ(sampler.interval(), 4u);
    int fired = 0;
    for (int i = 1; i <= 12; ++i) {
        if (sampler.due()) {
            ++fired;
            EXPECT_EQ(i % 4, 0) << "fired off-cadence at call " << i;
        }
    }
    EXPECT_EQ(fired, 3);
}

TEST(AuditSamplerTest, CadenceIsDeterministic)
{
    AuditSampler a(1024);
    AuditSampler b(1024);
    for (int i = 0; i < 5000; ++i)
        EXPECT_EQ(a.due(), b.due()) << "diverged at call " << i;
}

TEST(AuditSamplerTest, SnapshotKeepsTheCadence)
{
    // A restored sampler continues mid-interval where the saved one
    // stood, so a restored run walks at the cold run's operations.
    AuditSampler cold(4);
    cold.due();
    cold.due();
    cdfsim::SnapWriter w;
    w(cold);
    AuditSampler restored(4);
    cdfsim::SnapReader r(w.bytes());
    r(restored);
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(restored.due(), cold.due()) << "diverged at call " << i;
}

} // namespace
