/**
 * @file
 * Unit tests for the OoO backend structures: the partitioned window
 * queue (ROB, LQ and SQ) and the load/store queues' timestamp
 * disambiguation,
 * the reservation stations' critical-first selection, and the
 * rename map / physical register file, and the per-block
 * criticality bits CDF hands from critical to regular fetch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <type_traits>
#include <vector>

#include "common/pool.hh"
#include "common/random.hh"
#include "ooo/core.hh"
#include "ooo/lsq.hh"
#include "ooo/rename.hh"
#include "ooo/rs.hh"
#include "ooo/section_queue.hh"

using namespace cdfsim;
using namespace cdfsim::ooo;

namespace
{

DynInst
makeInst(SeqNum ts, bool critical = false)
{
    DynInst i;
    i.ts = ts;
    i.critical = critical;
    return i;
}

DynInst
makeMem(SeqNum ts, Addr addr, bool isStore, bool addrKnown = true)
{
    DynInst i;
    i.ts = ts;
    i.uop.op = isStore ? isa::Opcode::Store : isa::Opcode::Load;
    if (isStore) {
        i.uop.src1 = 1;
        i.uop.src2 = 2;
    } else {
        i.uop.dst = 3;
        i.uop.src1 = 1;
    }
    i.memAddr = addr;
    i.addrKnown = addrKnown;
    i.state = InstState::Issued;
    return i;
}

} // namespace

// --- SectionQueue ---
//
// The Rob.* cases drive a SectionQueue the way the core drives its
// ROB (retire from the global head); the SectionQueue.* cases cover
// the rest of the shared API.

TEST(Rob, RetiresMinimumTimestampAcrossSections)
{
    SectionQueue rob(16);
    rob.setCriticalCap(8);
    DynInst c1 = makeInst(5, true), c2 = makeInst(9, true);
    DynInst n1 = makeInst(3), n2 = makeInst(7);
    rob.insert(&c1, true);
    rob.insert(&c2, true);
    rob.insert(&n1, false);
    rob.insert(&n2, false);

    EXPECT_EQ(rob.head()->ts, 3u);
    rob.retire(rob.head());
    EXPECT_EQ(rob.head()->ts, 5u);
    rob.retire(rob.head());
    EXPECT_EQ(rob.head()->ts, 7u);
    rob.retire(rob.head());
    EXPECT_EQ(rob.head()->ts, 9u);
}

TEST(Rob, SectionCapacitiesEnforced)
{
    SectionQueue rob(4);
    rob.setCriticalCap(1);
    DynInst c1 = makeInst(1, true), c2 = makeInst(2, true);
    DynInst n1 = makeInst(3), n2 = makeInst(4), n3 = makeInst(5),
            n4 = makeInst(6);
    EXPECT_TRUE(rob.canInsert(true));
    rob.insert(&c1, true);
    EXPECT_FALSE(rob.canInsert(true)) << "critical cap is 1";
    (void)c2;
    rob.insert(&n1, false);
    rob.insert(&n2, false);
    rob.insert(&n3, false);
    EXPECT_FALSE(rob.canInsert(false)) << "non-critical cap is 3";
    (void)n4;
}

TEST(Rob, FlushYoungerTruncatesBothSections)
{
    SectionQueue rob(16);
    rob.setCriticalCap(8);
    DynInst c1 = makeInst(2, true), c2 = makeInst(8, true);
    DynInst n1 = makeInst(4), n2 = makeInst(6), n3 = makeInst(9);
    rob.insert(&c1, true);
    rob.insert(&c2, true);
    rob.insert(&n1, false);
    rob.insert(&n2, false);
    rob.insert(&n3, false);
    EXPECT_EQ(rob.flushYounger(5), 3u); // drops ts 6, 8, 9
    EXPECT_EQ(rob.occupancy(), 2u);
    EXPECT_EQ(rob.head()->ts, 2u);
}

TEST(Rob, FlushYoungerOnEmptyRobIsNoop)
{
    SectionQueue rob(8);
    EXPECT_EQ(rob.flushYounger(5), 0u);
    EXPECT_TRUE(rob.empty());
    EXPECT_EQ(rob.head(), nullptr);
}

TEST(Rob, FlushYoungerCanFlushEverything)
{
    SectionQueue rob(8);
    rob.setCriticalCap(4);
    DynInst c1 = makeInst(3, true), n1 = makeInst(4), n2 = makeInst(6);
    rob.insert(&c1, true);
    rob.insert(&n1, false);
    rob.insert(&n2, false);
    EXPECT_EQ(rob.flushYounger(2), 3u);
    EXPECT_TRUE(rob.empty());
    EXPECT_EQ(rob.occupancy(), 0u);
}

TEST(Rob, FlushYoungerAtOrAboveMaxTsFlushesNothing)
{
    SectionQueue rob(8);
    rob.setCriticalCap(4);
    DynInst c1 = makeInst(3, true), n1 = makeInst(4), n2 = makeInst(6);
    rob.insert(&c1, true);
    rob.insert(&n1, false);
    rob.insert(&n2, false);
    EXPECT_EQ(rob.flushYounger(6), 0u) << "ts == flushTs survives";
    EXPECT_EQ(rob.occupancy(), 3u);
    EXPECT_EQ(rob.flushYounger(kInvalidSeq), 0u);
    EXPECT_EQ(rob.occupancy(), 3u);
}

TEST(Rob, OutOfOrderInsertPanics)
{
    SectionQueue rob(8);
    rob.setCriticalCap(4);
    DynInst a = makeInst(5, true), b = makeInst(4, true);
    rob.insert(&a, true);
    EXPECT_THROW(rob.insert(&b, true), PanicError);
}

TEST(SectionQueue, PartitionedCapacityAndRetire)
{
    SectionQueue q(4);
    q.setCriticalCap(2);
    DynInst c = makeMem(1, 0, false);
    c.critical = true;
    DynInst n = makeMem(2, 0, false);
    q.insert(&c, true);
    q.insert(&n, false);
    EXPECT_EQ(q.criticalOccupancy(), 1u);
    q.retire(&c);
    q.retire(&n);
    EXPECT_EQ(q.occupancy(), 0u);
}

TEST(SectionQueue, RetiringANonHeadPanics)
{
    // The ROB retires through the same head check as the LSQ.
    SectionQueue rob(8);
    rob.setCriticalCap(4);
    DynInst stranger = makeInst(0);
    EXPECT_THROW(rob.retire(&stranger), PanicError) << "empty queue";
    DynInst c1 = makeInst(1, true), c2 = makeInst(3, true);
    DynInst n1 = makeInst(2), n2 = makeInst(4);
    rob.insert(&c1, true);
    rob.insert(&c2, true);
    rob.insert(&n1, false);
    rob.insert(&n2, false);
    EXPECT_THROW(rob.retire(&c2), PanicError) << "second in its section";
    EXPECT_THROW(rob.retire(&n2), PanicError) << "second in its section";
    EXPECT_THROW(rob.retire(&stranger), PanicError) << "not resident";
    EXPECT_EQ(rob.occupancy(), 4u) << "a refused retire changes nothing";
    rob.retire(&c1);
    rob.retire(&n1);
    EXPECT_EQ(rob.head(), &c2);
}

TEST(SectionQueue, SectionsAndForEachCoverBothSectionsInOrder)
{
    SectionQueue q(8);
    q.setCriticalCap(4);
    DynInst c1 = makeInst(1, true), c2 = makeInst(5, true);
    DynInst n1 = makeInst(2), n2 = makeInst(3);
    q.insert(&c1, true);
    q.insert(&n1, false);
    q.insert(&n2, false);
    q.insert(&c2, true);

    const auto [crit, nonCrit] = q.sections();
    ASSERT_EQ(crit->size(), 2u);
    ASSERT_EQ(nonCrit->size(), 2u);
    EXPECT_EQ((*crit)[0], &c1);
    EXPECT_EQ((*crit)[1], &c2);
    EXPECT_EQ((*nonCrit)[0], &n1);
    EXPECT_EQ((*nonCrit)[1], &n2);

    SeqNum tsSum = 0;
    unsigned visits = 0;
    q.forEach([&](DynInst *i) {
        tsSum += i->ts;
        ++visits;
    });
    EXPECT_EQ(visits, 4u);
    EXPECT_EQ(tsSum, 11u);
    EXPECT_NO_THROW(q.auditAgeOrder("ROB"));
}

TEST(SectionQueue, CriticalCapAboveSizePanics)
{
    SectionQueue q(4);
    EXPECT_NO_THROW(q.setCriticalCap(4));
    EXPECT_THROW(q.setCriticalCap(5), PanicError);
}

// --- Lsq ---

TEST(Lsq, ForwardsFromYoungestOlderStore)
{
    Lsq lsq(8, 8);
    lsq.sq().setCriticalCap(0);
    lsq.lq().setCriticalCap(0);
    DynInst s1 = makeMem(1, 0x100, true);
    DynInst s2 = makeMem(3, 0x100, true);
    DynInst s3 = makeMem(5, 0x200, true);
    lsq.sq().insert(&s1, false);
    lsq.sq().insert(&s2, false);
    lsq.sq().insert(&s3, false);

    DynInst ld = makeMem(7, 0x100, false);
    bool unknown = false;
    DynInst *st = lsq.forwardingStore(&ld, &unknown);
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->ts, 3u) << "must pick the youngest older store";
    EXPECT_FALSE(unknown);
}

TEST(Lsq, UnknownOlderStoreAddressReported)
{
    Lsq lsq(8, 8);
    DynInst s1 = makeMem(1, 0, true, /*addrKnown=*/false);
    lsq.sq().insert(&s1, false);
    DynInst ld = makeMem(3, 0x100, false);
    bool unknown = false;
    EXPECT_EQ(lsq.forwardingStore(&ld, &unknown), nullptr);
    EXPECT_TRUE(unknown);
}

TEST(Lsq, ViolatingLoadFoundOldestFirst)
{
    Lsq lsq(8, 8);
    DynInst ld1 = makeMem(5, 0x100, false);
    DynInst ld2 = makeMem(7, 0x100, false);
    DynInst ld3 = makeMem(9, 0x300, false);
    ld1.forwardSrcTs = 0; // read memory
    ld2.forwardSrcTs = 0;
    lsq.lq().insert(&ld1, false);
    lsq.lq().insert(&ld2, false);
    lsq.lq().insert(&ld3, false);

    DynInst st = makeMem(4, 0x100, true);
    DynInst *v = lsq.violatingLoad(&st);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->ts, 5u);
}

TEST(Lsq, LoadThatForwardedFromThisStoreIsNoViolation)
{
    Lsq lsq(8, 8);
    DynInst ld = makeMem(5, 0x100, false);
    ld.forwardSrcTs = 4; // got data from the checking store
    lsq.lq().insert(&ld, false);
    DynInst st = makeMem(4, 0x100, true);
    EXPECT_EQ(lsq.violatingLoad(&st), nullptr);
}

TEST(Lsq, OlderLoadsAreNeverViolations)
{
    Lsq lsq(8, 8);
    DynInst ld = makeMem(3, 0x100, false);
    lsq.lq().insert(&ld, false);
    DynInst st = makeMem(4, 0x100, true);
    EXPECT_EQ(lsq.violatingLoad(&st), nullptr);
}

namespace
{

/** Full-scan reference for Lsq::forwardingStore. */
DynInst *
naiveForwardingStore(const Lsq &lsq, const DynInst *load, bool *unknown)
{
    DynInst *best = nullptr;
    *unknown = false;
    lsq.sq().forEach([&](DynInst *st) {
        if (st->ts >= load->ts)
            return;
        if (!st->addrKnown) {
            *unknown = true;
            return;
        }
        if (st->memWord() != load->memWord())
            return;
        if (!best || st->ts > best->ts)
            best = st;
    });
    return best;
}

/** Full-scan reference for Lsq::violatingLoad. */
DynInst *
naiveViolatingLoad(const Lsq &lsq, const DynInst *store)
{
    DynInst *worst = nullptr;
    lsq.lq().forEach([&](DynInst *ld) {
        if (ld->ts <= store->ts || !ld->addrKnown)
            return;
        if (ld->state != InstState::Issued &&
            ld->state != InstState::Completed)
            return;
        if (ld->memWord() != store->memWord())
            return;
        if (ld->forwardSrcTs >= store->ts)
            return;
        if (!worst || ld->ts < worst->ts)
            worst = ld;
    });
    return worst;
}

} // namespace

TEST(Lsq, BoundedSearchesMatchFullScanFuzz)
{
    // Random interleavings of critical and non-critical sections,
    // stores with unresolved addresses, loads in every state, and
    // loads that forwarded from older, equal or younger stores; a
    // handful of words so matches and near-misses are both common.
    Random rng(0xF00D);
    for (int round = 0; round < 400; ++round) {
        Lsq lsq(48, 48);
        const unsigned cap = static_cast<unsigned>(rng.below(49));
        lsq.lq().setCriticalCap(cap);
        lsq.sq().setCriticalCap(cap);
        std::deque<DynInst> insts; // stable addresses
        SeqNum ts = 1 + rng.below(4);
        const unsigned n = 1 + static_cast<unsigned>(rng.below(60));
        for (unsigned i = 0; i < n; ++i, ts += 1 + rng.below(3)) {
            const bool isStore = rng.below(2) == 0;
            const Addr addr = rng.below(4) * 8 + rng.below(8);
            DynInst &d = insts.emplace_back(
                makeMem(ts, addr, isStore, rng.below(5) != 0));
            d.state = static_cast<InstState>(rng.below(4));
            if (!isStore && rng.below(3) == 0)
                d.forwardSrcTs = rng.below(ts);
            SectionQueue &q = isStore ? lsq.sq() : lsq.lq();
            const bool crit = rng.below(2) == 0;
            if (q.canInsert(crit))
                q.insert(&d, crit);
            else if (q.canInsert(!crit))
                q.insert(&d, !crit);
        }
        for (int probe = 0; probe < 24; ++probe) {
            const SeqNum at = rng.below(ts + 2);
            const Addr addr = rng.below(4) * 8 + rng.below(8);

            DynInst ld = makeMem(at, addr, false);
            bool unknown = false;
            bool naiveUnknown = false;
            DynInst *want = naiveForwardingStore(lsq, &ld, &naiveUnknown);
            EXPECT_EQ(lsq.forwardingStore(&ld, &unknown), want)
                << "round " << round << " load ts " << at;
            EXPECT_EQ(unknown, naiveUnknown)
                << "round " << round << " load ts " << at;
            EXPECT_EQ(lsq.forwardingStore(&ld, nullptr), want);

            DynInst st = makeMem(at, addr, true);
            EXPECT_EQ(lsq.violatingLoad(&st),
                      naiveViolatingLoad(lsq, &st))
                << "round " << round << " store ts " << at;
        }
    }
}

// --- ReservationStations ---

TEST(Rs, CriticalFirstThenOldest)
{
    ReservationStations rs(8);
    rs.setCriticalCap(8);
    DynInst n1 = makeInst(1), n2 = makeInst(2);
    DynInst c1 = makeInst(5, true);
    n1.state = n2.state = c1.state = InstState::Renamed;
    rs.insert(&n1);
    rs.insert(&n2);
    rs.insert(&c1);

    std::vector<SeqNum> order;
    rs.selectAndIssue(
        2, [](DynInst *) { return true; },
        [&](DynInst *i) {
            order.push_back(i->ts);
            return true;
        });
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 5u) << "critical uop must issue first";
    EXPECT_EQ(order[1], 1u) << "then oldest non-critical";
    EXPECT_EQ(rs.occupancy(), 1u);
}

TEST(Rs, RejectedInstructionStaysResident)
{
    ReservationStations rs(4);
    rs.setCriticalCap(4);
    DynInst a = makeInst(1);
    a.state = InstState::Renamed;
    rs.insert(&a);
    unsigned issued = rs.selectAndIssue(
        4, [](DynInst *) { return true; },
        [](DynInst *) { return false; });
    EXPECT_EQ(issued, 0u);
    EXPECT_EQ(rs.occupancy(), 1u);
}

TEST(Rs, CriticalCapBlocksOnlyCritical)
{
    ReservationStations rs(4);
    rs.setCriticalCap(1);
    DynInst c1 = makeInst(1, true), c2 = makeInst(2, true);
    rs.insert(&c1);
    EXPECT_FALSE(rs.canInsert(true));
    EXPECT_TRUE(rs.canInsert(false));
    (void)c2;
}

TEST(Rs, FlushYoungerMaintainsCriticalCount)
{
    ReservationStations rs(8);
    rs.setCriticalCap(8);
    DynInst c1 = makeInst(3, true), c2 = makeInst(7, true);
    rs.insert(&c1);
    rs.insert(&c2);
    EXPECT_EQ(rs.flushYounger(5), 1u);
    EXPECT_EQ(rs.criticalOccupancy(), 1u);
    EXPECT_TRUE(rs.canInsert(true));
}

TEST(Rs, FlushYoungerEdgeCases)
{
    ReservationStations rs(8);
    rs.setCriticalCap(8);
    EXPECT_EQ(rs.flushYounger(5), 0u) << "empty RS flush is a no-op";

    DynInst c1 = makeInst(3, true), n1 = makeInst(5), c2 = makeInst(9, true);
    rs.insert(&c1);
    rs.insert(&n1);
    rs.insert(&c2);
    EXPECT_EQ(rs.flushYounger(9), 0u) << "flush-none keeps all";
    EXPECT_EQ(rs.occupancy(), 3u);
    EXPECT_EQ(rs.flushYounger(0), 3u) << "flush-all drains the RS";
    EXPECT_EQ(rs.occupancy(), 0u);
    EXPECT_EQ(rs.criticalOccupancy(), 0u);
}

// --- RenameMap / PhysRegFile ---

TEST(Rename, RenameAllocatesAndTracksOldMapping)
{
    PhysRegFile prf(128);
    RenameMap rat;
    isa::Uop add{isa::Opcode::Add, 5, 1, 2, 0};
    auto r = rat.rename(add, prf);
    EXPECT_EQ(r.physSrc1, 1u) << "boot mapping is identity";
    EXPECT_EQ(r.physSrc2, 2u);
    EXPECT_EQ(r.oldPhysDst, 5u);
    EXPECT_NE(r.physDst, 5u);
    EXPECT_EQ(rat.lookup(5), r.physDst);
}

TEST(Rename, UndoRestoresPriorMapping)
{
    PhysRegFile prf(128);
    RenameMap rat;
    isa::Uop add{isa::Opcode::Add, 5, 1, 2, 0};
    auto r = rat.rename(add, prf);
    rat.undo(5, r.oldPhysDst);
    EXPECT_EQ(rat.lookup(5), 5u);
}

TEST(Rename, ReplayUpdatesWithoutAllocating)
{
    PhysRegFile prf(128);
    RenameMap rat;
    const auto freeBefore = prf.numFree();
    RegId old = rat.replay(7, 99);
    EXPECT_EQ(old, 7u);
    EXPECT_EQ(rat.lookup(7), 99u);
    EXPECT_EQ(prf.numFree(), freeBefore);
}

TEST(Rename, PoisonBitsSetCheckClearSnapshot)
{
    RenameMap rat;
    rat.setPoison(3);
    isa::Uop use{isa::Opcode::Add, 9, 3, 4, 0};
    EXPECT_TRUE(rat.readsPoisoned(use));
    const std::uint64_t snap = rat.poisonBits();
    rat.clearPoison(3);
    EXPECT_FALSE(rat.readsPoisoned(use));
    rat.setPoisonBits(snap);
    EXPECT_TRUE(rat.readsPoisoned(use));
    rat.clearAllPoison();
    EXPECT_EQ(rat.poisonBits(), 0u);
}

TEST(PhysRegFile, AllocateReleaseRoundTrip)
{
    PhysRegFile prf(80);
    EXPECT_EQ(prf.numFree(), 80u - kNumArchRegs);
    RegId p = prf.allocate();
    EXPECT_EQ(prf.readyAt(p), kNeverCycle);
    prf.setReadyAt(p, 42);
    EXPECT_TRUE(prf.isReady(p, 42));
    EXPECT_FALSE(prf.isReady(p, 41));
    prf.release(p);
    EXPECT_EQ(prf.numFree(), 80u - kNumArchRegs);
}

TEST(PhysRegFile, InvalidRegAlwaysReady)
{
    PhysRegFile prf(80);
    EXPECT_TRUE(prf.isReady(kInvalidReg, 0));
}

TEST(PhysRegFile, ExhaustionPanics)
{
    PhysRegFile prf(kNumArchRegs + 9);
    for (int i = 0; i < 9; ++i)
        prf.allocate();
    EXPECT_FALSE(prf.hasFree());
    EXPECT_THROW(prf.allocate(), PanicError);
}

namespace
{

template <typename T>
std::vector<std::uint8_t>
serialized(T &x)
{
    SnapWriter w;
    x.fields(w);
    return w.take();
}

/** Free a garbage-filled SlabPool<T> slot and reallocate it: the new
 *  object must serialize exactly like a fresh T{}. */
template <typename T>
void
expectRecycledSlotIsDefault(const char *what)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "the slot is dirtied with memset");
    SlabPool<T> pool(4);
    const std::uint32_t h = pool.allocate();
    unsigned char *raw = reinterpret_cast<unsigned char *>(&pool.at(h));
    std::memset(raw, 0xA5, sizeof(T));
    // Read the garbage back so the stores are really made before the
    // slot is recycled.
    const std::vector<unsigned char> dirty(raw, raw + sizeof(T));
    ASSERT_EQ(std::count(dirty.begin(), dirty.end(), 0xA5),
              static_cast<std::ptrdiff_t>(sizeof(T)));
    pool.free(h);

    ASSERT_EQ(pool.allocate(), h) << what << ": LIFO reuse expected";
    T fresh{};
    EXPECT_EQ(serialized(pool.at(h)), serialized(fresh))
        << what << ": a recycled slot kept stale bytes in a field; "
                   "every field needs a default member initializer";
}

} // namespace

TEST(Pool, RecycledDynInstIsDefault)
{
    // SlabPool default-initializes non-trivial types (no zero fill),
    // so a field without an initializer would inherit whatever the
    // slot's previous occupant left there.
    expectRecycledSlotIsDefault<DynInst>("DynInst");
    expectRecycledSlotIsDefault<bp::BpCheckpoint>("BpCheckpoint");
}
