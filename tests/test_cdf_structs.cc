/**
 * @file
 * Unit tests for the CDF hardware structures: Critical Count
 * Tables, Fill Buffer backwards dataflow walk (including the
 * paper's Fig. 5 example), Mask Cache accumulation/reset, Critical
 * Uop Cache trace management, the partition controller, and the
 * DBQ/CMQ flush helper.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cdf/critical_table.hh"
#include "cdf/fifos.hh"
#include "cdf/fill_buffer.hh"
#include "cdf/mask_cache.hh"
#include "cdf/partition.hh"
#include "cdf/uop_cache.hh"
#include "common/stats.hh"

using namespace cdfsim;
using namespace cdfsim::cdf;
using cdfsim::isa::Opcode;
using cdfsim::isa::Uop;

namespace
{

Uop
aluUop(RegId d, RegId s1, RegId s2)
{
    return {Opcode::Add, d, s1, s2, 0};
}

Uop
loadUop(RegId d, RegId base)
{
    return {Opcode::Load, d, base, kInvalidReg, 0};
}

Uop
storeUop(RegId base, RegId val)
{
    return {Opcode::Store, kInvalidReg, base, val, 0};
}

Uop
branchUop(RegId s)
{
    return {Opcode::Bnez, kInvalidReg, s, kInvalidReg, 0};
}

} // namespace

// --- CriticalCountTable ---

TEST(CriticalCountTable, MarksAfterRepeatedMisses)
{
    StatRegistry s;
    CriticalTableConfig cfg;
    CriticalCountTable t(cfg, s, "cct");
    EXPECT_FALSE(t.isCritical(0x10));
    for (int i = 0; i < 10; ++i)
        t.update(0x10, true);
    EXPECT_TRUE(t.isCritical(0x10));
}

TEST(CriticalCountTable, HitsDecayCriticality)
{
    StatRegistry s;
    CriticalTableConfig cfg;
    CriticalCountTable t(cfg, s, "cct");
    for (int i = 0; i < 10; ++i)
        t.update(0x10, true);
    for (int i = 0; i < 16; ++i)
        t.update(0x10, false);
    EXPECT_FALSE(t.isCritical(0x10));
}

TEST(CriticalCountTable, PermissiveModeMarksEarlier)
{
    StatRegistry s;
    CriticalTableConfig cfg; // strict threshold 12, permissive 2
    CriticalCountTable t(cfg, s, "cct");
    t.update(0x20, true); // counter = 2 (missInc)
    EXPECT_FALSE(t.isCriticalUnder(0x20, ThresholdMode::Strict));
    EXPECT_TRUE(t.isCriticalUnder(0x20, ThresholdMode::Permissive));

    t.setMode(ThresholdMode::Permissive);
    EXPECT_TRUE(t.isCritical(0x20));
}

TEST(CriticalCountTable, EvictsLruWithinSet)
{
    StatRegistry s;
    CriticalTableConfig cfg;
    cfg.entries = 4;
    cfg.ways = 2; // 2 sets
    CriticalCountTable t(cfg, s, "cct");
    // Three PCs in set 0 (pc % 2 == 0): the first gets evicted.
    for (int i = 0; i < 10; ++i)
        t.update(0x10, true);
    EXPECT_TRUE(t.isCritical(0x10));
    for (int i = 0; i < 10; ++i) {
        t.update(0x20, true);
        t.update(0x30, true);
    }
    EXPECT_FALSE(t.isCritical(0x10)) << "LRU entry not evicted";
}

TEST(CriticalCountTable, ZeroWaysIsAConfigError)
{
    // A spec can set any geometry; zero ways must fail the cell, not
    // divide by zero.
    StatRegistry s;
    CriticalTableConfig table;
    table.ways = 0;
    EXPECT_THROW(CriticalCountTable(table, s, "cct"), FatalError);
    MaskCacheConfig mask;
    mask.ways = 0;
    EXPECT_THROW(MaskCache(mask, s), FatalError);
}

// --- MaskCache ---

TEST(MaskCache, MergeAccumulatesAcrossPaths)
{
    StatRegistry s;
    MaskCache mc(MaskCacheConfig{}, s);
    mc.merge(0x100, 0b0101);
    mc.merge(0x100, 0b1000);
    EXPECT_EQ(mc.lookup(0x100).value(), 0b1101u);
}

TEST(MaskCache, RemoveAndMiss)
{
    StatRegistry s;
    MaskCache mc(MaskCacheConfig{}, s);
    mc.merge(0x100, 1);
    mc.remove(0x100);
    EXPECT_FALSE(mc.lookup(0x100).has_value());
}

TEST(MaskCache, PeriodicReset)
{
    StatRegistry s;
    MaskCacheConfig cfg;
    cfg.resetIntervalInstrs = 1000;
    MaskCache mc(cfg, s);
    mc.merge(0x100, 1);
    mc.maybeReset(500);
    EXPECT_TRUE(mc.lookup(0x100).has_value());
    mc.maybeReset(1200);
    EXPECT_FALSE(mc.lookup(0x100).has_value());
    EXPECT_EQ(s.get("mask_cache.resets"), 1u);
}

// --- CriticalUopCache ---

namespace
{

BbTrace
makeTrace(Addr startPc, unsigned len, std::vector<unsigned> critOffs,
          bool endsInBranch = true)
{
    BbTrace t;
    t.startPc = startPc;
    t.blockLength = len;
    t.endsInBranch = endsInBranch;
    t.branchPc = startPc + len - 1;
    for (unsigned off : critOffs)
        t.uops.push_back({aluUop(1, 2, 3), off});
    return t;
}

} // namespace

TEST(CriticalUopCache, FillLatencyGatesLookups)
{
    StatRegistry s;
    UopCacheConfig cfg;
    cfg.fillLatency = 100;
    CriticalUopCache uc(cfg, s);
    uc.insert(makeTrace(0x10, 4, {0, 2}), 50);
    EXPECT_EQ(uc.lookup(0x10, 100), nullptr); // not ready yet
    EXPECT_NE(uc.lookup(0x10, 200), nullptr);
    EXPECT_GT(s.get("uop_cache.misses_not_ready"), 0u);
}

TEST(CriticalUopCache, IdenticalRefillKeepsReadiness)
{
    StatRegistry s;
    UopCacheConfig cfg;
    cfg.fillLatency = 100;
    CriticalUopCache uc(cfg, s);
    uc.insert(makeTrace(0x10, 4, {0, 2}), 0);
    ASSERT_NE(uc.lookup(0x10, 150), nullptr);
    // Re-inserting the same trace must not re-impose the latency.
    uc.insert(makeTrace(0x10, 4, {0, 2}), 160);
    EXPECT_NE(uc.lookup(0x10, 161), nullptr);
    // A changed trace does pay the latency again.
    uc.insert(makeTrace(0x10, 4, {0, 1, 2}), 200);
    EXPECT_EQ(uc.lookup(0x10, 250), nullptr);
    EXPECT_NE(uc.lookup(0x10, 301), nullptr);
}

TEST(CriticalUopCache, CapacityEvictsLru)
{
    StatRegistry s;
    UopCacheConfig cfg;
    cfg.capacityLines = 2;
    cfg.fillLatency = 0;
    CriticalUopCache uc(cfg, s);
    uc.insert(makeTrace(0x10, 4, {0}), 0);
    uc.insert(makeTrace(0x20, 4, {0}), 0);
    EXPECT_NE(uc.lookup(0x10, 10), nullptr); // 0x10 now MRU
    uc.insert(makeTrace(0x30, 4, {0}), 20);  // evicts 0x20
    EXPECT_TRUE(uc.contains(0x10));
    EXPECT_FALSE(uc.contains(0x20));
    EXPECT_TRUE(uc.contains(0x30));
}

TEST(CriticalUopCache, MultiLineTraceChargesCapacity)
{
    StatRegistry s;
    UopCacheConfig cfg;
    cfg.capacityLines = 3;
    cfg.fillLatency = 0;
    CriticalUopCache uc(cfg, s);
    std::vector<unsigned> offs;
    for (unsigned i = 0; i < 12; ++i)
        offs.push_back(i);
    uc.insert(makeTrace(0x10, 16, offs), 0); // 12 uops -> 2 lines
    EXPECT_EQ(uc.usedLines(), 2u);
    uc.insert(makeTrace(0x20, 4, {0}), 0);
    uc.insert(makeTrace(0x30, 4, {0}), 0); // must evict something
    EXPECT_LE(uc.usedLines(), 3u);
}

TEST(CriticalUopCache, EmptyTraceOccupiesOneLine)
{
    StatRegistry s;
    UopCacheConfig cfg;
    cfg.fillLatency = 0;
    CriticalUopCache uc(cfg, s);
    uc.insert(makeTrace(0x40, 6, {}), 0);
    EXPECT_EQ(uc.usedLines(), 1u);
    const BbTrace *t = uc.lookup(0x40, 1);
    ASSERT_NE(t, nullptr);
    EXPECT_TRUE(t->uops.empty());
    EXPECT_EQ(t->blockLength, 6u);
}

TEST(TraceCursor, LoadCopiesMoveToInvalidates)
{
    StatRegistry s;
    UopCacheConfig cfg;
    cfg.fillLatency = 0;
    CriticalUopCache uc(cfg, s);
    uc.insert(makeTrace(0x10, 4, {0, 2}), 0);

    TraceCursor c;
    c.moveTo(0x20);
    EXPECT_FALSE(c.load(uc, 1)); // miss: nothing loaded
    EXPECT_FALSE(c.valid);
    EXPECT_EQ(s.get("uop_cache.misses"), 1u);

    c.moveTo(0x10);
    ASSERT_TRUE(c.load(uc, 1));
    EXPECT_TRUE(c.valid);
    EXPECT_EQ(c.idx, 0u);
    EXPECT_EQ(c.trace.uops.size(), 2u);
    c.idx = 1; // one uop emitted

    // A fill replacing the cached trace mid-emission leaves the
    // cursor's copy alone.
    uc.insert(makeTrace(0x10, 4, {0, 1, 2, 3}), 2);
    EXPECT_EQ(c.trace.uops.size(), 2u);
    EXPECT_EQ(c.idx, 1u);

    // The copy survives a snapshot round trip.
    SnapWriter w;
    w(c);
    TraceCursor restored;
    SnapReader r(w.bytes());
    r(restored);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(restored.pc, 0x10u);
    EXPECT_TRUE(restored.valid);
    EXPECT_EQ(restored.idx, 1u);
    EXPECT_EQ(restored.trace.uops.size(), 2u);
    EXPECT_EQ(restored.trace.uops[1].offsetInBlock, 2u);

    c.moveTo(0x30);
    EXPECT_EQ(c.pc, 0x30u);
    EXPECT_FALSE(c.valid);
    EXPECT_EQ(c.idx, 0u);
}

// --- FillBuffer: backwards dataflow walk ---

namespace
{

struct FillHarness
{
    StatRegistry stats;
    MaskCache maskCache;
    CriticalUopCache uopCache;
    FillBuffer fill;

    explicit FillHarness(FillBufferConfig cfg = smallConfig())
        : maskCache(MaskCacheConfig{}, stats),
          uopCache(readyUopCache(), stats),
          fill(cfg, maskCache, uopCache, stats)
    {
    }

    static FillBufferConfig
    smallConfig()
    {
        FillBufferConfig cfg;
        cfg.capacity = 16;
        cfg.refillIntervalInstrs = 0;
        cfg.minDensity = 0.0;
        cfg.maxDensity = 1.0;
        return cfg;
    }

    static UopCacheConfig
    readyUopCache()
    {
        UopCacheConfig cfg;
        cfg.fillLatency = 0;
        return cfg;
    }

    WalkResult
    feed(const std::vector<RetiredUopInfo> &uops)
    {
        WalkResult last{};
        std::uint64_t n = 0;
        for (const auto &u : uops) {
            auto r = fill.onRetire(u, ++n, 100);
            if (r.performed)
                last = r;
        }
        return last;
    }
};

RetiredUopInfo
retired(Addr pc, Uop uop, bool seed = false, bool startsBb = false,
        Addr memWord = 0)
{
    RetiredUopInfo i;
    i.pc = pc;
    i.uop = uop;
    i.memWordAddr = memWord;
    i.seedCritical = seed;
    i.startsBasicBlock = startsBb;
    return i;
}

} // namespace

TEST(FillBuffer, PaperFig5BackwardsWalk)
{
    // The Fig. 5 example: I6 (load r2 <- [r1]) is the critical seed;
    // the walk must mark I3 (produces r1) and then I0-like producers
    // through registers.
    //
    //   I0: r0 <- r0 - 1
    //   I1: brz (skips I2; taken path recorded)
    //   I3: r1 <- [r3 + r0]    <- in chain (produces r1)
    //   I4: r4 <- [0x200 + r0]
    //   I5: r5 <- r4 >> 2
    //   I6: r2 <- [r1]         <- SEED
    //   I7: [0x300 + r5] <- r2
    //   I8: brnz
    FillHarness h;
    std::vector<RetiredUopInfo> uops;
    uops.push_back(retired(0, {Opcode::AddImm, 0, 0, kInvalidReg, -1},
                           false, true));
    uops.push_back(retired(1, branchUop(9)));
    uops.push_back(
        retired(3, {Opcode::Load, 1, 3, kInvalidReg, 0}, false, true,
                0x40));
    uops.push_back(retired(4, {Opcode::Load, 4, 0, kInvalidReg, 0x200},
                           false, false, 0x41));
    uops.push_back(retired(5, {Opcode::Shr, 5, 4, 10, 0}));
    uops.push_back(retired(6, {Opcode::Load, 2, 1, kInvalidReg, 0},
                           true, false, 0x42)); // the seed
    uops.push_back(retired(7, storeUop(5, 2), false, false, 0x43));
    uops.push_back(retired(8, branchUop(0)));

    // Pad to capacity with unrelated, chain-free uops ending in a
    // branch so the final block is complete.
    while (uops.size() < 15)
        uops.push_back(retired(20 + uops.size(),
                               aluUop(20, 21, 22), false,
                               uops.size() == 8));
    uops.push_back(retired(40, branchUop(20)));

    auto r = h.feed(uops);
    ASSERT_TRUE(r.performed);
    ASSERT_TRUE(r.accepted);

    // Trace for the BB starting at I3 must contain the seed I6, its
    // register producer I3, and the address chain of I3 (r0 from
    // I0 is in the previous BB; I3's block trace holds I3 and I6).
    const BbTrace *t = h.uopCache.lookup(3, 1000);
    ASSERT_NE(t, nullptr);
    std::vector<unsigned> offs;
    for (const auto &tu : t->uops)
        offs.push_back(tu.offsetInBlock);
    EXPECT_NE(std::find(offs.begin(), offs.end(), 0u), offs.end())
        << "I3 (producer of the seed's address) not marked";
    EXPECT_NE(std::find(offs.begin(), offs.end(), 3u), offs.end())
        << "I6 (the seed) not marked";
    // I4/I5 (offsets 1 and 2) feed only the store; the store itself
    // joins the chain through memory only when a critical load reads
    // that address, which none does here.
    EXPECT_EQ(std::find(offs.begin(), offs.end(), 1u), offs.end())
        << "I4 wrongly marked";
}

TEST(FillBuffer, ChainsThroughMemory)
{
    // A store writes word W; a later critical load reads W. The
    // walk must pull the store and the store's data producer into
    // the chain.
    FillHarness h;
    std::vector<RetiredUopInfo> uops;
    uops.push_back(retired(0, aluUop(5, 6, 7), false, true)); // data
    uops.push_back(retired(1, storeUop(8, 5), false, false, 0x99));
    uops.push_back(retired(2, aluUop(20, 21, 22)));
    uops.push_back(
        retired(3, loadUop(2, 9), true, false, 0x99)); // seed, reads W
    uops.push_back(retired(4, branchUop(2)));
    while (uops.size() < 15)
        uops.push_back(retired(20 + uops.size(), aluUop(20, 21, 22),
                               false, uops.size() == 5));
    uops.push_back(retired(40, branchUop(20)));

    auto r = h.feed(uops);
    ASSERT_TRUE(r.accepted);
    const BbTrace *t = h.uopCache.lookup(0, 1000);
    ASSERT_NE(t, nullptr);
    std::vector<unsigned> offs;
    for (const auto &tu : t->uops)
        offs.push_back(tu.offsetInBlock);
    EXPECT_NE(std::find(offs.begin(), offs.end(), 1u), offs.end())
        << "store to the critical word not marked";
    EXPECT_NE(std::find(offs.begin(), offs.end(), 0u), offs.end())
        << "store data producer not marked";
    EXPECT_EQ(std::find(offs.begin(), offs.end(), 2u), offs.end())
        << "unrelated ALU uop wrongly marked";
}

TEST(FillBuffer, DensityGuardRejectsAndScrubs)
{
    FillBufferConfig cfg = FillHarness::smallConfig();
    cfg.minDensity = 0.02;
    cfg.maxDensity = 0.50;
    FillHarness h(cfg);

    // Everything seeds: density 100% -> rejected high, blocks
    // scrubbed from both caches.
    h.maskCache.merge(0, 0xF);
    std::vector<RetiredUopInfo> uops;
    for (unsigned i = 0; i < 15; ++i)
        uops.push_back(retired(i, loadUop(1, 2), true, i == 0,
                               0x100 + i));
    uops.push_back(retired(15, branchUop(1), true));
    auto r = h.feed(uops);
    ASSERT_TRUE(r.performed);
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(h.stats.get("fill_buffer.walks_rejected_high"), 1u);
    EXPECT_FALSE(h.maskCache.lookup(0).has_value()) << "not scrubbed";
    EXPECT_FALSE(h.uopCache.contains(0));
}

TEST(FillBuffer, MaskCachePreMarksNextWindow)
{
    // First window marks offset 2 of BB@0 critical; in the second
    // window the same BB is pre-marked from the Mask Cache even
    // though the CCT seeds nothing.
    FillHarness h;
    auto window = [&](bool seed) {
        std::vector<RetiredUopInfo> uops;
        uops.push_back(retired(0, aluUop(9, 9, 9), false, true));
        uops.push_back(retired(1, aluUop(8, 8, 8)));
        uops.push_back(retired(2, loadUop(1, 2), seed, false, 0x50));
        uops.push_back(retired(3, branchUop(1)));
        while (uops.size() < 15)
            uops.push_back(retired(20 + uops.size(),
                                   aluUop(20, 21, 22), false,
                                   uops.size() == 4));
        uops.push_back(retired(40, branchUop(20)));
        return uops;
    };

    auto r1 = h.feed(window(true));
    ASSERT_TRUE(r1.accepted);
    auto mask = h.maskCache.lookup(0);
    ASSERT_TRUE(mask.has_value());
    EXPECT_TRUE((*mask >> 2) & 1);

    auto r2 = h.feed(window(false));
    ASSERT_TRUE(r2.accepted);
    const BbTrace *t = h.uopCache.lookup(0, 1000);
    ASSERT_NE(t, nullptr);
    bool found = false;
    for (const auto &tu : t->uops)
        found = found || tu.offsetInBlock == 2;
    EXPECT_TRUE(found) << "mask pre-marking lost across windows";
}

TEST(FillBuffer, CollectionWindowsRespectRefillInterval)
{
    FillBufferConfig cfg = FillHarness::smallConfig();
    cfg.refillIntervalInstrs = 100;
    StatRegistry stats;
    MaskCache mc(MaskCacheConfig{}, stats);
    CriticalUopCache uc(FillHarness::readyUopCache(), stats);
    FillBuffer fill(cfg, mc, uc, stats);

    RetiredUopInfo u = retired(0, aluUop(1, 2, 3), false, true);
    std::uint64_t n = 0;
    // Fill to capacity -> one walk.
    for (int i = 0; i < 16; ++i)
        fill.onRetire(u, ++n, 0);
    EXPECT_EQ(stats.get("fill_buffer.walks"), 1u);
    // Immediately feeding more must NOT start a new collection.
    for (int i = 0; i < 16; ++i)
        fill.onRetire(u, ++n, 0);
    EXPECT_EQ(stats.get("fill_buffer.walks"), 1u);
    // After the interval elapses, collection resumes.
    n = 200;
    for (int i = 0; i < 17; ++i)
        fill.onRetire(u, ++n, 0);
    EXPECT_EQ(stats.get("fill_buffer.walks"), 2u);
}

// --- SectionPartition ---

TEST(Partition, GrowsCriticalOnStallLead)
{
    StatRegistry s;
    SectionPartition p("rob", 352, 8, 8, 4, true, 0.5, s);
    const unsigned before = p.criticalCap();
    for (int i = 0; i < 4; ++i)
        p.noteStall(true);
    p.evaluate(0, 0);
    EXPECT_EQ(p.criticalCap(), before + 8);
    EXPECT_EQ(s.get("rob.partition_grows"), 1u);
}

TEST(Partition, ShrinkClampsToOccupancy)
{
    StatRegistry s;
    SectionPartition p("rob", 352, 8, 8, 4, true, 0.5, s);
    const unsigned before = p.criticalCap(); // 176
    for (int i = 0; i < 4; ++i)
        p.noteStall(false);
    p.evaluate(before - 3, 0); // critical occupancy near cap
    EXPECT_EQ(p.criticalCap(), before - 3);
}

TEST(Partition, StaticModeNeverMoves)
{
    StatRegistry s;
    SectionPartition p("rob", 352, 8, 8, 4, false, 0.75, s);
    const unsigned before = p.criticalCap();
    for (int i = 0; i < 100; ++i)
        p.noteStall(true);
    p.evaluate(0, 0);
    EXPECT_EQ(p.criticalCap(), before);
}

TEST(Partition, RespectsMinimumSections)
{
    StatRegistry s;
    SectionPartition p("rob", 64, 8, 8, 1, true, 0.5, s);
    for (int i = 0; i < 100; ++i) {
        p.noteStall(true);
        p.evaluate(0, 0);
    }
    EXPECT_LE(p.criticalCap(), 64u - 8u);
    for (int i = 0; i < 100; ++i) {
        p.noteStall(false);
        p.evaluate(0, 0);
    }
    EXPECT_GE(p.criticalCap(), 8u);
}

// --- DBQ/CMQ flush helper ---

TEST(CdfFifos, FlushYoungerTruncatesByTimestamp)
{
    DelayedBranchQueue dbq(8);
    dbq.push({10, true, 1});
    dbq.push({20, false, 2});
    dbq.push({30, true, 3});
    flushYounger(dbq, 20);
    EXPECT_EQ(dbq.size(), 2u);
    EXPECT_EQ(dbq.back().ts, 20u);
    flushYounger(dbq, 5);
    EXPECT_TRUE(dbq.empty());
}

TEST(CdfFifos, FlushYoungerEdgeCases)
{
    DelayedBranchQueue dbq(8);
    flushYounger(dbq, 10); // empty queue: no-op, no crash
    EXPECT_TRUE(dbq.empty());

    dbq.push({10, true, 1});
    dbq.push({20, false, 2});
    flushYounger(dbq, 20); // flush-none: ts == flushTs survives
    EXPECT_EQ(dbq.size(), 2u);
    flushYounger(dbq, kInvalidSeq);
    EXPECT_EQ(dbq.size(), 2u);

    flushYounger(dbq, 0); // flush-all
    EXPECT_TRUE(dbq.empty());
    flushYounger(dbq, 0); // idempotent on the emptied queue
    EXPECT_TRUE(dbq.empty());
}

TEST(CdfFifos, FlushYoungerHandsOverDroppedEntriesYoungestFirst)
{
    DelayedBranchQueue dbq(8);
    for (SeqNum ts : {10u, 20u, 30u, 40u})
        dbq.push({ts, true, ts, false, static_cast<std::uint32_t>(ts)});
    std::vector<std::uint32_t> dropped;
    flushYounger(dbq, 20, [&](const DbqEntry &e) {
        dropped.push_back(e.ckpt);
    });
    EXPECT_EQ(dropped, (std::vector<std::uint32_t>{40, 30}));
    EXPECT_EQ(dbq.size(), 2u);
}
