/**
 * @file
 * Unit tests for the memory substrate: set-associative cache with
 * LRU/write-back/MSHRs, the DDR4 DRAM model, the stream prefetcher
 * with feedback throttling, and the full hierarchy.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/stats.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/hierarchy.hh"
#include "mem/prefetcher.hh"

using namespace cdfsim;
using namespace cdfsim::mem;

namespace
{

CacheConfig
smallCache()
{
    return {"c", 1024, 2, 2, 4}; // 8 sets x 2 ways x 64B
}

/** Fixed-latency "downstream" for cache tests. */
constexpr auto kMiss100 = [](Cycle start) { return start + 100; };

} // namespace

// --- Cache ---

TEST(Cache, MissThenHit)
{
    StatRegistry s;
    Cache c(smallCache(), s);
    auto m = c.access(0x1000, false, 10, kMiss100);
    EXPECT_FALSE(m.hit);
    EXPECT_EQ(m.ready, 112u); // start = now + latency

    auto h = c.access(0x1000, false, 200, kMiss100);
    EXPECT_TRUE(h.hit);
    EXPECT_EQ(h.ready, 202u);
    EXPECT_EQ(s.get("c.hits"), 1u);
    EXPECT_EQ(s.get("c.misses"), 1u);
}

TEST(Cache, ZeroWaysIsAConfigError)
{
    // A spec can set any geometry; zero ways must fail the cell, not
    // divide by zero.
    StatRegistry s;
    CacheConfig cfg = smallCache();
    cfg.ways = 0;
    EXPECT_THROW(Cache(cfg, s), FatalError);
}

TEST(Cache, HitUnderFillReturnsFillTime)
{
    StatRegistry s;
    Cache c(smallCache(), s);
    c.access(0x1000, false, 10, kMiss100); // fills at 112
    auto h = c.access(0x1000, false, 20, kMiss100);
    EXPECT_TRUE(h.hit);
    EXPECT_TRUE(h.hitUnderFill);
    EXPECT_EQ(h.ready, 112u);
}

TEST(Cache, LruEviction)
{
    StatRegistry s;
    Cache c(smallCache(), s); // 8 sets, 2 ways
    // Three lines mapping to the same set (stride = sets * 64).
    const Addr a = 0x0, b = 8 * 64, d = 16 * 64;
    c.access(a, false, 0, kMiss100);
    c.access(b, false, 200, kMiss100);
    c.access(a, false, 400, kMiss100); // touch a: b becomes LRU
    c.access(d, false, 600, kMiss100); // evicts b
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    StatRegistry s;
    Cache c(smallCache(), s);
    const Addr a = 0x0, b = 8 * 64, d = 16 * 64;
    c.access(a, true, 0, kMiss100); // dirty
    c.access(b, false, 200, kMiss100);
    auto out = c.access(d, false, 400, kMiss100); // evicts dirty a
    EXPECT_TRUE(out.evictedDirty);
    EXPECT_EQ(out.evictedAddr, lineAlign(a));
    EXPECT_EQ(s.get("c.writebacks"), 1u);
}

TEST(Cache, MshrBackpressureDelaysRequests)
{
    StatRegistry s;
    CacheConfig cfg = smallCache();
    cfg.mshrs = 2;
    Cache c(cfg, s);
    // Three concurrent misses to distinct sets at the same cycle;
    // the third must wait for an MSHR.
    c.access(0 * 64, false, 0, kMiss100);
    c.access(1 * 64, false, 0, kMiss100);
    auto third = c.access(2 * 64, false, 0, kMiss100);
    EXPECT_GT(third.ready, 102u + 100u - 1);
    EXPECT_EQ(s.get("c.mshr_stalls"), 1u);
}

TEST(Cache, MshrFreesAtFillBoundary)
{
    StatRegistry s;
    CacheConfig cfg = smallCache();
    cfg.mshrs = 1;
    Cache c(cfg, s);
    auto first = c.access(0 * 64, false, 0, kMiss100); // fills at 102
    // Arriving exactly at the fill cycle: the MSHR is free again
    // (prune is <= now), so no stall.
    c.access(1 * 64, false, first.ready, kMiss100);
    EXPECT_EQ(s.get("c.mshr_stalls"), 0u);
    // Arriving while the fill is still in flight: stalled until the
    // outstanding miss completes, then serviced from there.
    Cache c2(cfg, s);
    auto f2 = c2.access(0 * 64, false, 0, kMiss100);
    auto stalled = c2.access(1 * 64, false, 50, kMiss100);
    EXPECT_EQ(s.get("c.mshr_stalls"), 1u);
    EXPECT_EQ(stalled.ready, f2.ready + 100);
}

TEST(Cache, MshrBackpressureChainsAcrossManyMisses)
{
    // Single-MSHR file with each request arriving while the previous
    // fill is still in flight: every miss stalls on the one
    // outstanding completion, so ready times chain exactly one
    // miss-latency apart.
    StatRegistry s;
    CacheConfig cfg = smallCache();
    cfg.mshrs = 1;
    Cache c(cfg, s);
    Cycle prevReady = c.access(0, false, 0, kMiss100).ready;
    for (int i = 1; i < 10; ++i) {
        auto m =
            c.access(Addr(i) * 64, false, prevReady - 92, kMiss100);
        EXPECT_FALSE(m.hit);
        EXPECT_EQ(m.ready, prevReady + 100);
        prevReady = m.ready;
    }
    EXPECT_EQ(s.get("c.mshr_stalls"), 9u);
}

TEST(Cache, MshrOccupancyMayExceedCapInABurst)
{
    // Sixteen same-cycle misses against a 2-entry MSHR file: nothing
    // has completed, so every stalled request queues behind the same
    // earliest fill. Occupancy transiently exceeds the cap: the
    // MSHR list grows rather than inventing extra delay.
    StatRegistry s;
    CacheConfig cfg = smallCache();
    cfg.mshrs = 2;
    Cache c(cfg, s);
    auto first = c.access(0, false, 0, kMiss100);
    c.access(64, false, 0, kMiss100);
    for (int i = 2; i < 16; ++i) {
        auto m = c.access(Addr(i) * 64, false, 0, kMiss100);
        EXPECT_EQ(m.ready, first.ready + 100);
    }
    EXPECT_EQ(s.get("c.mshr_stalls"), 14u);
}

TEST(Cache, PrefetchUsefulnessTracking)
{
    StatRegistry s;
    Cache c(smallCache(), s);
    c.access(0x1000, false, 0, kMiss100, /*isPrefetch=*/true);
    EXPECT_EQ(s.get("c.pref_fills"), 1u);
    c.access(0x1000, false, 300, kMiss100); // demand hit on prefetch
    EXPECT_EQ(s.get("c.pref_useful"), 1u);
}

TEST(Cache, InvalidateAndMarkDirty)
{
    StatRegistry s;
    Cache c(smallCache(), s);
    c.access(0x1000, false, 0, kMiss100);
    c.markDirty(0x1000);
    c.invalidate(0x1000);
    EXPECT_FALSE(c.probe(0x1000));
}

TEST(Cache, BadGeometryIsFatal)
{
    StatRegistry s;
    CacheConfig cfg{"bad", 1000, 3, 1, 4}; // non-pow2 sets
    EXPECT_THROW(Cache(cfg, s), FatalError);
}

// --- DRAM ---

TEST(Dram, RowHitFasterThanConflict)
{
    StatRegistry s;
    DramConfig cfg;
    DramModel dram(cfg, s);

    auto first = dram.access(0x100000, false, 0);
    EXPECT_FALSE(first.rowHit);

    // Same row, later: row hit. Lines in one row of one bank are
    // separated by channels * banks lines under the interleaving.
    const Addr sameRowStride =
        64ull * cfg.channels * cfg.bankGroups * cfg.banksPerGroup;
    auto hit = dram.access(0x100000 + sameRowStride, false,
                           first.ready + 10);
    EXPECT_TRUE(hit.rowHit);

    const Cycle hitLat = hit.ready - (first.ready + 10);

    // Different row, same bank: conflict (needs precharge).
    const Addr farSameBank =
        0x100000 + Addr{cfg.rowBytes} * cfg.channels *
                       cfg.bankGroups * cfg.banksPerGroup;
    auto conf = dram.access(farSameBank, false, hit.ready + 10);
    const Cycle confLat = conf.ready - (hit.ready + 10);
    EXPECT_TRUE(conf.rowConflict);
    EXPECT_GT(confLat, hitLat);
}

TEST(Dram, BankParallelismOverlaps)
{
    StatRegistry s;
    DramConfig cfg;
    DramModel dram(cfg, s);
    // Two accesses to different banks issued together overlap in the
    // arrays; serialization is only the shared data bus burst.
    auto a = dram.access(0 * 64, false, 0);
    auto b = dram.access(2 * 64, false, 0); // other bank, same channel
    EXPECT_LT(b.ready, a.ready + cfg.tRcd); // far less than serial
}

TEST(Dram, CountsTraffic)
{
    StatRegistry s;
    DramModel dram(DramConfig{}, s);
    dram.access(0, false, 0);
    dram.access(64, true, 0);
    EXPECT_EQ(s.get("dram.reads"), 1u);
    EXPECT_EQ(s.get("dram.writes"), 1u);
    EXPECT_EQ(dram.totalBytes(), 128u);
}

TEST(Dram, SameBankSerializes)
{
    StatRegistry s;
    DramConfig cfg;
    cfg.channels = 1;
    cfg.bankGroups = 1;
    cfg.banksPerGroup = 1;
    DramModel dram(cfg, s);
    auto a = dram.access(0, false, 0);
    auto b = dram.access(Addr{cfg.rowBytes} * 2, false, 0); // conflict
    EXPECT_GE(b.ready, a.ready + cfg.tRp);
}

// --- StreamPrefetcher ---

TEST(Prefetcher, ConfirmsStreamAfterTwoMisses)
{
    StatRegistry s;
    StreamPrefetcher pf(PrefetcherConfig{}, s);
    auto b0 = pf.observe(0 * 64, true);
    EXPECT_EQ(b0.count, 0u); // allocation only
    auto b1 = pf.observe(1 * 64, true);
    EXPECT_GT(b1.count, 0u); // confirmed ascending
    EXPECT_EQ(b1.lines[0], 2u * 64);
}

TEST(Prefetcher, DescendingStream)
{
    StatRegistry s;
    StreamPrefetcher pf(PrefetcherConfig{}, s);
    pf.observe(100 * 64, true);
    auto b = pf.observe(99 * 64, true);
    ASSERT_GT(b.count, 0u);
    EXPECT_EQ(b.lines[0], 98u * 64);
}

TEST(Prefetcher, ThrottleDownOnLowAccuracy)
{
    StatRegistry s;
    PrefetcherConfig cfg;
    cfg.evalIntervalFills = 10;
    StreamPrefetcher pf(cfg, s);
    unsigned before = pf.degree();
    pf.feedback(0, 20); // 0% accuracy
    EXPECT_LT(pf.degree(), before);
    EXPECT_EQ(s.get("prefetcher.throttle_downs"), 1u);
}

TEST(Prefetcher, ThrottleUpOnHighAccuracy)
{
    StatRegistry s;
    PrefetcherConfig cfg;
    cfg.evalIntervalFills = 10;
    StreamPrefetcher pf(cfg, s);
    unsigned before = pf.degree();
    pf.feedback(19, 20); // 95% accuracy
    EXPECT_GT(pf.degree(), before);
}

TEST(Prefetcher, DegreeStaysInBounds)
{
    StatRegistry s;
    PrefetcherConfig cfg;
    cfg.evalIntervalFills = 1;
    StreamPrefetcher pf(cfg, s);
    for (int i = 0; i < 50; ++i)
        pf.feedback(0, 2);
    EXPECT_EQ(pf.degree(), cfg.minDegree);
    for (int i = 0; i < 50; ++i)
        pf.feedback(2, 2);
    EXPECT_EQ(pf.degree(), cfg.maxDegree);
}

// --- MemHierarchy ---

TEST(Hierarchy, DemandMissGoesToDramOnce)
{
    StatRegistry s;
    HierarchyConfig cfg;
    cfg.prefetcherEnabled = false;
    MemHierarchy mem(cfg, s);

    auto r1 = mem.dataAccess(0x100000, AccessKind::DemandLoad, 0);
    EXPECT_TRUE(r1.llcMiss);
    EXPECT_GT(r1.ready, 100u);

    auto r2 = mem.dataAccess(0x100000, AccessKind::DemandLoad,
                             r1.ready + 10);
    EXPECT_TRUE(r2.l1Hit);
    EXPECT_EQ(s.get("dram.demand_reads"), 1u);
}

TEST(Hierarchy, WrongPathTrafficCountedSeparately)
{
    StatRegistry s;
    HierarchyConfig cfg;
    cfg.prefetcherEnabled = false;
    MemHierarchy mem(cfg, s);
    mem.dataAccess(0x200000, AccessKind::WrongPathLoad, 0);
    EXPECT_EQ(s.get("dram.wrongpath_reads"), 1u);
    EXPECT_EQ(s.get("dram.demand_reads"), 0u);
    EXPECT_EQ(mem.outstandingUselessMisses(0), 1u);
}

TEST(Hierarchy, OutstandingMissesDrain)
{
    StatRegistry s;
    HierarchyConfig cfg;
    cfg.prefetcherEnabled = false;
    MemHierarchy mem(cfg, s);
    auto r = mem.dataAccess(0x300000, AccessKind::DemandLoad, 0);
    EXPECT_EQ(mem.outstandingDemandMisses(0), 1u);
    EXPECT_EQ(mem.outstandingDemandMisses(r.ready + 1), 0u);
}

TEST(Hierarchy, StreamingTrainsPrefetcherAndHits)
{
    StatRegistry s;
    HierarchyConfig cfg;
    MemHierarchy mem(cfg, s);
    // Walk 64 sequential lines; later lines should become LLC hits
    // (or better) thanks to the stream prefetcher.
    Cycle t = 0;
    for (int i = 0; i < 64; ++i) {
        auto r = mem.dataAccess(0x400000 + i * 64,
                                AccessKind::DemandLoad, t);
        t = r.ready + 1;
    }
    EXPECT_GT(s.get("llc.pref_useful"), 10u);
}

TEST(Hierarchy, InstrFetchUsesICacheAndCodeRegion)
{
    StatRegistry s;
    HierarchyConfig cfg;
    cfg.prefetcherEnabled = false;
    MemHierarchy mem(cfg, s);
    Cycle c1 = mem.instrAccess(0, 0);
    EXPECT_GT(c1, 100u); // cold miss all the way to DRAM
    Cycle c2 = mem.instrAccess(1, c1 + 1); // same line
    EXPECT_LE(c2, c1 + 1 + cfg.l1i.latency);
    EXPECT_GT(s.get("l1i.accesses"), 0u);
}

TEST(Hierarchy, WouldMissLlcProbeIsSilent)
{
    StatRegistry s;
    HierarchyConfig cfg;
    cfg.prefetcherEnabled = false;
    MemHierarchy mem(cfg, s);
    EXPECT_TRUE(mem.wouldMissLlc(0x500000));
    const auto accessesBefore = s.get("l1d.accesses");
    mem.wouldMissLlc(0x500000);
    EXPECT_EQ(s.get("l1d.accesses"), accessesBefore);
    mem.dataAccess(0x500000, AccessKind::DemandLoad, 0);
    EXPECT_FALSE(mem.wouldMissLlc(0x500000));
}

TEST(Hierarchy, WouldMissLlcSeesEvictions)
{
    // The probe reads the live tags: evicting the line from L1D and
    // the LLC must flip the answer back to "miss". Evict the probed
    // line by walking conflicting lines through both caches (stride
    // of one LLC set revolution also conflicts in L1D).
    StatRegistry s;
    HierarchyConfig cfg;
    cfg.prefetcherEnabled = false;
    MemHierarchy mem(cfg, s);
    const Addr a = 0x700000;
    const Addr llcStride =
        Addr{cfg.llc.sizeBytes / cfg.llc.ways}; // one set revolution

    mem.dataAccess(a, AccessKind::DemandLoad, 0);
    EXPECT_FALSE(mem.wouldMissLlc(a));
    Cycle t = 1000;
    for (unsigned k = 1; k <= 2 * cfg.llc.ways; ++k) {
        auto r = mem.dataAccess(a + k * llcStride,
                                AccessKind::DemandLoad, t);
        t = r.ready + 1;
    }
    EXPECT_TRUE(mem.wouldMissLlc(a));
    // And a re-fill flips it again.
    mem.dataAccess(a, AccessKind::DemandLoad, t);
    EXPECT_FALSE(mem.wouldMissLlc(a));
}
