/**
 * @file
 * Three-level memory hierarchy facade: L1I + L1D, shared LLC, DRAM,
 * with the stream prefetcher trained at the LLC boundary.
 *
 * The core (and the PRE engine) performs all memory timing through
 * this class. Every access is tagged with an AccessKind so the
 * hierarchy can attribute MLP and DRAM traffic to demand, prefetch,
 * wrong-path and runahead activity — the split the paper's Figs. 14
 * and 15 rely on.
 */

#ifndef CDFSIM_MEM_HIERARCHY_HH
#define CDFSIM_MEM_HIERARCHY_HH

#include <array>
#include <cstdint>

#include "common/cycle_list.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/prefetcher.hh"

namespace cdfsim::mem
{

/** Who is asking for memory. */
enum class AccessKind : std::uint8_t
{
    DemandLoad,     //!< correct-path load issued by the core
    DemandStore,    //!< retired store committing
    WrongPathLoad,  //!< load fetched down a mispredicted path
    RunaheadLoad,   //!< PRE chain load (prefetch-only execution)
    InstrFetch,     //!< frontend line fetch
};

/** Summary of one data access. */
struct MemAccessResult
{
    Cycle ready = 0;
    bool l1Hit = false;
    bool llcHit = false;     //!< serviced at the LLC (after L1 miss)
    bool llcMiss = false;    //!< had to go to DRAM
};

/**
 * Host-time attribution of hierarchy work, by the deepest level an
 * access reached. Filled only when profiling is enabled (the
 * --profile flag); purely host-side, never enters the stat
 * registry, so profiled and unprofiled runs stay architecturally
 * bit-identical.
 */
struct MemLevelProfile
{
    enum Level : unsigned
    {
        L1,   //!< satisfied by L1I / L1D
        Llc,  //!< L1 miss serviced at the LLC
        Dram, //!< went all the way to DRAM
        kNumLevels
    };

    std::array<std::uint64_t, kNumLevels> ns{};
    std::array<std::uint64_t, kNumLevels> accesses{};

    static const char *name(unsigned level);
};

/** Hierarchy configuration (Table 1 defaults). */
struct HierarchyConfig
{
    CacheConfig l1i{"l1i", 32 * 1024, 8, 2, 8};
    CacheConfig l1d{"l1d", 32 * 1024, 8, 2, 12};
    CacheConfig llc{"llc", 1024 * 1024, 16, 18, 24};
    DramConfig dram{};
    PrefetcherConfig prefetcher{};
    bool prefetcherEnabled = true;

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(named("l1i", l1i), named("l1d", l1d), named("llc", llc),
           named("dram", dram), named("prefetcher", prefetcher),
           named("prefetcher_enabled", prefetcherEnabled));
    }

    SIM_SNAPSHOT_FIELDS(6);
};

/** The memory system. */
class MemHierarchy
{
  public:
    MemHierarchy(const HierarchyConfig &config, StatRegistry &stats);

    /** Non-copyable: caches hold references into the stat registry. */
    MemHierarchy(const MemHierarchy &) = delete;
    MemHierarchy &operator=(const MemHierarchy &) = delete;

    /** Perform a data-side access (loads, stores, runahead). */
    MemAccessResult dataAccess(Addr addr, AccessKind kind, Cycle now);

    /** Fetch the instruction line holding uop index @p pc. */
    Cycle instrAccess(Addr pc, Cycle now);

    /**
     * Probe-only: would a demand load of @p addr miss the LLC right
     * now? PRE's chain walk uses it to pick the loads worth running
     * ahead. No state is modified.
     */
    bool wouldMissLlc(Addr addr) const;

    /** Outstanding DRAM demand misses at @p now (for MLP sampling). */
    unsigned outstandingDemandMisses(Cycle now);

    /** Outstanding useless (wrong-path / dead-runahead) misses. */
    unsigned outstandingUselessMisses(Cycle now);

    /**
     * Earliest cycle strictly after @p now at which anything in the
     * memory system changes state on its own: an MSHR completing in
     * any cache level, or an outstanding DRAM miss leaving the MLP
     * counters. kNeverCycle when fully drained. The idle-skip fast
     * path may jump the core clock to (but not past) this cycle;
     * everything else in the hierarchy is access-driven and cannot
     * act during the gap.
     */
    Cycle earliestEvent(Cycle now);

    /** DRAM bytes moved so far. */
    std::uint64_t dramBytes() const { return dram_.totalBytes(); }

    /** Toggle host-time per-level profiling (off by default). */
    void enableProfile(bool on) { profileEnabled_ = on; }
    const MemLevelProfile &profile() const { return profile_; }

    Cache &l1d() { return l1d_; }
    Cache &llc() { return llc_; }
    DramModel &dram() { return dram_; }
    StreamPrefetcher &prefetcher() { return prefetcher_; }

    /** Map a uop PC to a byte address in the dedicated code region. */
    static Addr
    codeAddr(Addr pc)
    {
        return kCodeBase + pc * 8;
    }

    /**
     * Snapshot every level plus the outstanding-miss lists and the
     * prefetch-feedback cursors. Host-side profiling state is
     * excluded (it never affects timing).
     */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(l1i_, l1d_, llc_, dram_, prefetcher_, demandMisses_,
           uselessMisses_, lastPrefUseful_, lastPrefIssued_);
    }

  private:
    static constexpr Addr kCodeBase = Addr{1} << 40;

    /** LLC access chained to DRAM; shared by both L1 miss paths. */
    Cycle llcThenDram(Addr line, bool isWrite, Cycle start,
                      AccessKind kind, bool *llcHitOut);

    void issuePrefetches(Addr trigger, bool wasLlcMiss, Cycle now);

    MemAccessResult dataAccessTimed(Addr addr, AccessKind kind,
                                    Cycle now);
    Cycle instrAccessTimed(Addr pc, Cycle now, unsigned &level);
    void recordProfile(unsigned level, std::uint64_t ns);

    SIM_SNAPSHOT_FIELDS(17);

    HierarchyConfig config_;
    StatRegistry &stats_;
    Cache l1i_;
    Cache l1d_;
    Cache llc_;
    DramModel dram_;
    StreamPrefetcher prefetcher_;

    // Completion cycles of the outstanding DRAM misses (MLP
    // sampling reads their counts every cycle).
    CycleList demandMisses_;
    CycleList uselessMisses_;

    bool profileEnabled_ = false;
    MemLevelProfile profile_;

    std::uint64_t lastPrefUseful_ = 0;
    std::uint64_t lastPrefIssued_ = 0;

    std::uint64_t &dramDemandReads_;
    std::uint64_t &dramPrefetchReads_;
    std::uint64_t &dramWrongPathReads_;
    std::uint64_t &dramRunaheadReads_;
};

} // namespace cdfsim::mem

#endif // CDFSIM_MEM_HIERARCHY_HH
