/**
 * @file
 * Set-associative cache with LRU replacement, write-back/
 * write-allocate policy, fill-time line readiness (hit-under-fill)
 * and an MSHR file for miss merging and backpressure.
 *
 * The hierarchy uses a completion-time discipline: a miss fills the
 * line immediately but stamps it with the cycle at which the data
 * arrives; accesses that touch the line earlier complete at that
 * stamp (an MSHR merge in hardware terms).
 */

#ifndef CDFSIM_MEM_CACHE_HH
#define CDFSIM_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/audit.hh"
#include "common/cycle_list.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace cdfsim::mem
{

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned ways = 8;
    unsigned latency = 2;      //!< access (hit) latency in core cycles
    unsigned mshrs = 16;       //!< outstanding-miss capacity

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(named("name", name), named("size_bytes", sizeBytes),
           named("ways", ways), named("latency", latency),
           named("mshrs", mshrs));
    }

    SIM_SNAPSHOT_FIELDS(5);
};

/** Result of a cache lookup-and-fill operation. */
struct CacheAccessOutcome
{
    bool hit = false;              //!< tag present at request time
    Cycle ready = 0;               //!< cycle the data is available
    bool evictedDirty = false;     //!< a dirty victim was produced
    Addr evictedAddr = 0;          //!< victim line address (if dirty)
    bool mshrMerged = false;       //!< merged into an in-flight miss
    bool hitUnderFill = false;     //!< tag present but data in flight
    bool wasPrefetched = false;    //!< hit line was brought by prefetch
};

/** One cache level. */
class Cache
{
  public:
    Cache(const CacheConfig &config, StatRegistry &stats);

    /**
     * Look up @p addr at time @p now. On a miss, the caller-supplied
     * @p missLatency functor is invoked with the earliest start cycle
     * and must return the downstream completion cycle; the line is
     * then filled. Passing a null functor (see probeOnly) is not
     * allowed here.
     *
     * @param addr Byte address (line-aligned internally).
     * @param isWrite Marks the line dirty on hit/fill.
     * @param now Request cycle.
     * @param missLatency Functor Cycle(Cycle start) for miss service.
     * @param isPrefetch The access is a prefetch (separate stats,
     *        fills are tagged so later demand hits count as useful).
     */
    template <typename MissFn>
    CacheAccessOutcome
    access(Addr addr, bool isWrite, Cycle now, MissFn &&missLatency,
           bool isPrefetch = false)
    {
        const Addr line = lineAlign(addr);
        CacheAccessOutcome out;
        ++accesses_;

        // One set walk yields both the hit way and, on a miss, the
        // victim (first invalid way, else LRU-minimum). Nothing
        // between here and the fill mutates this cache's tags, so
        // the fused walk picks the same victim the old second walk
        // did.
        Way *victim = nullptr;
        Way *way = findLineAndVictim(line, victim);
        if (way) {
            out.hit = true;
            out.wasPrefetched = way->prefetched;
            if (way->prefetched && !isPrefetch) {
                ++prefUseful_;
                way->prefetched = false;
            }
            if (way->ready > now + latency_) {
                out.hitUnderFill = true;
                out.ready = way->ready;
            } else {
                out.ready = now + latency_;
            }
            way->dirty = way->dirty || isWrite;
            touch(*way);
            ++hits_;
            return out;
        }

        ++misses_;
        if (isPrefetch)
            ++prefIssued_;

        // MSHR backpressure: a full MSHR file delays the request
        // until the earliest outstanding miss completes. After the
        // prune every live MSHR completes in the future, so a full
        // file can only ever push the start cycle forward.
        Cycle start = now + latency_;
        mshrs_.pruneUpTo(now);
        if (mshrs_.size() >= mshrCap_) {
            const Cycle earliest = mshrs_.earliest();
            if (earliest > start) {
                start = earliest;
                ++mshrStalls_;
            }
        }

        const Cycle fillReady = missLatency(start);
        SIM_AUDIT(fillReady >= start,
                  "miss service completed before it started");
        mshrs_.push(fillReady);

        if (victim->valid && victim->dirty) {
            out.evictedDirty = true;
            out.evictedAddr = victim->lineAddr;
            ++writebacks_;
        }
        if (victim->valid && victim->prefetched)
            ++prefUnused_;
        victim->valid = true;
        victim->lineAddr = line;
        victim->dirty = isWrite;
        victim->ready = fillReady;
        victim->prefetched = isPrefetch;
        touch(*victim);

        out.hit = false;
        out.ready = fillReady;
        return out;
    }

    /** Tag check only; no LRU update, no fill. */
    bool probe(Addr addr) const;

    /** Drop the line holding @p addr if present. */
    void invalidate(Addr addr);

    /** Mark the line holding @p addr dirty (for retired stores). */
    void markDirty(Addr addr);

    unsigned latency() const { return latency_; }
    std::uint64_t sizeBytes() const { return size_; }
    unsigned ways() const { return ways_; }
    std::size_t numSets() const { return sets_; }

    /**
     * Earliest outstanding-miss completion strictly after @p now, or
     * kNeverCycle with no misses in flight. Prunes expired MSHRs
     * first — the same prune access() performs, just possibly a few
     * cycles early, which is harmless: pruneUpTo is monotone and the
     * list only feeds backpressure decisions relative to "now".
     */
    Cycle earliestEvent(Cycle now) { return mshrs_.earliestAfter(now); }

    /** Snapshot tags, LRU clock and the MSHR list (geometry is
     *  config-fixed and excluded). */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        for (Way &way : tags_) {
            ar(way.valid, way.dirty, way.prefetched, way.lineAddr,
               way.lru, way.ready);
        }
        ar(lruClock_, mshrs_);
    }

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        bool prefetched = false;
        Addr lineAddr = 0;
        std::uint64_t lru = 0;     //!< larger == more recently used
        Cycle ready = 0;
    };

    const Way *findLine(Addr line) const;
    Way *findLineAndVictim(Addr line, Way *&victim);
    void touch(Way &way);

    // sets_ is asserted to be a nonzero power of two, so the set
    // index is a shift and a mask — no integer division.
    std::size_t setIndex(Addr line) const
    {
        return static_cast<std::size_t>(line >> kLineShift) &
               setMask_;
    }

    SIM_SNAPSHOT_FIELDS(17);

    std::uint64_t size_;
    unsigned ways_;
    unsigned latency_;
    std::size_t sets_;
    std::size_t setMask_;
    unsigned mshrCap_;
    std::vector<Way> tags_;        // sets_ * ways_, row-major by set
    std::uint64_t lruClock_ = 0;
    CycleList mshrs_;

    std::uint64_t &accesses_;
    std::uint64_t &hits_;
    std::uint64_t &misses_;
    std::uint64_t &writebacks_;
    std::uint64_t &mshrStalls_;
    std::uint64_t &prefIssued_;
    std::uint64_t &prefUseful_;
    std::uint64_t &prefUnused_;
};

} // namespace cdfsim::mem

#endif // CDFSIM_MEM_CACHE_HH
