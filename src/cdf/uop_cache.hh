/**
 * @file
 * Critical Uop Cache (paper Sections 3.2-3.3).
 *
 * Holds decoded critical uops as basic-block-sized traces tagged
 * with the first instruction of the block. A trace records, per
 * critical uop, its offset inside the block (so the critical fetch
 * logic can assign program-order timestamps while *skipping* the
 * timestamps of non-critical uops), the total uop count of the
 * block, whether the block ends in a branch, and the fall-through /
 * saved-next-address used to compute the next critical fetch address
 * (Fig. 7). Blocks with more than 8 critical uops occupy multiple
 * chained 8-uop lines, which is how capacity is charged.
 */

#ifndef CDFSIM_CDF_UOP_CACHE_HH
#define CDFSIM_CDF_UOP_CACHE_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/uop.hh"

namespace cdfsim::cdf
{

/** One critical uop inside a trace. */
struct TraceUop
{
    isa::Uop uop;
    unsigned offsetInBlock = 0;  //!< program-order position in the BB

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(uop, offsetInBlock);
    }

    SIM_SNAPSHOT_FIELDS(2);
};

/** A basic-block trace of critical uops. */
struct BbTrace
{
    Addr startPc = 0;            //!< tag: first uop of the basic block
    unsigned blockLength = 0;    //!< total uops in the BB (for ts skip)
    std::vector<TraceUop> uops;  //!< the critical subset, in order
    bool endsInBranch = false;   //!< last uop of the BB is a branch
    Addr branchPc = 0;           //!< PC of that branch (== start+len-1)
    Cycle readyCycle = 0;        //!< fill latency gate (Section 3.2)

    /** 8-uop lines this trace occupies (capacity accounting). */
    unsigned
    lines() const
    {
        const auto n = static_cast<unsigned>(uops.size());
        return n == 0 ? 1 : (n + 7) / 8;
    }

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(startPc, blockLength, sized<std::uint32_t>(uops), endsInBranch,
           branchPc, readyCycle);
    }

    SIM_SNAPSHOT_FIELDS(6);
};

/** Uop cache configuration (Table 1: 18KB 4-way, 8x8B per entry). */
struct UopCacheConfig
{
    unsigned capacityLines = 288;    //!< 18KB / 64B per line
    unsigned fillLatency = 1200;     //!< cycles until a new fill is usable

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(named("capacity_lines", capacityLines),
           named("fill_latency", fillLatency));
    }

    SIM_SNAPSHOT_FIELDS(2);
};

/** The Critical Uop Cache. */
class CriticalUopCache
{
  public:
    CriticalUopCache(const UopCacheConfig &config, StatRegistry &stats);

    /**
     * Lookup the trace starting at @p pc, honouring the fill-latency
     * gate. Returns nullptr on miss. Counts hit/miss stats and
     * updates LRU — use contains() for silent probes.
     */
    const BbTrace *lookup(Addr pc, Cycle now);

    /** Silent probe (no stats, no LRU, ignores readiness). */
    bool contains(Addr pc) const;

    /** Insert (or replace) a trace; evicts LRU traces to make room. */
    void insert(BbTrace trace, Cycle now);

    /** Remove the trace tagged @p pc (density guard). */
    void remove(Addr pc);

    unsigned usedLines() const { return usedLines_; }
    std::size_t numTraces() const { return traces_.size(); }

    /**
     * Snapshot the traces in LRU order (the list is the source of
     * truth; the tag map is rebuilt on restore, so the snapshot
     * never iterates the unordered container).
     */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(sized<std::uint32_t>(lru_), usedLines_);
        if constexpr (Ar::kLoading) {
            traces_.clear();
            for (auto it = lru_.begin(); it != lru_.end(); ++it)
                traces_[it->startPc] = it;
        }
    }

  private:
    void evictOne();

    SIM_SNAPSHOT_FIELDS(9);

    UopCacheConfig config_;
    // LRU list of traces; map from tag to list iterator.
    std::list<BbTrace> lru_;  // front == most recent
    std::unordered_map<Addr, std::list<BbTrace>::iterator> traces_;
    unsigned usedLines_ = 0;

    std::uint64_t &hits_;
    std::uint64_t &misses_;
    std::uint64_t &missesNotReady_;
    std::uint64_t &fills_;
    std::uint64_t &evictions_;
};

/**
 * A fetch cursor over uop-cache traces (CDF's critical fetch and
 * PRE's chain fetch): the block to fetch next, and once loaded a
 * private copy of its trace with the index of the next critical uop
 * to emit. The trace is copied because a fill-buffer walk may
 * replace the cached one while the block is still being emitted.
 */
struct TraceCursor
{
    Addr pc = 0;        //!< first uop of the block to fetch next
    bool valid = false; //!< trace holds the block at pc
    BbTrace trace;
    unsigned idx = 0;   //!< next entry of trace.uops to emit

    /** Copy in the trace of the block at pc; false on a miss. */
    bool
    load(CriticalUopCache &cache, Cycle now)
    {
        const BbTrace *t = cache.lookup(pc, now);
        if (!t)
            return false;
        trace = *t;
        valid = true;
        idx = 0;
        return true;
    }

    /** Point at the block starting at @p next, not yet loaded. */
    void
    moveTo(Addr next)
    {
        pc = next;
        valid = false;
        idx = 0;
    }

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(pc, valid, trace, idx);
    }

    SIM_SNAPSHOT_FIELDS(4);
};

} // namespace cdfsim::cdf

#endif // CDFSIM_CDF_UOP_CACHE_HH
