/**
 * @file
 * Mask Cache (paper Section 3.2).
 *
 * Stores, per basic block, a 64-bit mask with a 1 for every uop that
 * has been marked critical on ANY previously observed control-flow
 * path through that block. Masks are read out when the block is next
 * inserted into the Fill Buffer (pre-marking), accumulate across
 * paths, and are periodically reset so stale paths age out.
 */

#ifndef CDFSIM_CDF_MASK_CACHE_HH
#define CDFSIM_CDF_MASK_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/audit.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace cdfsim::cdf
{

/** Mask cache configuration (Table 1: 4KB, 4-way, 1-cycle). */
struct MaskCacheConfig
{
    unsigned entries = 512;
    unsigned ways = 4;
    std::uint64_t resetIntervalInstrs = 200000;

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(named("entries", entries), named("ways", ways),
           named("reset_interval_instrs", resetIntervalInstrs));
    }

    SIM_SNAPSHOT_FIELDS(3);
};

/** Per-basic-block critical-uop masks. */
class MaskCache
{
  public:
    MaskCache(const MaskCacheConfig &config, StatRegistry &stats);

    /** Mask for the basic block starting at @p pc, if cached. */
    std::optional<std::uint64_t> lookup(Addr pc) const;

    /** OR @p mask into the entry for @p pc, allocating if needed. */
    void merge(Addr pc, std::uint64_t mask);

    /** Remove the entry for @p pc (density guard, Section 3.2). */
    void remove(Addr pc);

    /**
     * Called with the retire-instruction counter; clears the cache
     * each time the reset interval elapses.
     */
    void maybeReset(std::uint64_t retiredInstrs);

    /** Unconditional clear. */
    void reset();

    /**
     * Structural walk: valid entries index the set their tag hashes
     * to, sets hold no duplicate tags, and no LRU stamp is ahead of
     * the allocation clock. Always compiled (the cache is tiny);
     * sampled from merge() in Audit builds.
     */
    void auditInvariants() const;

    /** Snapshot entries, the LRU/reset clocks and the audit
     *  sampler (geometry is config-fixed and excluded). */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        for (Entry &e : entries_)
            ar(e.valid, e.tag, e.mask, e.lruTick);
        ar(tick_, lastReset_, audit_);
    }

  private:
    struct Entry
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t mask = 0;
        std::uint64_t lruTick = 0;
    };

    std::size_t setOf(Addr pc) const { return pc % sets_; }

    SIM_SNAPSHOT_FIELDS(9);

    MaskCacheConfig config_;
    std::size_t sets_;
    std::vector<Entry> entries_;
    std::uint64_t tick_ = 0;
    std::uint64_t lastReset_ = 0;

    // Qualified on purpose: an unqualified friend would declare a
    // fresh cdfsim::cdf::AuditPeer instead of befriending the
    // test-only backdoor forward-declared in common/audit.hh.
    friend struct cdfsim::AuditPeer;
    mutable AuditSampler audit_{4096};

    std::uint64_t &merges_;
    std::uint64_t &hits_;
    std::uint64_t &resets_;
};

} // namespace cdfsim::cdf

#endif // CDFSIM_CDF_MASK_CACHE_HH
