/**
 * @file
 * Critical Count Tables (paper Section 3.2).
 *
 * A small set-associative table tracking, per static load, how often
 * it misses in the LLC (and per static branch, how often it
 * mispredicts). Each entry carries TWO saturating counters of
 * different widths realising a strict and a permissive criticality
 * threshold; at runtime CDF measures the fraction of instructions
 * marked critical and switches to the permissive counters when too
 * few are marked (Section 3.2, "two sets of behaviors").
 */

#ifndef CDFSIM_CDF_CRITICAL_TABLE_HH
#define CDFSIM_CDF_CRITICAL_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/audit.hh"
#include "common/sat_counter.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace cdfsim::cdf
{

/** Configuration for one Critical Count Table. */
struct CriticalTableConfig
{
    unsigned entries = 64;
    unsigned ways = 2;
    unsigned strictBits = 4;        //!< strict counter width
    unsigned strictThreshold = 12;  //!< counter >= this -> critical
    unsigned permissiveBits = 2;
    unsigned permissiveThreshold = 2;
    unsigned missInc = 2;           //!< bump on an LLC miss/mispredict
    unsigned hitDec = 1;            //!< decay on a hit/correct pred.

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(named("entries", entries), named("ways", ways),
           named("strict_bits", strictBits),
           named("strict_threshold", strictThreshold),
           named("permissive_bits", permissiveBits),
           named("permissive_threshold", permissiveThreshold),
           named("miss_inc", missInc), named("hit_dec", hitDec));
    }

    SIM_SNAPSHOT_FIELDS(8);
};

/** Which threshold set the predictor is currently using. */
enum class ThresholdMode : std::uint8_t { Strict, Permissive };

/**
 * One Critical Count Table (used twice: once for loads keyed on LLC
 * misses, once for branches keyed on mispredictions).
 */
class CriticalCountTable
{
  public:
    CriticalCountTable(const CriticalTableConfig &config,
                       StatRegistry &stats, const std::string &name);

    /**
     * Retire-time training: the load at @p pc missed (or the branch
     * mispredicted) when @p negative is true.
     */
    void update(Addr pc, bool negativeEvent);

    /**
     * Is the instruction at @p pc predicted critical under the
     * current threshold mode? Pure lookup; no allocation.
     */
    bool isCritical(Addr pc) const;

    /** As isCritical() but forcing a threshold mode (for the walk). */
    bool isCriticalUnder(Addr pc, ThresholdMode mode) const;

    ThresholdMode mode() const { return mode_; }
    void setMode(ThresholdMode mode) { mode_ = mode; }

    /**
     * Structural walk: valid entries index the set their tag hashes
     * to, sets hold no duplicate tags, and no LRU stamp is ahead of
     * the allocation clock. Always compiled (the table is tiny);
     * sampled from update() in Audit builds.
     */
    void auditInvariants() const;

    /** Snapshot entries, the threshold/LRU state and the audit
     *  sampler (geometry and counter widths are config-fixed and
     *  excluded). */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        for (Entry &e : entries_) {
            std::uint32_t strict = e.strict.value();
            std::uint32_t permissive = e.permissive.value();
            ar(e.valid, e.tag, strict, permissive, e.lruTick);
            if constexpr (Ar::kLoading) {
                e.strict.set(strict);
                e.permissive.set(permissive);
            }
        }
        ar(tick_, mode_, audit_);
    }

  private:
    struct Entry
    {
        bool valid = false;
        Addr tag = 0;
        SatCounter strict{4};
        SatCounter permissive{2};
        std::uint64_t lruTick = 0;
    };

    std::size_t setOf(Addr pc) const { return pc % sets_; }
    const Entry *find(Addr pc) const;
    Entry &findOrAllocate(Addr pc);

    SIM_SNAPSHOT_FIELDS(8);

    CriticalTableConfig config_;
    std::size_t sets_;
    std::vector<Entry> entries_;
    std::uint64_t tick_ = 0;
    ThresholdMode mode_ = ThresholdMode::Strict;

    // Qualified on purpose: an unqualified friend would declare a
    // fresh cdfsim::cdf::AuditPeer instead of befriending the
    // test-only backdoor forward-declared in common/audit.hh.
    friend struct cdfsim::AuditPeer;
    mutable AuditSampler audit_{4096};

    std::uint64_t &updates_;
    std::uint64_t &allocations_;
};

} // namespace cdfsim::cdf

#endif // CDFSIM_CDF_CRITICAL_TABLE_HH
