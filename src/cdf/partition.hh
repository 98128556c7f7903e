/**
 * @file
 * Dynamic partitioning of backend window resources between the
 * critical and non-critical sections (paper Section 3.5).
 *
 * Counters measure full-window-stall cycles attributable to each
 * section of each structure; when one section's stall count exceeds
 * the other's by a threshold (4 cycles in the paper), that section
 * grows by a step (8 entries for ROB/RS, 2 for LQ/SQ) at the
 * other's expense. A shrink never cuts below current occupancy,
 * modelling the paper's wait-for-the-slot-to-drain mechanism.
 */

#ifndef CDFSIM_CDF_PARTITION_HH
#define CDFSIM_CDF_PARTITION_HH

#include <cstdint>
#include <string>

#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace cdfsim::cdf
{

/** Partitioning policy knobs. */
struct PartitionConfig
{
    bool dynamic = true;          //!< ablation: freeze the split
    unsigned stallThreshold = 4;  //!< stall-cycle lead needed to grow
    unsigned robStep = 8;
    unsigned lsqStep = 2;
    unsigned minSection = 8;      //!< floor for either section (ROB)
    unsigned minLsqSection = 4;   //!< floor for either section (LQ/SQ)
    double initialCriticalFrac = 0.75;

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(named("dynamic", dynamic),
           named("stall_threshold", stallThreshold),
           named("rob_step", robStep), named("lsq_step", lsqStep),
           named("min_section", minSection),
           named("min_lsq_section", minLsqSection),
           named("initial_critical_frac", initialCriticalFrac));
    }

    SIM_SNAPSHOT_FIELDS(7);
};

/** One partitioned structure (ROB, LQ or SQ). */
class SectionPartition
{
  public:
    SectionPartition(const std::string &name, unsigned totalEntries,
                     unsigned step, unsigned minSection,
                     unsigned stallThreshold, bool dynamic,
                     double initialCriticalFrac, StatRegistry &stats);

    unsigned criticalCap() const { return critCap_; }
    unsigned nonCriticalCap() const { return total_ - critCap_; }
    unsigned total() const { return total_; }

    /** Record @p n stall cycles charged to a section being full. */
    void noteStall(bool criticalSection, std::uint64_t n = 1);

    /**
     * Evaluate the counters and resize if warranted. @p critOcc and
     * @p nonCritOcc are current occupancies; shrinks clamp to them.
     */
    void evaluate(unsigned critOcc, unsigned nonCritOcc);

    /**
     * Idle-skip support: with one noteStall(@p chargeCrit) /
     * noteStall-non-critical(@p chargeNonCrit) charge per cycle
     * followed by one evaluate() per cycle (occupancies frozen at
     * @p critOcc / @p nonCritOcc), the number of cycles until an
     * evaluate() actually changes criticalCap(); kNeverCycle when it
     * provably never does. Threshold crossings whose resize clamps
     * to zero only reset the counters — those stay internal to
     * advanceCounters() and do not bound the caller's jump.
     * Assumes the caller observed the post-evaluate state of the
     * previous cycle (both counters strictly below trigger); returns
     * 1 (no skip) when that does not hold.
     */
    Cycle cyclesUntilCapChange(bool chargeCrit, bool chargeNonCrit,
                               unsigned critOcc,
                               unsigned nonCritOcc) const;

    /**
     * Closed-form replay of @p n cycles of noteStall(@p chargeCrit /
     * @p chargeNonCrit) + evaluate() with frozen occupancies,
     * including any zero-resize counter resets inside the window.
     * The caller must have bounded @p n by cyclesUntilCapChange();
     * a cap change inside the window panics.
     */
    void advanceCounters(bool chargeCrit, bool chargeNonCrit,
                         std::uint64_t n, unsigned critOcc,
                         unsigned nonCritOcc);

    /** Reset to the initial split (on CDF episode boundaries). */
    void reset();

    /** Snapshot the mutable split state (policy knobs are config). */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(critCap_, critStalls_, nonCritStalls_);
    }

  private:
    unsigned growAmount(unsigned nonCritOcc) const;
    unsigned shrinkAmount(unsigned critOcc) const;

    SIM_SNAPSHOT_FIELDS(11);

    unsigned total_;
    unsigned step_;
    unsigned minSection_;
    unsigned stallThreshold_;
    bool dynamic_;
    unsigned initialCritCap_;
    unsigned critCap_;
    std::uint64_t critStalls_ = 0;
    std::uint64_t nonCritStalls_ = 0;

    std::uint64_t &grows_;
    std::uint64_t &shrinks_;
};

} // namespace cdfsim::cdf

#endif // CDFSIM_CDF_PARTITION_HH
