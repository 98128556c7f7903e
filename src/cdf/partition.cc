#include "cdf/partition.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cdfsim::cdf
{

SectionPartition::SectionPartition(const std::string &name,
                                   unsigned totalEntries, unsigned step,
                                   unsigned minSection,
                                   unsigned stallThreshold, bool dynamic,
                                   double initialCriticalFrac,
                                   StatRegistry &stats)
    : total_(totalEntries),
      step_(step),
      minSection_(minSection),
      stallThreshold_(stallThreshold),
      dynamic_(dynamic),
      grows_(stats.counter(name + ".partition_grows")),
      shrinks_(stats.counter(name + ".partition_shrinks"))
{
    SIM_ASSERT(totalEntries > 2 * std::uint64_t{minSection_},
               "structure too small to partition");
    SIM_ASSERT(initialCriticalFrac >= 0.0 && initialCriticalFrac <= 1.0,
               "initial critical fraction outside [0, 1]");
    initialCritCap_ = std::clamp<unsigned>(
        static_cast<unsigned>(totalEntries * initialCriticalFrac),
        minSection_, totalEntries - minSection_);
    critCap_ = initialCritCap_;
}

void
SectionPartition::noteStall(bool criticalSection, std::uint64_t n)
{
    if (criticalSection)
        critStalls_ += n;
    else
        nonCritStalls_ += n;
}

void
SectionPartition::evaluate(unsigned critOcc, unsigned nonCritOcc)
{
    if (!dynamic_)
        return;

    if (critStalls_ >= nonCritStalls_ + stallThreshold_) {
        // Grow the critical section; the slot is taken from the
        // non-critical side only once it has drained.
        const unsigned grow = growAmount(nonCritOcc);
        if (grow > 0) {
            critCap_ += grow;
            ++grows_;
        }
        critStalls_ = 0;
        nonCritStalls_ = 0;
    } else if (nonCritStalls_ >= critStalls_ + stallThreshold_) {
        const unsigned shrink = shrinkAmount(critOcc);
        if (shrink > 0) {
            critCap_ -= shrink;
            ++shrinks_;
        }
        critStalls_ = 0;
        nonCritStalls_ = 0;
    }
}

void
SectionPartition::reset()
{
    critCap_ = initialCritCap_;
    critStalls_ = 0;
    nonCritStalls_ = 0;
}

/** The resize the grow branch of evaluate() would apply right now. */
unsigned
SectionPartition::growAmount(unsigned nonCritOcc) const
{
    const unsigned room = total_ - minSection_ - critCap_;
    unsigned grow = std::min(step_, room);
    const unsigned nonCritCap = total_ - critCap_;
    if (nonCritCap - grow < nonCritOcc)
        grow = nonCritCap > nonCritOcc ? nonCritCap - nonCritOcc : 0;
    return grow;
}

/** The resize the shrink branch of evaluate() would apply right now. */
unsigned
SectionPartition::shrinkAmount(unsigned critOcc) const
{
    const unsigned room = critCap_ - minSection_;
    unsigned shrink = std::min(step_, room);
    if (critCap_ - shrink < critOcc)
        shrink = critCap_ > critOcc ? critCap_ - critOcc : 0;
    return shrink;
}

Cycle
SectionPartition::cyclesUntilCapChange(bool chargeCrit,
                                       bool chargeNonCrit,
                                       unsigned critOcc,
                                       unsigned nonCritOcc) const
{
    if (!dynamic_)
        return kNeverCycle;
    // A zero threshold makes evaluate() fire every cycle, and an
    // already-triggered counter state breaks the post-evaluate
    // loop-top invariant this model needs. Either way: treat the
    // very next cycle as an event (no skip).
    if (stallThreshold_ == 0 ||
        critStalls_ >= nonCritStalls_ + stallThreshold_ ||
        nonCritStalls_ >= critStalls_ + stallThreshold_)
        return 1;
    if (chargeCrit == chargeNonCrit)
        return kNeverCycle; // the counter gap is frozen below trigger
    if (chargeCrit) {
        const Cycle k =
            nonCritStalls_ + stallThreshold_ - critStalls_;
        return growAmount(nonCritOcc) > 0 ? k : kNeverCycle;
    }
    const Cycle k = critStalls_ + stallThreshold_ - nonCritStalls_;
    return shrinkAmount(critOcc) > 0 ? k : kNeverCycle;
}

void
SectionPartition::advanceCounters(bool chargeCrit, bool chargeNonCrit,
                                  std::uint64_t n, unsigned critOcc,
                                  unsigned nonCritOcc)
{
    if (chargeCrit == chargeNonCrit) {
        // Equal charges keep the gap frozen; evaluate() never
        // triggers inside the window.
        if (chargeCrit) {
            critStalls_ += n;
            nonCritStalls_ += n;
        }
        return;
    }
    if (!dynamic_) {
        (chargeCrit ? critStalls_ : nonCritStalls_) += n;
        return;
    }
    SIM_ASSERT(stallThreshold_ > 0,
               "bulk-advancing partition counters with a zero "
               "threshold");
    std::uint64_t &lead = chargeCrit ? critStalls_ : nonCritStalls_;
    std::uint64_t &lag = chargeCrit ? nonCritStalls_ : critStalls_;
    SIM_ASSERT(lead < lag + stallThreshold_,
               "bulk-advancing partition counters past a pending "
               "trigger");
    const std::uint64_t k = lag + stallThreshold_ - lead;
    if (n < k) {
        lead += n;
        return;
    }
    SIM_ASSERT((chargeCrit ? growAmount(nonCritOcc)
                           : shrinkAmount(critOcc)) == 0,
               "partition cap change inside a bulk-accounted window");
    // The crossing at k enters an evaluate() branch whose resize
    // clamps to zero: both counters reset, then the lead counter
    // cycles modulo the threshold.
    lead = (n - k) % stallThreshold_;
    lag = 0;
}

} // namespace cdfsim::cdf
