/**
 * @file
 * Fill Buffer and the backwards dataflow walk (paper Section 3.2,
 * Figs. 5-7).
 *
 * The Fill Buffer records a window of retired uops (1024 by
 * default). Each entry carries the decoded uop, register bit
 * vectors, a memory tag and a critical bit. When full, the buffer is
 * walked from youngest to oldest: uops in the dependence chains of
 * seed-critical loads and branches are marked critical, chaining
 * through registers and through memory (a store that wrote a word a
 * critical load reads joins the chain). Completed basic blocks are
 * then collected into traces for the Critical Uop Cache, and per-BB
 * masks are merged into the Mask Cache so that criticality
 * accumulates across control-flow paths.
 *
 * A density guard rejects walks that mark fewer than 2% or more than
 * 50% of the buffer, removing the affected blocks from both caches
 * so the processor stops entering CDF mode on them.
 */

#ifndef CDFSIM_CDF_FILL_BUFFER_HH
#define CDFSIM_CDF_FILL_BUFFER_HH

#include <bitset>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cdf/mask_cache.hh"
#include "cdf/uop_cache.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/uop.hh"

namespace cdfsim::cdf
{

/** Fill Buffer configuration (Table 1: 1024 entries, 16KB). */
struct FillBufferConfig
{
    unsigned capacity = 1024;
    std::uint64_t refillIntervalInstrs = 10000;
    double minDensity = 0.02;
    double maxDensity = 0.50;
    bool useMaskCache = true;   //!< ablation switch

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(named("capacity", capacity),
           named("refill_interval_instrs", refillIntervalInstrs),
           named("min_density", minDensity), named("max_density", maxDensity),
           named("use_mask_cache", useMaskCache));
    }

    SIM_SNAPSHOT_FIELDS(5);
};

/** Retire-side information for one uop entering the Fill Buffer. */
struct RetiredUopInfo
{
    Addr pc = 0;
    isa::Uop uop;
    Addr memWordAddr = 0;     //!< 8B-aligned effective address (mem ops)
    bool seedCritical = false; //!< CCT-predicted critical load/branch
    bool startsBasicBlock = false;
};

/** Result of one completed walk, for the controller's density logic. */
struct WalkResult
{
    bool performed = false;
    bool accepted = false;     //!< density guard passed
    double density = 0.0;
    unsigned marked = 0;
    unsigned blocksFilled = 0;
};

/** The Fill Buffer. */
class FillBuffer
{
  public:
    FillBuffer(const FillBufferConfig &config, MaskCache &maskCache,
               CriticalUopCache &uopCache, StatRegistry &stats);

    /**
     * Offer a retired uop. Collection is windowed: the buffer
     * gathers `capacity` consecutive uops, walks, then idles until
     * the next refill interval. Returns the walk result when a walk
     * happened this call.
     */
    WalkResult onRetire(const RetiredUopInfo &info,
                        std::uint64_t retiredInstrs, Cycle now);

    /** Number of uops currently collected. */
    std::size_t size() const { return entries_.size(); }

    bool collecting() const { return collecting_; }

    /** Snapshot the collection window and the mask shift register
     *  (the referenced caches snapshot themselves). */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        const auto entry = [](Ar &a, Entry &e) {
            a(e.pc, e.uop, e.memWordAddr, e.critical, e.startsBasicBlock);
        };
        ar(sized<std::uint32_t>(entries_, entry), collecting_,
           collectionStart_, activeMask_, activeMaskOffset_,
           activeMaskValid_);
    }

  private:
    struct Entry
    {
        Addr pc = 0;
        isa::Uop uop;
        Addr memWordAddr = 0;
        bool critical = false;
        bool startsBasicBlock = false;
    };

    WalkResult walk(Cycle now);
    void markChains();
    WalkResult harvest(Cycle now);

    SIM_SNAPSHOT_FIELDS(14);

    FillBufferConfig config_;
    MaskCache &maskCache_;
    CriticalUopCache &uopCache_;
    std::vector<Entry> entries_;
    bool collecting_ = true;
    std::uint64_t collectionStart_ = 0;

    // Mask-cache shift register state while inserting (Section 3.2).
    std::uint64_t activeMask_ = 0;
    unsigned activeMaskOffset_ = 0;
    bool activeMaskValid_ = false;

    std::uint64_t &walks_;
    std::uint64_t &walksRejectedLow_;
    std::uint64_t &walksRejectedHigh_;
    std::uint64_t &uopsMarked_;
    std::uint64_t &tracesFilled_;
};

} // namespace cdfsim::cdf

#endif // CDFSIM_CDF_FILL_BUFFER_HH
