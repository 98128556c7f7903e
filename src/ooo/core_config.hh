/**
 * @file
 * Configuration of the OoO core, the CDF mechanism and the Precise
 * Runahead comparator. Defaults reproduce Table 1 of the paper
 * (Intel Sunny-Cove-like core at 3.2 GHz).
 */

#ifndef CDFSIM_OOO_CORE_CONFIG_HH
#define CDFSIM_OOO_CORE_CONFIG_HH

#include <array>
#include <cstdint>

#include "bp/predictor.hh"
#include "cdf/critical_table.hh"
#include "cdf/fill_buffer.hh"
#include "cdf/mask_cache.hh"
#include "cdf/partition.hh"
#include "cdf/uop_cache.hh"
#include "common/serialize.hh"
#include "mem/hierarchy.hh"

namespace cdfsim::ooo
{

/** Which execution paradigm the core runs. */
enum class CoreMode : std::uint8_t
{
    Baseline,   //!< plain OoO core with prefetching
    Cdf,        //!< Criticality Driven Fetch
    Pre,        //!< Precise Runahead comparator
};

/** CDF-specific knobs (Sections 3.2-3.6). */
struct CdfKnobs
{
    bool markCriticalBranches = true;   //!< ablation: Section 4.2
    cdf::CriticalTableConfig loadTable{};
    // Mispredicting ~15% of the time is already "hard to predict",
    // so the increment outweighs the decay substantially.
    cdf::CriticalTableConfig branchTable{
        64, 2, /*strictBits=*/4, /*strictThreshold=*/10,
        /*permissiveBits=*/3, /*permissiveThreshold=*/4,
        /*missInc=*/6, /*hitDec=*/1};
    cdf::FillBufferConfig fillBuffer{};
    cdf::MaskCacheConfig maskCache{};
    cdf::UopCacheConfig uopCache{};
    cdf::PartitionConfig partition{};
    unsigned dbqEntries = 256;          //!< Table 1
    unsigned cmqEntries = 256;          //!< Table 1
    /** Critical-density hysteresis for threshold-mode switching. */
    double densitySwitchLow = 0.05;
    double densitySwitchHigh = 0.30;
    /** Cycles to wait after a CDF exit before re-entering. */
    unsigned reentryCooldown = 64;

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(named("mark_critical_branches", markCriticalBranches),
           named("load_table", loadTable), named("branch_table", branchTable),
           named("fill_buffer", fillBuffer), named("mask_cache", maskCache),
           named("uop_cache", uopCache), named("partition", partition),
           named("dbq_entries", dbqEntries), named("cmq_entries", cmqEntries),
           named("density_switch_low", densitySwitchLow),
           named("density_switch_high", densitySwitchHigh),
           named("reentry_cooldown", reentryCooldown));
    }

    SIM_SNAPSHOT_FIELDS(12);
};

/** Precise Runahead knobs (Section 4.1 methodology). */
struct PreKnobs
{
    /** Stalling-load tracking (replaces branch marking). */
    cdf::CriticalTableConfig stallTable{
        64, 2, /*strictBits=*/4, /*strictThreshold=*/4,
        /*permissiveBits=*/2, /*permissiveThreshold=*/1,
        /*missInc=*/2, /*hitDec=*/1};
    /**
     * PRE keeps whole stalling slices regardless of density (the
     * density guard is a CDF policy for window expansion, which PRE
     * does not do).
     */
    cdf::FillBufferConfig fillBuffer{1024, 10000, /*minDensity=*/0.0,
                                     /*maxDensity=*/1.0,
                                     /*useMaskCache=*/true};
    cdf::MaskCacheConfig maskCache{};
    cdf::UopCacheConfig uopCache{};
    unsigned minStallCyclesToEnter = 4;  //!< hysteresis before runahead
    unsigned bbScanLimit = 48; //!< fwd scan to align on a cached block
    unsigned maxChainLoadsPerEpisode = 32;

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(named("stall_table", stallTable), named("fill_buffer", fillBuffer),
           named("mask_cache", maskCache), named("uop_cache", uopCache),
           named("min_stall_cycles_to_enter", minStallCyclesToEnter),
           named("bb_scan_limit", bbScanLimit),
           named("max_chain_loads_per_episode", maxChainLoadsPerEpisode));
    }

    SIM_SNAPSHOT_FIELDS(7);
};

/** The core proper (Table 1 baseline). */
struct CoreConfig
{
    CoreMode mode = CoreMode::Baseline;

    unsigned width = 6;            //!< fetch/decode/rename/retire width
    unsigned issueWidth = 6;       //!< RS -> FU dispatch width
    unsigned robSize = 352;
    unsigned rsSize = 160;
    unsigned lqSize = 128;
    unsigned sqSize = 72;
    unsigned physRegs = 512;
    unsigned frontendDepth = 5;    //!< fetch-to-rename latency
    unsigned fetchQueueSize = 64;
    unsigned mispredictRedirect = 4; //!< extra redirect cycles on flush
    unsigned btbMissPenalty = 2;
    unsigned maxLoadsPerCycle = 3;
    unsigned maxStoresPerCycle = 2;

    /**
     * Run CDF's criticality training (CCT + Fill Buffer + Mask
     * Cache) in observation-only mode on a baseline core, so the
     * ROB-occupancy breakdown of Fig. 1 can be measured.
     */
    bool observeCriticality = false;

    CdfKnobs cdf{};
    PreKnobs pre{};
    mem::HierarchyConfig mem{};
    bp::PredictorConfig bp{};

    /** Watchdog: panic if retirement stalls this long (0 = off). */
    Cycle deadlockCycles = 2'000'000;

    /**
     * Fast-forward provably quiescent cycles to the next event
     * (memory completion, fetch-stall expiry, RS wakeup bound)
     * instead of ticking through them one by one. Bit-identical to
     * ticking — every per-cycle stat is bulk-applied in closed form
     * and test_stat_gate holds with it on or off — so this is a pure
     * host-speed knob; turn it off only to simplify debugging.
     */
    bool skipIdleCycles = true;

    /**
     * Record host time per pipeline stage (Core::profile()). Purely
     * a host-side measurement: it must never change architectural
     * behaviour or any stat counter.
     */
    bool profileStages = false;

    /**
     * Scale window resources for the Fig. 17 study: ROB, RS, LQ, SQ
     * and PRF all multiply by @p factor (rounded), as the paper
     * scales "other core structures proportionately". Returns false
     * and changes nothing if a scaled size would fall outside
     * [1, 2^32-1].
     */
    bool
    scaleWindow(double factor)
    {
        const std::array<unsigned *, 5> sizes = {
            &robSize, &rsSize, &lqSize, &sqSize, &physRegs};
        for (const unsigned *v : sizes) {
            const double scaled = *v * factor + 0.5;
            if (!(scaled >= 1.0 && scaled < 4294967296.0))
                return false;
        }
        for (unsigned *v : sizes)
            *v = static_cast<unsigned>(*v * factor + 0.5);
        return true;
    }

    /**
     * Every field that can change simulated behaviour, in
     * declaration order, each under its spec override key. The
     * host-only skipIdleCycles and profileStages are left out: they
     * never move a stat (test_skip, test_stat_gate), so they stay
     * out of the warmup key and a profiled run reuses an unprofiled
     * run's checkpoint. Both stay here because the spec's
     * skip_idle_cycles key and cdfbench's profiling set them.
     */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(named("mode", mode), named("width", width),
           named("issue_width", issueWidth), named("rob_size", robSize),
           named("rs_size", rsSize), named("lq_size", lqSize),
           named("sq_size", sqSize), named("phys_regs", physRegs),
           named("frontend_depth", frontendDepth),
           named("fetch_queue_size", fetchQueueSize),
           named("mispredict_redirect", mispredictRedirect),
           named("btb_miss_penalty", btbMissPenalty),
           named("max_loads_per_cycle", maxLoadsPerCycle),
           named("max_stores_per_cycle", maxStoresPerCycle),
           named("observe_criticality", observeCriticality),
           named("cdf", cdf), named("pre", pre), named("mem", mem),
           named("bp", bp), named("deadlock_cycles", deadlockCycles));
    }

    SIM_SNAPSHOT_FIELDS(22);
};

} // namespace cdfsim::ooo

#endif // CDFSIM_OOO_CORE_CONFIG_HH
