#include "mem/hierarchy.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"

namespace cdfsim::mem
{

const char *
MemLevelProfile::name(unsigned level)
{
    static const char *const kNames[kNumLevels] = {
        "mem.l1", "mem.llc", "mem.dram",
    };
    SIM_ASSERT(level < kNumLevels, "bad memory level");
    return kNames[level];
}

MemHierarchy::MemHierarchy(const HierarchyConfig &config,
                           StatRegistry &stats)
    : config_(config),
      stats_(stats),
      l1i_(config.l1i, stats),
      l1d_(config.l1d, stats),
      llc_(config.llc, stats),
      dram_(config.dram, stats),
      prefetcher_(config.prefetcher, stats),
      dramDemandReads_(stats.counter("dram.demand_reads")),
      dramPrefetchReads_(stats.counter("dram.prefetch_reads")),
      dramWrongPathReads_(stats.counter("dram.wrongpath_reads")),
      dramRunaheadReads_(stats.counter("dram.runahead_reads"))
{
}

Cycle
MemHierarchy::llcThenDram(Addr line, bool isWrite, Cycle start,
                          AccessKind kind, bool *llcHitOut)
{
    auto out = llc_.access(
        line, isWrite, start,
        [&](Cycle llc_start) {
            auto dr = dram_.access(line, false, llc_start);
            switch (kind) {
              case AccessKind::DemandLoad:
              case AccessKind::DemandStore:
              case AccessKind::InstrFetch:
                ++dramDemandReads_;
                demandMisses_.push(dr.ready);
                break;
              case AccessKind::WrongPathLoad:
                ++dramWrongPathReads_;
                uselessMisses_.push(dr.ready);
                break;
              case AccessKind::RunaheadLoad:
                ++dramRunaheadReads_;
                // Runahead misses are counted as demand MLP only if
                // they later turn out useful; the PRE controller
                // reclassifies via its own stats. Here they appear in
                // the demand queue so MLP reflects overlap on the bus.
                demandMisses_.push(dr.ready);
                break;
            }
            return dr.ready;
        },
        /*isPrefetch=*/false);

    if (out.evictedDirty)
        dram_.access(out.evictedAddr, true, out.ready);
    if (llcHitOut)
        *llcHitOut = out.hit;
    return out.ready;
}

MemAccessResult
MemHierarchy::dataAccess(Addr addr, AccessKind kind, Cycle now)
{
    if (!profileEnabled_)
        return dataAccessTimed(addr, kind, now);

    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const MemAccessResult res = dataAccessTimed(addr, kind, now);
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock::now() - t0)
            .count());
    recordProfile(res.l1Hit    ? MemLevelProfile::L1
                  : res.llcHit ? MemLevelProfile::Llc
                               : MemLevelProfile::Dram,
                  ns);
    return res;
}

void
MemHierarchy::recordProfile(unsigned level, std::uint64_t ns)
{
    profile_.ns[level] += ns;
    ++profile_.accesses[level];
}

MemAccessResult
MemHierarchy::dataAccessTimed(Addr addr, AccessKind kind, Cycle now)
{
    SIM_ASSERT(kind != AccessKind::InstrFetch,
               "instruction fetches go through instrAccess");

    MemAccessResult res;
    const bool isWrite = kind == AccessKind::DemandStore;
    bool llcHit = false;
    bool reachedLlc = false;

    auto out = l1d_.access(
        addr, isWrite, now,
        [&](Cycle start) {
            reachedLlc = true;
            return llcThenDram(lineAlign(addr), false, start, kind,
                               &llcHit);
        });

    if (out.evictedDirty) {
        // Write the L1 victim back into the LLC: fill (or update)
        // the line as dirty without a DRAM round trip.
        auto wb = llc_.access(out.evictedAddr, true, out.ready,
                              [&](Cycle start) { return start; });
        if (wb.evictedDirty)
            dram_.access(wb.evictedAddr, true, wb.ready);
    }

    res.ready = out.ready;
    res.l1Hit = out.hit;
    res.llcHit = reachedLlc && llcHit;
    res.llcMiss = reachedLlc && !llcHit;

    // Train the prefetcher on the post-L1 demand stream only.
    if (config_.prefetcherEnabled && reachedLlc &&
        kind != AccessKind::WrongPathLoad) {
        issuePrefetches(addr, res.llcMiss, now);
    }
    return res;
}

void
MemHierarchy::issuePrefetches(Addr trigger, bool wasLlcMiss, Cycle now)
{
    PrefetchBatch batch = prefetcher_.observe(trigger, wasLlcMiss);
    for (unsigned i = 0; i < batch.count; ++i) {
        const Addr line = batch.lines[i];
        if (llc_.probe(line))
            continue;
        auto out = llc_.access(
            line, false, now,
            [&](Cycle start) {
                auto dr = dram_.access(line, false, start);
                ++dramPrefetchReads_;
                return dr.ready;
            },
            /*isPrefetch=*/true);
        if (out.evictedDirty)
            dram_.access(out.evictedAddr, true, out.ready);
    }

    // Feed accuracy deltas back to the throttle.
    const std::uint64_t useful = stats_.get("llc.pref_useful");
    const std::uint64_t issued = stats_.get("llc.pref_fills");
    prefetcher_.feedback(useful - lastPrefUseful_,
                         issued - lastPrefIssued_);
    lastPrefUseful_ = useful;
    lastPrefIssued_ = issued;
}

Cycle
MemHierarchy::instrAccess(Addr pc, Cycle now)
{
    unsigned level = MemLevelProfile::L1;
    if (!profileEnabled_)
        return instrAccessTimed(pc, now, level);

    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const Cycle ready = instrAccessTimed(pc, now, level);
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock::now() - t0)
            .count());
    recordProfile(level, ns);
    return ready;
}

Cycle
MemHierarchy::instrAccessTimed(Addr pc, Cycle now, unsigned &level)
{
    const Addr addr = codeAddr(pc);
    bool llcHit = false;
    bool reachedLlc = false;
    auto out = l1i_.access(addr, false, now, [&](Cycle start) {
        reachedLlc = true;
        return llcThenDram(lineAlign(addr), false, start,
                           AccessKind::InstrFetch, &llcHit);
    });
    level = !reachedLlc ? MemLevelProfile::L1
            : llcHit    ? MemLevelProfile::Llc
                        : MemLevelProfile::Dram;
    return out.ready;
}

bool
MemHierarchy::wouldMissLlc(Addr addr) const
{
    const Addr line = lineAlign(addr);
    return !l1d_.probe(line) && !llc_.probe(line);
}

Cycle
MemHierarchy::earliestEvent(Cycle now)
{
    // Pruning the MLP counters here is what the per-cycle sampler
    // would do first anyway.
    return std::min({demandMisses_.earliestAfter(now),
                     uselessMisses_.earliestAfter(now),
                     l1i_.earliestEvent(now), l1d_.earliestEvent(now),
                     llc_.earliestEvent(now)});
}

unsigned
MemHierarchy::outstandingDemandMisses(Cycle now)
{
    demandMisses_.pruneUpTo(now);
    return static_cast<unsigned>(demandMisses_.size());
}

unsigned
MemHierarchy::outstandingUselessMisses(Cycle now)
{
    uselessMisses_.pruneUpTo(now);
    return static_cast<unsigned>(uselessMisses_.size());
}

} // namespace cdfsim::mem
