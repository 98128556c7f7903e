#include "cdf/uop_cache.hh"

#include "common/logging.hh"

namespace cdfsim::cdf
{

CriticalUopCache::CriticalUopCache(const UopCacheConfig &config,
                                   StatRegistry &stats)
    : config_(config),
      hits_(stats.counter("uop_cache.hits")),
      misses_(stats.counter("uop_cache.misses")),
      missesNotReady_(stats.counter("uop_cache.misses_not_ready")),
      fills_(stats.counter("uop_cache.fills")),
      evictions_(stats.counter("uop_cache.evictions"))
{
    if (config_.capacityLines == 0)
        fatal("critical uop cache: zero capacity");
}

const SharedTrace &
CriticalUopCache::lookup(Addr pc, Cycle now)
{
    static const SharedTrace kMiss;
    auto it = traces_.find(pc);
    if (it == traces_.end() || (*it->second)->readyCycle > now) {
        ++misses_;
        if (it != traces_.end())
            ++missesNotReady_;
        return kMiss;
    }
    ++hits_;
    // Move to MRU position.
    lru_.splice(lru_.begin(), lru_, it->second);
    return *it->second;
}

bool
CriticalUopCache::contains(Addr pc) const
{
    return traces_.find(pc) != traces_.end();
}

void
CriticalUopCache::evictOne()
{
    SIM_ASSERT(!lru_.empty(), "evict from empty uop cache");
    const BbTrace &victim = *lru_.back();
    usedLines_ -= victim.lines();
    traces_.erase(victim.startPc);
    lru_.pop_back();
    ++evictions_;
}

void
CriticalUopCache::insert(BbTrace trace, Cycle now)
{
    trace.readyCycle = now + config_.fillLatency;
    trace.criticalMask = 0;
    for (const TraceUop &tu : trace.uops) {
        if (tu.offsetInBlock < 64)
            trace.criticalMask |= std::uint64_t{1} << tu.offsetInBlock;
    }

    if (trace.lines() > config_.capacityLines)
        return; // pathological block; never cacheable

    auto it = traces_.find(trace.startPc);
    if (it != traces_.end()) {
        // Re-filling an already-resident identical trace must not
        // re-impose the fill latency: the resident copy stays
        // usable. Only a changed trace (different critical subset)
        // pays the latency again.
        const BbTrace &old = **it->second;
        bool same = old.blockLength == trace.blockLength &&
                    old.uops.size() == trace.uops.size();
        for (std::size_t i = 0; same && i < trace.uops.size(); ++i) {
            same = old.uops[i].offsetInBlock ==
                   trace.uops[i].offsetInBlock;
        }
        if (same) {
            lru_.splice(lru_.begin(), lru_, it->second);
            ++fills_;
            return;
        }
        usedLines_ -= (*it->second)->lines();
        lru_.erase(it->second);
        traces_.erase(it);
    }

    while (usedLines_ + trace.lines() > config_.capacityLines)
        evictOne();

    usedLines_ += trace.lines();
    lru_.push_front(std::make_shared<const BbTrace>(std::move(trace)));
    traces_[lru_.front()->startPc] = lru_.begin();
    ++fills_;
}

void
CriticalUopCache::remove(Addr pc)
{
    auto it = traces_.find(pc);
    if (it == traces_.end())
        return;
    usedLines_ -= (*it->second)->lines();
    lru_.erase(it->second);
    traces_.erase(it);
}

} // namespace cdfsim::cdf
