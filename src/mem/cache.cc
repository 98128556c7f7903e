#include "mem/cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cdfsim::mem
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheConfig &config, StatRegistry &stats)
    : size_(config.sizeBytes),
      ways_(config.ways),
      latency_(config.latency),
      sets_(config.ways == 0
                ? 0
                : config.sizeBytes / (kLineBytes * config.ways)),
      setMask_(sets_ - 1),
      mshrCap_(config.mshrs),
      accesses_(stats.counter(config.name + ".accesses")),
      hits_(stats.counter(config.name + ".hits")),
      misses_(stats.counter(config.name + ".misses")),
      writebacks_(stats.counter(config.name + ".writebacks")),
      mshrStalls_(stats.counter(config.name + ".mshr_stalls")),
      prefIssued_(stats.counter(config.name + ".pref_fills")),
      prefUseful_(stats.counter(config.name + ".pref_useful")),
      prefUnused_(stats.counter(config.name + ".pref_evicted_unused"))
{
    if (sets_ == 0 || !isPow2(sets_))
        fatal("cache '", config.name, "': set count ", sets_,
              " must be a nonzero power of two");
    if (mshrCap_ == 0)
        fatal("cache '", config.name, "' needs at least one MSHR");
    tags_.resize(sets_ * ways_);
}

const Cache::Way *
Cache::findLine(Addr line) const
{
    const Way *base = &tags_[setIndex(line) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].lineAddr == line)
            return &base[w];
    }
    return nullptr;
}

Cache::Way *
Cache::findLineAndVictim(Addr line, Way *&victim)
{
    Way *base = &tags_[setIndex(line) * ways_];
    Way *firstInvalid = nullptr;
    Way *lruMin = base;
    for (unsigned w = 0; w < ways_; ++w) {
        Way &cand = base[w];
        if (!cand.valid) {
            if (!firstInvalid)
                firstInvalid = &cand;
            continue;
        }
        if (cand.lineAddr == line) {
            victim = nullptr; // hit: no victim needed
            return &cand;
        }
        if (cand.lru < lruMin->lru)
            lruMin = &cand;
    }
    // Same choice the standalone victim scan made: the first invalid
    // way wins, else the first way holding the minimum LRU stamp
    // (lruMin starts at way 0 and only moves on strict <).
    victim = firstInvalid ? firstInvalid : lruMin;
    return nullptr;
}

void
Cache::touch(Way &way)
{
    way.lru = ++lruClock_;
}

bool
Cache::probe(Addr addr) const
{
    return findLine(lineAlign(addr)) != nullptr;
}

void
Cache::invalidate(Addr addr)
{
    const Addr line = lineAlign(addr);
    Way *base = &tags_[setIndex(line) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].lineAddr == line) {
            base[w].valid = false;
            return;
        }
    }
}

void
Cache::markDirty(Addr addr)
{
    const Addr line = lineAlign(addr);
    Way *base = &tags_[setIndex(line) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].lineAddr == line) {
            base[w].dirty = true;
            return;
        }
    }
}

} // namespace cdfsim::mem
