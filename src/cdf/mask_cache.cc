#include "cdf/mask_cache.hh"

#include "common/logging.hh"

namespace cdfsim::cdf
{

MaskCache::MaskCache(const MaskCacheConfig &config, StatRegistry &stats)
    : config_(config),
      sets_(config.ways == 0 ? 0 : config.entries / config.ways),
      merges_(stats.counter("mask_cache.merges")),
      hits_(stats.counter("mask_cache.hits")),
      resets_(stats.counter("mask_cache.resets"))
{
    if (sets_ == 0)
        fatal("mask cache: zero sets");
    entries_.resize(config.entries);
}

std::optional<std::uint64_t>
MaskCache::lookup(Addr pc) const
{
    const Entry *base = &entries_[setOf(pc) * config_.ways];
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (base[w].valid && base[w].tag == pc) {
            ++hits_;
            return base[w].mask;
        }
    }
    return std::nullopt;
}

void
MaskCache::auditInvariants() const
{
    for (std::size_t set = 0; set < sets_; ++set) {
        const Entry *base = &entries_[set * config_.ways];
        for (unsigned w = 0; w < config_.ways; ++w) {
            const Entry &e = base[w];
            if (!e.valid)
                continue;
            SIM_ASSERT(setOf(e.tag) == set,
                       "mask cache entry tag hashes outside its set");
            SIM_ASSERT(e.lruTick <= tick_,
                       "mask cache LRU stamp ahead of the clock");
            for (unsigned v = w + 1; v < config_.ways; ++v) {
                SIM_ASSERT(!base[v].valid || base[v].tag != e.tag,
                           "duplicate valid mask cache tag within a set");
            }
        }
    }
}

void
MaskCache::merge(Addr pc, std::uint64_t mask)
{
    ++merges_;
    SIM_AUDIT_ONLY({
        if (audit_.due())
            auditInvariants();
    });
    Entry *base = &entries_[setOf(pc) * config_.ways];
    Entry *victim = base;
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (base[w].valid && base[w].tag == pc) {
            base[w].mask |= mask;
            base[w].lruTick = ++tick_;
            return;
        }
        if (!base[w].valid) {
            victim = &base[w];
        } else if (victim->valid && base[w].lruTick < victim->lruTick) {
            victim = &base[w];
        }
    }
    victim->valid = true;
    victim->tag = pc;
    victim->mask = mask;
    victim->lruTick = ++tick_;
}

void
MaskCache::remove(Addr pc)
{
    Entry *base = &entries_[setOf(pc) * config_.ways];
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (base[w].valid && base[w].tag == pc)
            base[w].valid = false;
    }
}

void
MaskCache::maybeReset(std::uint64_t retiredInstrs)
{
    if (retiredInstrs - lastReset_ >= config_.resetIntervalInstrs) {
        reset();
        lastReset_ = retiredInstrs;
    }
}

void
MaskCache::reset()
{
    ++resets_;
    for (auto &e : entries_)
        e.valid = false;
}

} // namespace cdfsim::cdf
