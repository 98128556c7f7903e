#include "cdf/critical_table.hh"

#include "common/logging.hh"

namespace cdfsim::cdf
{

CriticalCountTable::CriticalCountTable(const CriticalTableConfig &config,
                                       StatRegistry &stats,
                                       const std::string &name)
    : config_(config),
      sets_(config.ways == 0 ? 0 : config.entries / config.ways),
      updates_(stats.counter(name + ".updates")),
      allocations_(stats.counter(name + ".allocations"))
{
    if (sets_ == 0)
        fatal("critical count table '", name, "': zero sets");
    entries_.resize(config.entries);
    for (auto &e : entries_) {
        e.strict = SatCounter(config.strictBits);
        e.permissive = SatCounter(config.permissiveBits);
    }
}

const CriticalCountTable::Entry *
CriticalCountTable::find(Addr pc) const
{
    const Entry *base = &entries_[setOf(pc) * config_.ways];
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (base[w].valid && base[w].tag == pc)
            return &base[w];
    }
    return nullptr;
}

CriticalCountTable::Entry &
CriticalCountTable::findOrAllocate(Addr pc)
{
    Entry *base = &entries_[setOf(pc) * config_.ways];
    Entry *victim = base;
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (base[w].valid && base[w].tag == pc)
            return base[w];
        if (!base[w].valid) {
            victim = &base[w];
        } else if (victim->valid && base[w].lruTick < victim->lruTick) {
            victim = &base[w];
        }
    }
    ++allocations_;
    victim->valid = true;
    victim->tag = pc;
    victim->strict = SatCounter(config_.strictBits);
    victim->permissive = SatCounter(config_.permissiveBits);
    return *victim;
}

void
CriticalCountTable::auditInvariants() const
{
    for (std::size_t set = 0; set < sets_; ++set) {
        const Entry *base = &entries_[set * config_.ways];
        for (unsigned w = 0; w < config_.ways; ++w) {
            const Entry &e = base[w];
            if (!e.valid)
                continue;
            SIM_ASSERT(setOf(e.tag) == set,
                       "CCT entry tag hashes outside its set");
            SIM_ASSERT(e.lruTick <= tick_,
                       "CCT entry LRU stamp ahead of the clock");
            for (unsigned v = w + 1; v < config_.ways; ++v) {
                SIM_ASSERT(!base[v].valid || base[v].tag != e.tag,
                           "duplicate valid CCT tag within a set");
            }
        }
    }
}

void
CriticalCountTable::update(Addr pc, bool negativeEvent)
{
    ++updates_;
    SIM_AUDIT_ONLY({
        if (audit_.due())
            auditInvariants();
    });
    Entry &e = findOrAllocate(pc);
    e.lruTick = ++tick_;
    if (negativeEvent) {
        e.strict.increment(config_.missInc);
        e.permissive.increment(config_.missInc);
    } else {
        e.strict.decrement(config_.hitDec);
        e.permissive.decrement(config_.hitDec);
    }
}

bool
CriticalCountTable::isCritical(Addr pc) const
{
    return isCriticalUnder(pc, mode_);
}

bool
CriticalCountTable::isCriticalUnder(Addr pc, ThresholdMode mode) const
{
    const Entry *e = find(pc);
    if (!e)
        return false;
    if (mode == ThresholdMode::Strict)
        return e->strict.value() >= config_.strictThreshold;
    return e->permissive.value() >= config_.permissiveThreshold;
}

} // namespace cdfsim::cdf
