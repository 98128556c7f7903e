#include "bp/tage.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/audit.hh"
#include "common/logging.hh"

namespace cdfsim::bp
{

namespace
{

/**
 * @p c, once every geometry knob is in range: the log2 sizes feed
 * shifts and allocations, the widths fit the entry fields, and the
 * history lengths fit the History bitset. Each knob is a spec key,
 * so a bad value is a config error naming it.
 */
const TageConfig &
checked(const TageConfig &c)
{
    const auto inRange = [](const char *key, unsigned v, unsigned lo,
                            unsigned hi) {
        if (v < lo || v > hi) {
            fatal("bp.tage.", key, " (", v, ") is outside [", lo, ", ",
                  hi, "]");
        }
    };
    inRange("num_tables", c.numTables, 1, kMaxTageTables);
    inRange("table_bits_log2", c.tableBitsLog2, 1, 20);
    inRange("tag_bits", c.tagBits, 1, 16);
    inRange("counter_bits", c.counterBits, 1, 8);
    inRange("useful_bits", c.usefulBits, 0, 8);
    inRange("max_history", c.maxHistory, 1, History().size());
    inRange("min_history", c.minHistory, 1, c.maxHistory);
    inRange("bimodal_bits_log2", c.bimodalBitsLog2, 1, 24);
    inRange("loop_entries", c.loopEntries, 1, kMaxLoopEntries);
    inRange("sc_entries_log2", c.scEntriesLog2, 1, 20);
    return c;
}

} // namespace

Tage::Tage(const TageConfig &config, StatRegistry &stats)
    : config_(checked(config)),
      bimodal_(std::size_t{1} << config.bimodalBitsLog2, 2),
      loops_(config.loopEntries),
      scTable_(std::size_t{1} << config.scEntriesLog2, 0),
      lookups_(stats.counter("tage.lookups")),
      scFlips_(stats.counter("tage.sc_flips")),
      loopPredictions_(stats.counter("tage.loop_predictions"))
{
    // Geometric history length series between min and max.
    histLengths_.resize(config_.numTables);
    const double ratio =
        config_.numTables == 1
            ? 1.0
            : std::pow(static_cast<double>(config_.maxHistory) /
                           config_.minHistory,
                       1.0 / (config_.numTables - 1));
    double len = config_.minHistory;
    for (unsigned t = 0; t < config_.numTables; ++t) {
        histLengths_[t] = std::max<unsigned>(
            1, static_cast<unsigned>(len + 0.5));
        len *= ratio;
    }
    tables_.assign(config_.numTables,
                   std::vector<TaggedEntry>(std::size_t{1}
                                            << config_.tableBitsLog2));

    for (unsigned t = 0; t < config_.numTables; ++t) {
        folds_[3 * t].configure(histLengths_[t],
                                config_.tableBitsLog2);
        folds_[3 * t + 1].configure(histLengths_[t], config_.tagBits);
        folds_[3 * t + 2].configure(histLengths_[t],
                                    config_.tagBits > 2
                                        ? config_.tagBits - 1
                                        : config_.tagBits);
    }
    folds_[3 * config_.numTables].configure(64, 16);
}

void
Tage::FoldedHistory::configure(unsigned len, unsigned b)
{
    SIM_ASSERT(b > 0 && b <= 32, "bad fold width");
    length = std::min<unsigned>(len, 256);
    bits = b;
    nFull = (length / bits) * bits;
    rem = length - nFull;
    full = 0;
    partial = 0;
}

void
Tage::FoldedHistory::shiftIn(const History &old, bool newest)
{
    // foldHistory() folds the history newest-first, MSB-first within
    // each chunk: bit i lands at position (bits-1 - i%bits) of its
    // chunk, and the trailing rem bits at (rem-1 - (i-nFull)). When
    // a bit shifts in, every folded bit moves one position down its
    // chunk, the bit at a chunk's position 0 wraps to position
    // bits-1 of the NEXT chunk, and the oldest folded bit drops out.
    // On the XOR of full chunks that is a rotate plus two fix-ups.
    std::uint32_t incoming = newest ? 1u : 0u;
    if (nFull > 0) {
        const std::uint32_t outgoing = old[nFull - 1] ? 1u : 0u;
        full = (full >> 1) | ((full & 1u) << (bits - 1));
        full ^= (incoming ^ outgoing) << (bits - 1);
        incoming = outgoing;
    }
    if (rem > 0)
        partial = (partial >> 1) ^ (incoming << (rem - 1));
}

void
Tage::shiftFolds(bool taken)
{
    const unsigned n = numFolds();
    for (unsigned i = 0; i < n; ++i)
        folds_[i].shiftIn(history_, taken);
}

bool
Tage::checkFolds() const
{
    const unsigned n = numFolds();
    for (unsigned i = 0; i < n; ++i) {
        const FoldedHistory &f = folds_[i];
        if (f.value() != foldHistory(f.length, f.bits))
            return false;
    }
    return true;
}

std::uint64_t
Tage::foldHistory(unsigned length, unsigned bits) const
{
    SIM_ASSERT(bits > 0 && bits <= 32, "bad fold width");
    std::uint64_t folded = 0;
    std::uint64_t chunk = 0;
    unsigned inChunk = 0;
    const unsigned limit = std::min<unsigned>(length, 256);
    for (unsigned i = 0; i < limit; ++i) {
        chunk = (chunk << 1) | (history_[i] ? 1u : 0u);
        if (++inChunk == bits) {
            folded ^= chunk;
            chunk = 0;
            inChunk = 0;
        }
    }
    folded ^= chunk;
    return folded & ((std::uint64_t{1} << bits) - 1);
}

unsigned
Tage::tableIndex(Addr pc, unsigned table) const
{
    const unsigned bits = config_.tableBitsLog2;
    const std::uint64_t h = folds_[3 * table].value();
    const std::uint64_t mix =
        pc ^ (pc >> bits) ^ h ^ (pathHistory_ & 0xFFFF) ^
        (static_cast<std::uint64_t>(table) << 3);
    return static_cast<unsigned>(mix & ((1u << bits) - 1));
}

std::uint16_t
Tage::tableTag(Addr pc, unsigned table) const
{
    const unsigned bits = config_.tagBits;
    const std::uint64_t h = folds_[3 * table + 1].value();
    const std::uint64_t h2 = folds_[3 * table + 2].value();
    const std::uint64_t mix = pc ^ (pc >> 5) ^ h ^ (h2 << 1);
    return static_cast<std::uint16_t>(mix & ((1u << bits) - 1));
}

void
Tage::pushHistory(bool taken, Addr pc)
{
    shiftFolds(taken); // needs the pre-shift history
    history_ <<= 1;
    history_[0] = taken;
    pathHistory_ = (pathHistory_ << 1) ^
                   (static_cast<std::uint32_t>(pc) & 0x3F);
}

Tage::LoopEntry *
Tage::loopLookup(Addr pc)
{
    const std::uint16_t tag =
        static_cast<std::uint16_t>(pc ^ (pc >> 7));
    auto &e = loops_[pc % loops_.size()];
    if (e.valid && e.tag == tag)
        return &e;
    return nullptr;
}

TagePredictionInfo
Tage::predict(Addr pc)
{
    ++lookups_;
    // Folded-history drift check: the incrementally maintained folds
    // must match a from-scratch recompute of the same history. Run
    // at a sampled cadence — the naive recompute is O(history bits)
    // per fold and would dominate an every-prediction audit.
    SIM_AUDIT_ONLY(if (foldAudit_.due()) {
        SIM_AUDIT(checkFolds(),
                  "tage folded history diverged from naive recompute");
    })
    TagePredictionInfo info;

    // Bimodal fallback.
    auto &bim =
        bimodal_[pc & ((std::size_t{1} << config_.bimodalBitsLog2) - 1)];
    bool pred = bim >= 2;
    bool alt = pred;
    int provider = -1;
    bool providerWeak = true;

    // Stash the indices/tags this lookup uses: update time must
    // address exactly these entries.
    for (unsigned t = 0; t < config_.numTables; ++t) {
        info.indices[t] = tableIndex(pc, t);
        info.tags[t] = tableTag(pc, t);
    }

    // Longest-history tagged match wins; next match is the altpred.
    bool sawProvider = false;
    for (int t = static_cast<int>(config_.numTables) - 1; t >= 0; --t) {
        const TaggedEntry &e = tables_[t][info.indices[t]];
        if (e.tag == info.tags[t]) {
            if (!sawProvider) {
                sawProvider = true;
                provider = t;
                pred = e.ctr >= 0;
                providerWeak = e.ctr == 0 || e.ctr == -1;
                alt = pred;
            } else {
                alt = e.ctr >= 0;
                break;
            }
        }
    }

    info.tageTaken = pred;
    info.providerTable = provider;
    info.providerWeak = providerWeak;
    info.altTaken = alt;

    // Loop predictor overrides when highly confident. Prediction
    // uses the SPECULATIVE iteration count (advanced here, restored
    // on recovery): many instances of the branch can be in flight,
    // so the architectural count is stale at predict time.
    if (LoopEntry *loop = loopLookup(pc)) {
        if (loop->confidence >= config_.loopConfidenceMax &&
            loop->tripCount > 0) {
            info.loopUsed = true;
            info.loopIndex = static_cast<unsigned>(pc % loops_.size());
            // Taken while fewer than tripCount takens have occurred
            // since the last exit; the exit instance falls through.
            pred = loop->specIter < loop->tripCount;
            ++loopPredictions_;
        }
        if (pred)
            ++loop->specIter;
        else
            loop->specIter = 0;
    }

    // Statistical corrector: flip weak TAGE predictions when the SC
    // counter strongly disagrees.
    if (!info.loopUsed && providerWeak) {
        const std::uint32_t scIdx = static_cast<std::uint32_t>(
            (pc ^ folds_[3 * config_.numTables].value() ^
             (pred ? 0x55AA : 0)) &
            ((std::uint32_t{1} << config_.scEntriesLog2) - 1));
        info.scUsed = true;
        info.scIndex = scIdx;
        const int sc = scTable_[scIdx];
        if (static_cast<unsigned>(std::abs(sc)) >= config_.scThreshold &&
            (sc >= 0) != pred) {
            pred = sc >= 0;
            ++scFlips_;
        }
    }

    info.taken = pred;
    pushHistory(pred, pc);
    return info;
}

TageCheckpoint
Tage::checkpoint() const
{
    TageCheckpoint c;
    checkpointInto(c);
    return c;
}

void
Tage::checkpointInto(TageCheckpoint &c) const
{
    c.history = history_;
    c.pathHistory = pathHistory_;
    for (std::size_t i = 0; i < loops_.size(); ++i)
        c.loopSpecIters[i] = loops_[i].specIter;
    const unsigned n = numFolds();
    for (unsigned i = 0; i < n; ++i) {
        c.folds[2 * i] = folds_[i].full;
        c.folds[2 * i + 1] = folds_[i].partial;
    }
}

void
Tage::recover(const TageCheckpoint &ckpt, bool actualTaken, Addr pc)
{
    restore(ckpt);
    // The recovering branch itself resolved: re-insert its real
    // outcome. (The checkpoint was taken before its prediction.)
    shiftFolds(actualTaken);
    history_ <<= 1;
    history_[0] = actualTaken;
    pathHistory_ <<= 1;
    if (LoopEntry *loop = loopLookup(pc)) {
        if (actualTaken)
            ++loop->specIter;
        else
            loop->specIter = 0;
    }
}

void
Tage::restore(const TageCheckpoint &ckpt)
{
    history_ = ckpt.history;
    pathHistory_ = ckpt.pathHistory;
    for (std::size_t i = 0; i < loops_.size(); ++i)
        loops_[i].specIter = ckpt.loopSpecIters[i];
    const unsigned n = numFolds();
    for (unsigned i = 0; i < n; ++i) {
        folds_[i].full = ckpt.folds[2 * i];
        folds_[i].partial = ckpt.folds[2 * i + 1];
    }
}

void
Tage::loopUpdate(Addr pc, bool taken, const TagePredictionInfo &info)
{
    const std::uint16_t tag =
        static_cast<std::uint16_t>(pc ^ (pc >> 7));
    auto &e = loops_[pc % loops_.size()];
    if (!e.valid || e.tag != tag) {
        if (!taken)
            return; // only track loops on their backward-taken edge
        e.valid = true;
        e.tag = tag;
        e.tripCount = 0;
        e.currentIter = 1;
        e.confidence = 0;
        return;
    }

    if (taken) {
        ++e.currentIter;
        if (e.tripCount != 0 && e.currentIter > e.tripCount) {
            // Ran longer than the learned trip count: unlearn.
            e.confidence = 0;
            e.tripCount = 0;
        }
        return;
    }

    // Loop exit: does the trip count repeat?
    if (e.tripCount == e.currentIter) {
        if (e.confidence < config_.loopConfidenceMax)
            ++e.confidence;
    } else {
        e.tripCount = e.currentIter;
        e.confidence = info.loopUsed ? 0 : 1;
        e.specIter = 0; // resync speculation on a trip-count change
    }
    e.currentIter = 0;
}

void
Tage::update(Addr pc, bool taken, const TagePredictionInfo &info)
{
    auto bump = [](std::int8_t &ctr, bool up, int lo, int hi) {
        if (up && ctr < hi)
            ++ctr;
        else if (!up && ctr > lo)
            --ctr;
    };

    const int ctrMax = (1 << (config_.counterBits - 1)) - 1;
    const int ctrMin = -(1 << (config_.counterBits - 1));

    // Provider update.
    if (info.providerTable >= 0) {
        TaggedEntry &e =
            tables_[info.providerTable]
                   [info.indices[info.providerTable]];
        bump(e.ctr, taken, ctrMin, ctrMax);
        if (info.tageTaken != info.altTaken) {
            if (info.tageTaken == taken) {
                if (e.useful < ((1u << config_.usefulBits) - 1))
                    ++e.useful;
            } else if (e.useful > 0) {
                --e.useful;
            }
        }
    } else {
        auto &bim = bimodal_[pc & ((std::size_t{1}
                                    << config_.bimodalBitsLog2) - 1)];
        if (taken && bim < 3)
            ++bim;
        else if (!taken && bim > 0)
            --bim;
    }

    // Allocate a longer-history entry on a TAGE mispredict.
    if (info.tageTaken != taken &&
        info.providerTable <
            static_cast<int>(config_.numTables) - 1) {
        for (unsigned t = info.providerTable + 1; t < config_.numTables;
             ++t) {
            TaggedEntry &e = tables_[t][info.indices[t]];
            if (e.useful == 0) {
                e.tag = info.tags[t];
                e.ctr = taken ? 0 : -1;
                break;
            }
            // Aging: periodically decay useful bits so allocation
            // cannot be starved forever.
            if ((++allocTick_ & 0xFF) == 0 && e.useful > 0)
                --e.useful;
        }
    }

    // Statistical corrector training.
    if (info.scUsed) {
        std::int8_t &sc = scTable_[info.scIndex];
        if (taken && sc < 31)
            ++sc;
        else if (!taken && sc > -32)
            --sc;
    }

    loopUpdate(pc, taken, info);
}

std::uint64_t
Tage::historyHash(unsigned bits) const
{
    return foldHistory(64, bits);
}

} // namespace cdfsim::bp
