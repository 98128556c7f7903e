/**
 * @file
 * TAGE-SC-L-style conditional branch direction predictor.
 *
 * Structure follows Seznec's TAGE-SC-L (Table 1's predictor):
 *  - a bimodal base predictor,
 *  - N partially-tagged tables indexed with geometrically increasing
 *    global-history lengths,
 *  - a loop predictor for constant-trip-count loops,
 *  - a small statistical corrector that can flip low-confidence TAGE
 *    predictions when its own counters strongly disagree.
 *
 * History is maintained speculatively; the fetch stage checkpoints it
 * per in-flight branch and restores on mispredict recovery.
 */

#ifndef CDFSIM_BP_TAGE_HH
#define CDFSIM_BP_TAGE_HH

#include <array>
#include <bitset>
#include <cstdint>
#include <vector>

#include "common/audit.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace cdfsim::bp
{

/** Global-history register wide enough for the longest TAGE table. */
using History = std::bitset<256>;

/** Tunables for the TAGE-SC-L predictor. */
struct TageConfig
{
    unsigned numTables = 6;
    unsigned tableBitsLog2 = 10;       //!< entries per tagged table
    unsigned tagBits = 11;
    unsigned counterBits = 3;
    unsigned usefulBits = 2;
    unsigned minHistory = 4;
    unsigned maxHistory = 160;
    unsigned bimodalBitsLog2 = 13;
    unsigned loopEntries = 64;
    unsigned loopConfidenceMax = 3;
    unsigned scEntriesLog2 = 12;
    unsigned scThreshold = 5;          //!< |sum| needed to flip TAGE

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(named("num_tables", numTables),
           named("table_bits_log2", tableBitsLog2),
           named("tag_bits", tagBits), named("counter_bits", counterBits),
           named("useful_bits", usefulBits), named("min_history", minHistory),
           named("max_history", maxHistory),
           named("bimodal_bits_log2", bimodalBitsLog2),
           named("loop_entries", loopEntries),
           named("loop_confidence_max", loopConfidenceMax),
           named("sc_entries_log2", scEntriesLog2),
           named("sc_threshold", scThreshold));
    }

    SIM_SNAPSHOT_FIELDS(12);
};

/** Upper bound on tagged tables (for the per-prediction stash). */
inline constexpr unsigned kMaxTageTables = 12;

/** Upper bound on loop-predictor entries (for the checkpoint copy). */
inline constexpr unsigned kMaxLoopEntries = 64;

/** Incremental folds kept per tagged table (index, tag, tag's second
 *  hash) plus one for the statistical corrector. */
inline constexpr unsigned kMaxTageFolds = 3 * kMaxTageTables + 1;

/**
 * Everything needed to undo a speculative history update. A
 * checkpoint is taken per in-flight branch on the fetch hot path, so
 * it is a fixed-size value type: no heap allocation on copy.
 */
struct TageCheckpoint
{
    History history;
    std::uint32_t pathHistory = 0;
    /** Speculative loop-iteration counters (small table copy). */
    std::array<std::uint16_t, kMaxLoopEntries> loopSpecIters{};
    /** Saved (full, partial) pair per incremental history fold. */
    std::array<std::uint32_t, 2 * kMaxTageFolds> folds{};

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(history, pathHistory, loopSpecIters, folds);
    }

    SIM_SNAPSHOT_FIELDS(4);
};

/**
 * Per-prediction bookkeeping carried until update time. The table
 * indices and tags computed at prediction time are stashed here so
 * training and allocation address the entries the lookup actually
 * touched, regardless of how the speculative history has moved on.
 */
struct TagePredictionInfo
{
    bool taken = false;           //!< final (post-SC, post-loop) output
    bool tageTaken = false;       //!< raw TAGE output
    int providerTable = -1;       //!< -1 == bimodal provided
    bool providerWeak = false;
    bool altTaken = false;
    bool loopUsed = false;
    unsigned loopIndex = 0;
    bool scUsed = false;
    std::uint32_t scIndex = 0;
    std::array<unsigned, kMaxTageTables> indices{};
    std::array<std::uint16_t, kMaxTageTables> tags{};

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(taken, tageTaken, as<std::int64_t>(providerTable),
           providerWeak, altTaken, loopUsed, as<std::uint64_t>(loopIndex),
           scUsed, scIndex, indices, tags);
    }

    SIM_SNAPSHOT_FIELDS(11);
};

/** The direction predictor. */
class Tage
{
  public:
    Tage(const TageConfig &config, StatRegistry &stats);

    /**
     * Predict the direction of the conditional branch at @p pc and
     * speculatively update the history with the prediction.
     */
    TagePredictionInfo predict(Addr pc);

    /** Snapshot speculative state (taken before predict()). */
    TageCheckpoint checkpoint() const;

    /** checkpoint() into @p ckpt in place. Writes only the loop and
     *  fold entries this configuration uses; the rest of @p ckpt is
     *  left as it was (zero in a fresh checkpoint). */
    void checkpointInto(TageCheckpoint &ckpt) const;

    /** Restore state after a mispredict, then re-insert the actual
     *  outcome of the recovering branch at @p pc. */
    void recover(const TageCheckpoint &ckpt, bool actualTaken,
                 Addr pc);

    /** Restore exactly (the checkpointed branch is squashed too). */
    void restore(const TageCheckpoint &ckpt);

    /**
     * Train with the resolved outcome. @p info must be the structure
     * returned by predict() for this branch instance.
     */
    void update(Addr pc, bool taken, const TagePredictionInfo &info);

    /** Fold the running history for an external hash consumer. */
    std::uint64_t historyHash(unsigned bits) const;

    /** Recompute every incremental fold from scratch and compare
     *  against the maintained value (test hook). */
    bool checkFolds() const;

    /** Snapshot every table and the speculative history state.
     *  config_ and histLengths_ are construction-time constants; the
     *  warmup key guarantees the restoring predictor was built from
     *  the same config, so only mutable state is serialized. */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        for (auto &table : tables_) {
            for (TaggedEntry &e : table)
                ar(e.tag, e.ctr, e.useful);
        }
        ar(std::span(bimodal_));
        for (LoopEntry &e : loops_) {
            ar(e.valid, e.tag, e.tripCount, e.currentIter, e.specIter,
               e.confidence);
        }
        ar(std::span(scTable_), history_, pathHistory_, allocTick_);
        for (FoldedHistory &f : folds_)
            ar(f.full, f.partial, f.length, f.bits, f.nFull, f.rem);
        ar(foldAudit_);
    }

  private:
    struct TaggedEntry
    {
        std::uint16_t tag = 0;
        std::int8_t ctr = 0;       //!< signed: >=0 predicts taken
        std::uint8_t useful = 0;
    };

    struct LoopEntry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        std::uint16_t tripCount = 0;
        std::uint16_t currentIter = 0;  //!< architectural (at update)
        std::uint16_t specIter = 0;     //!< speculative (at predict)
        std::uint8_t confidence = 0;
    };

    /**
     * Incrementally-maintained fold of the newest-first global
     * history: the XOR of the full @c bits-wide chunks plus the
     * trailing partial chunk, kept separately so shifting one bit in
     * is O(1). Matches foldHistory() bit-for-bit; the naive fold
     * stays as the reference for external hashing and checkFolds().
     */
    struct FoldedHistory
    {
        std::uint32_t full = 0;     //!< XOR of complete chunks
        std::uint32_t partial = 0;  //!< trailing (length % bits) bits
        unsigned length = 0;        //!< history bits folded
        unsigned bits = 0;          //!< fold width
        unsigned nFull = 0;         //!< bits covered by full chunks
        unsigned rem = 0;           //!< width of the partial chunk

        void configure(unsigned len, unsigned b);
        std::uint64_t value() const { return full ^ partial; }
        /** Shift in @p newest given the history BEFORE the shift. */
        void shiftIn(const History &old, bool newest);
    };

    unsigned tableIndex(Addr pc, unsigned table) const;
    std::uint16_t tableTag(Addr pc, unsigned table) const;
    std::uint64_t foldHistory(unsigned length, unsigned bits) const;
    unsigned numFolds() const { return 3 * config_.numTables + 1; }
    void shiftFolds(bool taken);
    void pushHistory(bool taken, Addr pc);

    // Loop predictor helpers.
    LoopEntry *loopLookup(Addr pc);
    void loopUpdate(Addr pc, bool taken, const TagePredictionInfo &info);

    SIM_SNAPSHOT_FIELDS(14);

    TageConfig config_;
    std::vector<unsigned> histLengths_;
    std::vector<std::vector<TaggedEntry>> tables_;
    std::vector<std::uint8_t> bimodal_;
    std::vector<LoopEntry> loops_;
    std::vector<std::int8_t> scTable_;

    History history_;
    std::uint32_t pathHistory_ = 0;
    std::uint64_t allocTick_ = 0;
    /** Layout: [3t]=index fold, [3t+1]=tag, [3t+2]=tag's second
     *  hash for table t; [3 * numTables]=statistical corrector. */
    std::array<FoldedHistory, kMaxTageFolds> folds_;
    AuditSampler foldAudit_{4096};

    std::uint64_t &lookups_;
    std::uint64_t &scFlips_;
    std::uint64_t &loopPredictions_;
};

} // namespace cdfsim::bp

#endif // CDFSIM_BP_TAGE_HH
