/**
 * @file
 * Frontend branch prediction facade: TAGE-SC-L direction prediction,
 * BTB target prediction and the return address stack, with exact
 * checkpoint/restore for mispredict recovery.
 *
 * In CDF mode the *critical* fetch logic owns prediction: every
 * branch is predicted exactly once while fetching critical uops and
 * the outcome is pushed into the Delayed Branch Queue; the regular
 * fetch stream replays those stored predictions (Section 3.3). This
 * facade is therefore deliberately stateless across calls except for
 * the predictor structures themselves.
 */

#ifndef CDFSIM_BP_PREDICTOR_HH
#define CDFSIM_BP_PREDICTOR_HH

#include "bp/btb.hh"
#include "bp/tage.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/uop.hh"

namespace cdfsim::bp
{

/** Full prediction for one fetched branch uop. */
struct BranchPrediction
{
    bool taken = false;
    Addr target = 0;          //!< next PC to fetch
    bool btbMiss = false;     //!< target resolved late -> fetch bubble
    TagePredictionInfo tageInfo;
};

/**
 * Snapshot for exact recovery, plus the record the branch trains
 * with at resolution. Only the CDF critical fetch stores its
 * prediction's record here; every other branch trains with the
 * empty one the checkpoint starts with.
 */
struct BpCheckpoint
{
    TageCheckpoint tage;
    Ras::Snapshot ras;
    TagePredictionInfo info;

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(tage, ras, info);
    }

    SIM_SNAPSHOT_FIELDS(3);
};

/** Predictor configuration. */
struct PredictorConfig
{
    TageConfig tage{};
    std::size_t btbEntries = 4096;
    std::size_t rasDepth = 32;

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(named("tage", tage), named("btb_entries", btbEntries),
           named("ras_depth", rasDepth));
    }

    SIM_SNAPSHOT_FIELDS(3);
};

/** The frontend predictor bundle. */
class BranchPredictor
{
  public:
    BranchPredictor(const PredictorConfig &config, StatRegistry &stats);

    BranchPredictor(const BranchPredictor &) = delete;
    BranchPredictor &operator=(const BranchPredictor &) = delete;

    /** Snapshot speculative state; take this *before* predict(). */
    BpCheckpoint checkpoint() const;

    /** checkpoint() into @p ckpt in place, leaving its info alone. */
    void checkpointInto(BpCheckpoint &ckpt) const;

    /**
     * Predict the branch uop at @p pc. Updates speculative history
     * and the RAS.
     */
    BranchPrediction predict(Addr pc, const isa::Uop &uop);

    /** Train with the resolved outcome. */
    void update(Addr pc, const isa::Uop &uop, bool taken, Addr target,
                const TagePredictionInfo &info);

    /** Restore speculative state after a mispredict. */
    void recover(const BpCheckpoint &ckpt, bool actualTaken,
                 Addr pc);

    /**
     * Restore state exactly as checkpointed (no outcome re-insert);
     * used when the checkpointed branch itself is squashed, e.g. a
     * memory-order or CDF dependence-violation flush, or runahead
     * exit.
     */
    void restore(const BpCheckpoint &ckpt);

    Tage &tage() { return tage_; }

    /** Snapshot every predictor structure. */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(tage_, btb_, ras_);
    }

  private:
    SIM_SNAPSHOT_FIELDS(5);

    Tage tage_;
    Btb btb_;
    Ras ras_;
    std::uint64_t &condPredictions_;
    std::uint64_t &rasPredictions_;
};

} // namespace cdfsim::bp

#endif // CDFSIM_BP_PREDICTOR_HH
