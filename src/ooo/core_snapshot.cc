/**
 * @file
 * Complete snapshot/restore of the out-of-order core, plus the
 * rename-map audit walk that restore leans on.
 *
 * Core::fields() is the one field list for both directions: driven
 * by a SnapWriter it saves, driven by a SnapReader it restores.
 * Its order mirrors the member declaration order of ooo::Core, with
 * one deliberate exception: the branch-checkpoint and in-flight slab
 * pools come FIRST so restore can re-materialize every checkpoint
 * and DynInst before anything that references them by pool handle
 * is decoded. The one wrong-path walker and the two trace cursors
 * (critical fetch, PRE chain fetch) travel whole, live or idle. A
 * snapshot is taken between ticks, so state that lives only inside
 * a tick (the deferred violations, the squash's oldest checkpoint)
 * is not a member and never on the wire. Host-only measurement
 * state (stage profile, idle-skip bookkeeping, the squash scratch
 * buffer) is excluded, which keeps the payload independent of the
 * profileStages/skipIdleCycles host knobs; those counters are reset
 * to zero on restore. The audit samplers' call counts do travel, so
 * a restored Audit run walks at the same operations as a cold one;
 * other builds never tick them and save zeros. The stat registry is
 * snapshotted by the owning Simulator, never here.
 */

#include <cstdint>

#include "common/logging.hh"
#include "ooo/core.hh"

namespace cdfsim::ooo
{

namespace
{

/** Presence echo for the config-gated CDF/PRE components: the
 *  snapshot records whether each unique_ptr existed, and restore
 *  asserts the receiving core made the same construction decisions
 *  (guaranteed when configs match, as the warmup key enforces). */
template <typename Ar, typename... T>
void
presence(Ar &ar, const std::unique_ptr<T> &...ps)
{
    const auto echo = [&ar](bool present) {
        bool had = present;
        ar(had);
        SIM_ASSERT(had == present,
                   "snapshot/core disagree on optional component "
                   "presence (config mismatch?)");
    };
    (echo(ps != nullptr), ...);
}

/** The contents of each present component, in argument order. */
template <typename Ar, typename... T>
void
ifPresent(Ar &ar, const std::unique_ptr<T> &...ps)
{
    ((ps ? ar(*ps) : void()), ...);
}

} // namespace

std::uint32_t
Core::encInst(const DynInst *inst) const
{
    return inst ? inst->poolIdx : kNoInst;
}

DynInst *
Core::decInst(std::uint32_t idx)
{
    if (idx == kNoInst)
        return nullptr;
    SIM_ASSERT(inflightPool_.alive(idx),
               "snapshot references dead pool slot ", idx);
    return &inflightPool_.at(idx);
}

template <typename Ar>
void
Core::fields(Ar &ar)
{
    // A DynInst* travels as its in-flight pool handle.
    const auto inst = [this](Ar &a, DynInst *&p) {
        std::uint32_t idx = encInst(p);
        a(idx);
        if constexpr (Ar::kLoading)
            p = decInst(idx);
    };

    // Functional front, memory system, predictors, rename state.
    ar(oracle_, walker_, mem_, bp_, prf_, rat_, critRat_);

    // The pools before anything that references them.
    ar(bpCkptPool_, inflightPool_, inflightHead_, inflightTail_);

    // Backend containers (pool handles).
    rob_.fields(ar, inst);
    lsq_.lq().fields(ar, inst);
    lsq_.sq().fields(ar, inst);
    rs_.fields(ar, inst);

    std::uint64_t numRegs = regWaiters_.size();
    ar(numRegs);
    SIM_ASSERT(numRegs == regWaiters_.size(),
               "snapshot phys reg count differs from this core's");
    for (auto &waiters : regWaiters_)
        ar(sized<std::uint32_t>(waiters));

    frontQ_.fields(ar, inst);
    critQ_.fields(ar, inst);
    ar(sized<std::uint32_t>(pendingStores_, inst));

    // The completion min-heap, layout-verbatim: restoring the vector
    // in order reproduces the identical heap array, so same-cycle
    // pop order (which feeds predictor updates) is preserved.
    ar(sized<std::uint32_t>(completions_,
                            [&](Ar &a, CompletionEvent &e) {
                                a(e.when);
                                inst(a, e.inst);
                            }));

    // Frontend scalars.
    ar(now_, fetchSeqCounter_, nextFetchTs_, wrongPath_, wrongPathPc_,
       wrongPathTs_, fetchStallUntil_, lastFetchLine_, fetchDoneHalt_,
       nextRetireTs_, halted_, lastRetireCycle_, retiredInstrs_,
       fetchAtBbStart_, fetchBbStartPc_, fetchBbOffset_,
       retirePrevWasBranch_);

    // CDF components (presence echoes first, then contents).
    presence(ar, loadCct_, branchCct_, maskCache_, uopCache_,
             fillBuffer_, parts_[kRob], parts_[kLq], parts_[kSq], dbq_,
             cmq_);
    ifPresent(ar, loadCct_, branchCct_, maskCache_, uopCache_,
              fillBuffer_, parts_[kRob], parts_[kLq], parts_[kSq], dbq_,
              cmq_);

    // CDF scalars and queues.
    ar(cdfMode_, cdfDraining_, cdfCooldownUntil_, critRatCopied_,
       cdfStartTs_, regRenamedThroughTs_, crit_, critFetchBaseTs_,
       critOnPath_, regNextTs_, regWrongPath_, critCoveredUpTo_,
       critWpNextTs_, critWpBbBase_, sized<std::uint32_t>(bbInfoQ_),
       sized<std::uint32_t>(wpRecords_), wpConsumeIdx_, critWpStuck_);

    // PRE machinery. raTaint_ is a bitset<kNumArchRegs>: one u64.
    presence(ar, stallTable_);
    ifPresent(ar, stallTable_);
    ar(raActive_, raEndCycle_, ra_, sized<std::uint32_t>(raBbRecs_),
       raTaint_, raBpCkpt_, raChainLoads_, raEpisodeLoads_,
       sized<std::uint32_t>(lastRetiredLoadAddr_), stallStartCycle_,
       stallCounting_);
    SIM_ASSERT(lastRetiredLoadAddr_.size() ==
                   (config_.mode == CoreMode::Pre ? oracle_.program().size()
                                                  : 0),
               "snapshot PRE load-address table does not match this "
               "core's program");

    // Measurement accounting that feeds result(). The stage profile
    // and skip bookkeeping are host-only and excluded by design.
    ar(measureStartCycle_, measureStartRetired_, mlpWhenActive_,
       uselessMlpWhenActive_, fig1CriticalFrac_, fullWindowStallCycles_,
       cdfModeCycles_);
    ar(rsAudit_, renameAudit_, lsqRobAudit_, bpCkptAudit_);

    if constexpr (Ar::kLoading) {
        // Host-only measurement state: reset rather than restored.
        // The idle-skip rate limiter restarts at "recheck
        // immediately", which is stat-transparent (skip decisions
        // never touch the registry).
        profile_ = StageProfile{};
        skippedCycles_ = 0;
        skipEvents_ = 0;
        skipRecheckAt_ = 0;

        SIM_AUDIT_ONLY({
            auditRenameMaps();
            auditBpCheckpoints();
        })
    }
}

template void Core::fields(SnapWriter &);
template void Core::fields(SnapReader &);

void
Core::auditRenameMaps() const
{
    std::vector<std::uint8_t> seen(prf_.size(), 0);
    for (RegId a = 0; a < kNumArchRegs; ++a) {
        const RegId p = rat_.lookup(a);
        SIM_ASSERT(p < prf_.size(),
                   "regular RAT maps arch reg ", a,
                   " to out-of-range phys reg ", p);
        SIM_ASSERT(!seen[p],
                   "regular RAT maps two arch regs to phys reg ", p);
        seen[p] = 1;
    }
    for (RegId p : prf_.freeRegs()) {
        SIM_ASSERT(p < prf_.size(),
                   "free list holds out-of-range phys reg ", p);
        SIM_ASSERT(!seen[p],
                   "phys reg ", p,
                   " is both RAT-mapped and on the free list");
    }
    if (critRatCopied_) {
        std::vector<std::uint8_t> critSeen(prf_.size(), 0);
        for (RegId a = 0; a < kNumArchRegs; ++a) {
            const RegId p = critRat_.lookup(a);
            SIM_ASSERT(p < prf_.size(),
                       "critical RAT maps arch reg ", a,
                       " to out-of-range phys reg ", p);
            SIM_ASSERT(!critSeen[p],
                       "critical RAT maps two arch regs to phys reg ",
                       p);
            critSeen[p] = 1;
        }
    }
}

} // namespace cdfsim::ooo
