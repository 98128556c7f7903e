/**
 * @file
 * Complete snapshot/restore of the out-of-order core, plus the
 * rename-map audit walk that restore leans on.
 *
 * Serialization order mirrors the member declaration order of
 * ooo::Core, with one deliberate exception: the branch-checkpoint
 * and in-flight slab pools are written FIRST so restore can
 * re-materialize every checkpoint and DynInst before anything that
 * references them by pool handle is decoded. Host-only measurement
 * state (stage profile, idle-skip bookkeeping, audit samplers, the
 * squash scratch buffer) is excluded, which keeps the payload
 * independent of the profileStages/skipIdleCycles host knobs; those
 * counters are reset to zero on restore. The stat registry is
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
template <typename T>
void
savePresence(SnapWriter &w, const std::unique_ptr<T> &p)
{
    w.b(p != nullptr);
}

template <typename T>
void
checkPresence(SnapReader &r, const std::unique_ptr<T> &p)
{
    const bool had = r.b();
    SIM_ASSERT(had == (p != nullptr),
               "snapshot/core disagree on optional component "
               "presence (config mismatch?)");
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

void
Core::saveState(SnapWriter &w) const
{
    const auto enc = [this](SnapWriter &sw, const DynInst *inst) {
        sw.u32(encInst(inst));
    };

    // Functional front: oracle, wrong-path walkers.
    oracle_.save(w);
    walker_.save(w);
    cdfWalker_.save(w);
    raWalker_.save(w);

    // Memory system and predictors.
    mem_.save(w);
    bp_.save(w);

    // Rename state.
    prf_.save(w);
    rat_.save(w);
    critRat_.save(w);

    // The pools before anything that references them.
    bpCkptPool_.save(w, [](SnapWriter &sw, const bp::BpCheckpoint &c) {
        bp::save(sw, c);
    });
    inflightPool_.save(
        w, [](SnapWriter &sw, const DynInst &d) { d.save(sw); });
    w.u32(inflightHead_);
    w.u32(inflightTail_);

    // Backend containers (pool handles).
    rob_.save(w, [&](const DynInst *i) { return encInst(i); });
    lsq_.save(w, [&](const DynInst *i) { return encInst(i); });
    rs_.save(w, [&](const DynInst *i) { return encInst(i); });

    w.u64(regWaiters_.size());
    for (const auto &waiters : regWaiters_) {
        w.u32(static_cast<std::uint32_t>(waiters.size()));
        for (const auto &[handle, seq] : waiters) {
            w.u32(handle);
            w.u64(seq);
        }
    }

    frontQ_.save(w, enc);
    critQ_.save(w, enc);

    w.u32(static_cast<std::uint32_t>(pendingStores_.size()));
    for (const DynInst *inst : pendingStores_)
        w.u32(encInst(inst));

    // The completion min-heap, layout-verbatim: restoring the vector
    // in order reproduces the identical heap array, so same-cycle
    // pop order (which feeds predictor updates) is preserved.
    w.u32(static_cast<std::uint32_t>(completions_.size()));
    for (const CompletionEvent &e : completions_) {
        w.u64(e.when);
        w.u32(encInst(e.inst));
    }

    // Frontend scalars.
    w.u64(now_);
    w.u64(fetchSeqCounter_);
    w.u64(nextFetchTs_);
    w.b(wrongPath_);
    w.u64(wrongPathPc_);
    w.u64(wrongPathTs_);
    w.u64(fetchStallUntil_);
    w.u64(lastFetchLine_);
    w.b(fetchDoneHalt_);
    w.u64(nextRetireTs_);
    w.b(halted_);
    w.u64(lastRetireCycle_);
    w.u64(retiredInstrs_);
    w.b(fetchAtBbStart_);
    w.u64(fetchBbStartPc_);
    w.u32(fetchBbOffset_);
    w.b(retirePrevWasBranch_);

    // CDF components (presence echoes first, then contents).
    savePresence(w, loadCct_);
    savePresence(w, branchCct_);
    savePresence(w, maskCache_);
    savePresence(w, uopCache_);
    savePresence(w, fillBuffer_);
    savePresence(w, robPart_);
    savePresence(w, lqPart_);
    savePresence(w, sqPart_);
    savePresence(w, dbq_);
    savePresence(w, cmq_);
    if (loadCct_)
        loadCct_->save(w);
    if (branchCct_)
        branchCct_->save(w);
    if (maskCache_)
        maskCache_->save(w);
    if (uopCache_)
        uopCache_->save(w);
    if (fillBuffer_)
        fillBuffer_->save(w);
    if (robPart_)
        robPart_->save(w);
    if (lqPart_)
        lqPart_->save(w);
    if (sqPart_)
        sqPart_->save(w);
    if (dbq_) {
        dbq_->save(w, [](SnapWriter &sw, const cdf::DbqEntry &e) {
            cdf::save(sw, e);
        });
    }
    if (cmq_) {
        cmq_->save(w, [](SnapWriter &sw, const cdf::CmqEntry &e) {
            cdf::save(sw, e);
        });
    }

    // CDF scalars and queues.
    w.b(cdfMode_);
    w.b(cdfDraining_);
    w.u64(cdfCooldownUntil_);
    w.b(critRatCopied_);
    w.u64(cdfStartTs_);
    w.u64(regRenamedThroughTs_);
    w.u64(critFetchPc_);
    w.u64(critFetchBaseTs_);
    w.b(critOnPath_);
    w.b(critTraceValid_);
    cdf::save(w, critTrace_);
    w.u32(critTraceIdx_);
    w.u64(critProcessedThroughTs_);
    w.u64(regNextTs_);
    w.b(regWrongPath_);
    w.u64(critCoveredUpTo_);
    w.u64(critWpNextTs_);
    w.u64(critWpBbBase_);

    criticalByTs_.save(w, [&](SnapWriter &sw, const DynInst *inst) {
        sw.u32(encInst(inst));
    });

    w.u32(static_cast<std::uint32_t>(bbInfoQ_.size()));
    for (const BbInfo &bb : bbInfoQ_) {
        w.u64(bb.baseTs);
        w.u32(bb.length);
        w.u64(bb.mask);
        w.u32(static_cast<std::uint32_t>(bb.highOffsets.size()));
        for (unsigned off : bb.highOffsets)
            w.u32(off);
    }

    w.u32(static_cast<std::uint32_t>(wpRecords_.size()));
    for (const WpRecord &wp : wpRecords_) {
        isa::save(w, wp.rec);
        w.u64(wp.ts);
        w.b(wp.critical);
    }
    w.u64(wpConsumeIdx_);

    w.u32(static_cast<std::uint32_t>(dbqCkpts_.size()));
    for (const DbqCheckpoint &c : dbqCkpts_) {
        w.u64(c.ts);
        w.u32(c.ckpt);
        w.b(c.btbMiss);
    }
    w.b(critWpStuck_);

    // PRE machinery.
    savePresence(w, stallTable_);
    if (stallTable_)
        stallTable_->save(w);
    w.b(raActive_);
    w.u64(raEndCycle_);
    w.u64(raPc_);
    w.b(raTraceValid_);
    cdf::save(w, raTrace_);
    w.u32(raTraceIdx_);
    w.u32(static_cast<std::uint32_t>(raBbRecs_.size()));
    for (const isa::ExecRecord &rec : raBbRecs_)
        isa::save(w, rec);
    static_assert(kNumArchRegs <= 64, "taint snapshot width");
    w.u64(raTaint_.to_ullong());
    bp::save(w, raBpCkpt_);
    w.u64(raChainLoads_);
    w.u32(raEpisodeLoads_);
    lastRetiredLoadAddr_.save(
        w, [](SnapWriter &sw, Addr a) { sw.u64(a); });
    w.u64(stallStartCycle_);
    w.b(stallCounting_);

    // Squash/violation deferred state.
    w.b(squashOldestCkptValid_);
    w.u64(squashOldestCkptTs_);
    bp::save(w, squashOldestCkpt_);
    w.u32(encInst(pendingMemViolation_));
    w.u64(pendingDepViolationTs_);

    // Measurement accounting that feeds result(). The stage profile
    // and skip bookkeeping are host-only and excluded by design.
    w.u64(measureStartCycle_);
    w.u64(measureStartRetired_);
    mlpWhenActive_.save(w);
    uselessMlpWhenActive_.save(w);
    fig1CriticalFrac_.save(w);
    w.u64(fullWindowStallCycles_);
    w.u64(cdfModeCycles_);
}

void
Core::restoreState(SnapReader &r)
{
    oracle_.restore(r);
    walker_.restore(r);
    cdfWalker_.restore(r);
    raWalker_.restore(r);

    mem_.restore(r);
    bp_.restore(r);

    prf_.restore(r);
    rat_.restore(r);
    critRat_.restore(r);

    bpCkptPool_.restore(r, [](SnapReader &sr, bp::BpCheckpoint &c) {
        bp::restore(sr, c);
    });
    inflightPool_.restore(
        r, [](SnapReader &sr, DynInst &d) { d.restore(sr); });
    inflightHead_ = r.u32();
    inflightTail_ = r.u32();

    rob_.restore(r, [&](std::uint32_t idx) { return decInst(idx); });
    lsq_.restore(r, [&](std::uint32_t idx) { return decInst(idx); });
    rs_.restore(r, [&](std::uint32_t idx) { return decInst(idx); });

    const std::uint64_t numRegs = r.u64();
    SIM_ASSERT(numRegs == regWaiters_.size(),
               "snapshot phys reg count differs from this core's");
    for (auto &waiters : regWaiters_) {
        waiters.resize(r.u32());
        for (auto &[handle, seq] : waiters) {
            handle = r.u32();
            seq = r.u64();
        }
    }

    frontQ_.restore(r,
                    [&](SnapReader &sr) { return decInst(sr.u32()); });
    critQ_.restore(r,
                   [&](SnapReader &sr) { return decInst(sr.u32()); });

    pendingStores_.resize(r.u32());
    for (DynInst *&inst : pendingStores_)
        inst = decInst(r.u32());

    completions_.resize(r.u32());
    for (CompletionEvent &e : completions_) {
        e.when = r.u64();
        e.inst = decInst(r.u32());
    }

    now_ = r.u64();
    fetchSeqCounter_ = r.u64();
    nextFetchTs_ = r.u64();
    wrongPath_ = r.b();
    wrongPathPc_ = r.u64();
    wrongPathTs_ = r.u64();
    fetchStallUntil_ = r.u64();
    lastFetchLine_ = r.u64();
    fetchDoneHalt_ = r.b();
    nextRetireTs_ = r.u64();
    halted_ = r.b();
    lastRetireCycle_ = r.u64();
    retiredInstrs_ = r.u64();
    fetchAtBbStart_ = r.b();
    fetchBbStartPc_ = r.u64();
    fetchBbOffset_ = r.u32();
    retirePrevWasBranch_ = r.b();

    checkPresence(r, loadCct_);
    checkPresence(r, branchCct_);
    checkPresence(r, maskCache_);
    checkPresence(r, uopCache_);
    checkPresence(r, fillBuffer_);
    checkPresence(r, robPart_);
    checkPresence(r, lqPart_);
    checkPresence(r, sqPart_);
    checkPresence(r, dbq_);
    checkPresence(r, cmq_);
    if (loadCct_)
        loadCct_->restore(r);
    if (branchCct_)
        branchCct_->restore(r);
    if (maskCache_)
        maskCache_->restore(r);
    if (uopCache_)
        uopCache_->restore(r);
    if (fillBuffer_)
        fillBuffer_->restore(r);
    if (robPart_)
        robPart_->restore(r);
    if (lqPart_)
        lqPart_->restore(r);
    if (sqPart_)
        sqPart_->restore(r);
    if (dbq_) {
        dbq_->restore(r, [](SnapReader &sr) {
            cdf::DbqEntry e;
            cdf::restore(sr, e);
            return e;
        });
    }
    if (cmq_) {
        cmq_->restore(r, [](SnapReader &sr) {
            cdf::CmqEntry e;
            cdf::restore(sr, e);
            return e;
        });
    }

    cdfMode_ = r.b();
    cdfDraining_ = r.b();
    cdfCooldownUntil_ = r.u64();
    critRatCopied_ = r.b();
    cdfStartTs_ = r.u64();
    regRenamedThroughTs_ = r.u64();
    critFetchPc_ = r.u64();
    critFetchBaseTs_ = r.u64();
    critOnPath_ = r.b();
    critTraceValid_ = r.b();
    cdf::restore(r, critTrace_);
    critTraceIdx_ = r.u32();
    critProcessedThroughTs_ = r.u64();
    regNextTs_ = r.u64();
    regWrongPath_ = r.b();
    critCoveredUpTo_ = r.u64();
    critWpNextTs_ = r.u64();
    critWpBbBase_ = r.u64();

    criticalByTs_.restore(
        r, [&](SnapReader &sr) { return decInst(sr.u32()); });

    bbInfoQ_.resize(r.u32());
    for (BbInfo &bb : bbInfoQ_) {
        bb.baseTs = r.u64();
        bb.length = r.u32();
        bb.mask = r.u64();
        bb.highOffsets.resize(r.u32());
        for (unsigned &off : bb.highOffsets)
            off = r.u32();
    }

    wpRecords_.resize(r.u32());
    for (WpRecord &wp : wpRecords_) {
        isa::restore(r, wp.rec);
        wp.ts = r.u64();
        wp.critical = r.b();
    }
    wpConsumeIdx_ = r.u64();

    dbqCkpts_.resize(r.u32());
    for (DbqCheckpoint &c : dbqCkpts_) {
        c.ts = r.u64();
        c.ckpt = r.u32();
        c.btbMiss = r.b();
    }
    critWpStuck_ = r.b();

    checkPresence(r, stallTable_);
    if (stallTable_)
        stallTable_->restore(r);
    raActive_ = r.b();
    raEndCycle_ = r.u64();
    raPc_ = r.u64();
    raTraceValid_ = r.b();
    cdf::restore(r, raTrace_);
    raTraceIdx_ = r.u32();
    raBbRecs_.resize(r.u32());
    for (isa::ExecRecord &rec : raBbRecs_)
        isa::restore(r, rec);
    raTaint_ = std::bitset<kNumArchRegs>(r.u64());
    bp::restore(r, raBpCkpt_);
    raChainLoads_ = r.u64();
    raEpisodeLoads_ = r.u32();
    lastRetiredLoadAddr_.restore(
        r, [](SnapReader &sr) { return Addr{sr.u64()}; });
    stallStartCycle_ = r.u64();
    stallCounting_ = r.b();

    squashOldestCkptValid_ = r.b();
    squashOldestCkptTs_ = r.u64();
    bp::restore(r, squashOldestCkpt_);
    pendingMemViolation_ = decInst(r.u32());
    pendingDepViolationTs_ = r.u64();

    measureStartCycle_ = r.u64();
    measureStartRetired_ = r.u64();
    mlpWhenActive_.restore(r);
    uselessMlpWhenActive_.restore(r);
    fig1CriticalFrac_.restore(r);
    fullWindowStallCycles_ = r.u64();
    cdfModeCycles_ = r.u64();

    // Host-only measurement state: reset rather than restored. The
    // idle-skip rate limiter restarts at "recheck immediately", which
    // is stat-transparent (skip decisions never touch the registry).
    profile_ = StageProfile{};
    skippedCycles_ = 0;
    skipEvents_ = 0;
    skipRecheckAt_ = 0;

    SIM_AUDIT_ONLY({
        auditRenameMaps();
        auditBpCheckpoints();
    })
}

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
