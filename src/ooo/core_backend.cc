/**
 * @file
 * Core backend: rename/dispatch (regular + critical streams),
 * scheduling and execution, completion, retirement, and all
 * recovery paths (branch mispredicts, memory-order violations,
 * CDF dependence violations).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/audit.hh"
#include "common/logging.hh"
#include "ooo/core.hh"
#include "ooo/trace_env.hh"

namespace cdfsim::ooo
{

// ---------------------------------------------------------------------
// Rename / dispatch
// ---------------------------------------------------------------------

void
Core::renameStage()
{
    SIM_AUDIT_ONLY(if (renameAudit_.due()) auditRenameMaps();)
    unsigned slots = config_.width;
    // The Issue logic prefers the critical rename stage whenever it
    // has work (Section 3.5); total bandwidth is shared.
    if (config_.mode == CoreMode::Cdf)
        renameCritical(slots);
    SeqNum depViolationTs = kInvalidSeq;
    while (slots > 0) {
        if (!renameRegularOne(depViolationTs))
            break;
        --slots;
    }
    if (depViolationTs != kInvalidSeq)
        recoverFromViolation(depViolationTs, statDepViolations_);
}

Core::RenameGate
Core::criticalRenameGate(Cycle &bound) const
{
    if (critQ_.empty())
        return RenameGate::Quiet;
    const DynInst *inst = critQ_.front();
    if (inst->readyAtRename > now_) {
        bound = std::min(bound, inst->readyAtRename);
        return RenameGate::Quiet;
    }
    // The critical RAT is a copy of the regular RAT taken after the
    // last pre-CDF instruction renamed (Section 3.4). Taking it is a
    // side effect, so that cycle counts as progress; rename takes
    // the copy and asks again.
    if (!critRatCopied_) {
        return regRenamedThroughTs_ >= cdfStartTs_ ? RenameGate::Progress
                                                   : RenameGate::Quiet;
    }
    if (!prf_.hasFree())
        return RenameGate::Quiet;
    // The RS split follows the ROB's, so a full critical RS charges
    // the ROB partition.
    if (!rob_.canInsert(true) || !rs_.canInsert(true))
        return RenameGate::Rob;
    if (inst->isLoad() && !lsq_.lq().canInsert(true))
        return RenameGate::Lq;
    if (inst->isStore() && !lsq_.sq().canInsert(true))
        return RenameGate::Sq;
    if (cmq_->full())
        return RenameGate::Quiet;
    return RenameGate::Progress;
}

Core::RenameGate
Core::regularRenameGate(Cycle &bound) const
{
    if (frontQ_.empty())
        return RenameGate::Quiet;
    const DynInst *inst = frontQ_.front();
    if (inst->readyAtRename > now_) {
        bound = std::min(bound, inst->readyAtRename);
        return RenameGate::Quiet;
    }
    // A critical uop in the regular stream waits only for the
    // critical stream's rename of it (its CMQ entry at the front);
    // the replay needs no window resources.
    if (inst->cdfFetched && inst->critical) {
        return !cmq_->empty() && cmq_->front().ts == inst->ts
                   ? RenameGate::Progress
                   : RenameGate::Quiet;
    }
    if (!prf_.hasFree())
        return RenameGate::Quiet;
    if (!rob_.canInsert(false))
        return RenameGate::Rob;
    if (!rs_.canInsert(false))
        return RenameGate::Quiet;
    if (inst->isLoad() && !lsq_.lq().canInsert(false))
        return RenameGate::Lq;
    if (inst->isStore() && !lsq_.sq().canInsert(false))
        return RenameGate::Sq;
    return RenameGate::Progress;
}

void
Core::chargeRenameStall(RenameGate g, bool critical, std::uint64_t n)
{
    const auto s = static_cast<unsigned>(g);
    if (s < kNumSections && parts_[s])
        parts_[s]->noteStall(critical, n);
}

void
Core::renameCritical(unsigned &slots)
{
    while (slots > 0) {
        Cycle unusedBound = kNeverCycle;
        const RenameGate gate = criticalRenameGate(unusedBound);
        if (gate != RenameGate::Progress) {
            chargeRenameStall(gate, true, 1);
            return;
        }
        if (!critRatCopied_) {
            critRat_.copyFrom(rat_);
            rat_.clearAllPoison();
            critRatCopied_ = true;
            continue; // the gate again, against the copied RAT
        }

        DynInst *inst = critQ_.front();
        RenameResult rr = critRat_.rename(inst->uop, prf_);
        inst->physSrc1 = rr.physSrc1;
        inst->physSrc2 = rr.physSrc2;
        inst->physDst = rr.physDst;
        inst->oldPhysDstCrit = rr.oldPhysDst;
        inst->renamedCritical = true;
        inst->state = InstState::Renamed;

        rob_.insert(inst, true);
        rs_.insert(inst);
        if (inst->isLoad())
            lsq_.lq().insert(inst, true);
        if (inst->isStore())
            lsq_.sq().insert(inst, true);

        if (traceTs(inst->ts))
            std::fprintf(stderr, "[%lu] CRITRENAME ts=%lu\n", now_,
                         inst->ts);
        cmq_->push({inst->ts, inst->poolIdx});

        critQ_.pop();
        --slots;
        ++statRenamed_;
        ++statRenamedCritical_;
    }
}

bool
Core::renameRegularOne(SeqNum &depViolationTs)
{
    Cycle unusedBound = kNeverCycle;
    const RenameGate gate = regularRenameGate(unusedBound);
    if (gate != RenameGate::Progress) {
        chargeRenameStall(gate, false, 1);
        return false;
    }
    DynInst *inst = frontQ_.front();

    // CDF: critical uops in the regular stream replay the rename
    // performed in the critical stream and are then discarded
    // (Section 3.4); the poison-bit check detects dependence
    // violations (Section 3.6).
    if (inst->cdfFetched && inst->critical) {
        if (rat_.readsPoisoned(inst->uop)) {
            depViolationTs = inst->ts;
            return false;
        }

        if (traceTs(inst->ts))
            std::fprintf(stderr, "[%lu] REPLAY ts=%lu\n", now_,
                         inst->ts);
        const cdf::CmqEntry e = cmq_->pop();
        SIM_ASSERT(inflightPool_.alive(e.inst) &&
                       inflightPool_.at(e.inst).ts == inst->ts,
                   "CMQ replay with no critical-stream instruction: ts ",
                   inst->ts, " handle ", e.inst);
        DynInst *real = &inflightPool_.at(e.inst);
        real->renamedRegular = true;
        real->poisonSnapshot = rat_.poisonBits();
        if (inst->uop.writesReg()) {
            real->oldPhysDst = rat_.replay(real->uop.dst, real->physDst);
            rat_.clearPoison(real->uop.dst);
        }
        if (inst->onPath)
            regRenamedThroughTs_ = inst->ts + 1;
        frontQ_.pop();
        destroyInst(inst); // the copy is filtered out at rename
        ++statRenamed_;
        return true;
    }

    // Regular rename path (baseline, PRE, and non-critical CDF uops).
    RenameResult rr = rat_.rename(inst->uop, prf_);
    inst->physSrc1 = rr.physSrc1;
    inst->physSrc2 = rr.physSrc2;
    inst->physDst = rr.physDst;
    inst->oldPhysDst = rr.oldPhysDst;
    inst->renamedRegular = true;
    inst->state = InstState::Renamed;

    // Non-critical uops poison their destinations during CDF
    // (Section 3.6) so later critical replays can detect missed
    // producers. The pre-rename poison state is snapshotted so a
    // flush can restore it (the poison bits live in the RAT and are
    // checkpointed with it).
    inst->poisonSnapshot = rat_.poisonBits();
    if (cdfMode_ && inst->cdfFetched && inst->uop.writesReg())
        rat_.setPoison(inst->uop.dst);

    const bool critSection = false;
    rob_.insert(inst, critSection);
    if (!inst->uop.isHalt() && inst->uop.op != isa::Opcode::Nop)
        rs_.insert(inst);
    else
        scheduleCompletion(inst, now_ + 1); // nop/halt complete fast
    if (inst->isLoad())
        lsq_.lq().insert(inst, critSection);
    if (inst->isStore())
        lsq_.sq().insert(inst, critSection);

    if (inst->onPath)
        regRenamedThroughTs_ = inst->ts + 1;
    frontQ_.pop();
    ++statRenamed_;
    return true;
}

// ---------------------------------------------------------------------
// Execute
// ---------------------------------------------------------------------

void
Core::executeStage()
{
    // Stores whose address resolved earlier but whose data lagged.
    std::erase_if(pendingStores_, [&](DynInst *st) {
        if (prf_.isReady(st->physSrc2, now_)) {
            scheduleCompletion(st, now_ + 1);
            return true;
        }
        return false;
    });

    unsigned loads = 0;
    unsigned stores = 0;
    DynInst *memViolation = nullptr;

    auto ready = [&](DynInst *inst) {
        if (inst->state != InstState::Renamed)
            return false;
        // Scheduling cache: a prior evaluation recorded when this
        // entry can possibly become ready (a producer's broadcast
        // ready-time, or "parked" until a register wakeup). Skipping
        // early evaluations cannot change the outcome: a finite
        // readyAt is broadcast exactly once per producer, and a
        // parked entry is unparked by wakeRsWaiters the moment any
        // awaited register is written.
        if (inst->rsNextTry > now_)
            return false;
        // A load blocked on store-forwarding data re-attempts
        // through accept() below (the store may retire or its data
        // reg may be recycled, so no ready-gate is kept on it).
        const auto [r1, r2] = operandsReadyAt(inst);
        const Cycle wait = std::max(r1, r2);
        if (wait <= now_)
            return true;
        inst->rsNextTry = wait;
        if (r1 == kNeverCycle)
            addRsWaiter(inst->physSrc1, inst);
        if (r2 == kNeverCycle)
            addRsWaiter(inst->physSrc2, inst);
        return false;
    };

    auto accept = [&](DynInst *inst) {
        if (inst->isLoad()) {
            if (loads >= config_.maxLoadsPerCycle)
                return false;
            if (!tryIssueLoad(inst))
                return false;
            ++loads;
        } else if (inst->isStore()) {
            if (stores >= config_.maxStoresPerCycle)
                return false;
            issueStore(inst, memViolation);
            ++stores;
        } else {
            issueOne(inst);
        }
        ++statIssued_;
        return true;
    };

    rs_.selectAndIssue(config_.issueWidth, ready, accept);
    SIM_AUDIT_ONLY(if (rsAudit_.due()) auditRsWakeupCache();)

    if (memViolation) {
        SeqNum ts = memViolation->ts;
        // In CDF mode, restart from the oldest point the regular
        // stream has not yet fetched: uops older than that exist only
        // in the critical stream and must not be refetched, while
        // younger non-critical uops may not have been fetched at all.
        if (cdfMode_ && regNextTs_ < ts)
            ts = std::max<SeqNum>(regNextTs_, 1);
        recoverFromViolation(ts, statMemOrderViolations_);
    }
}

std::pair<Cycle, Cycle>
Core::operandsReadyAt(const DynInst *inst) const
{
    // Loads need only the address register; store address
    // generation likewise proceeds without the data.
    const Cycle r1 =
        inst->physSrc1 == kInvalidReg ? 0 : prf_.readyAt(inst->physSrc1);
    const bool memOp = inst->isLoad() || inst->isStore();
    const Cycle r2 = memOp || inst->physSrc2 == kInvalidReg
                         ? 0
                         : prf_.readyAt(inst->physSrc2);
    return {r1, r2};
}

void
Core::issueOne(DynInst *inst)
{
    inst->state = InstState::Issued;
    scheduleCompletion(inst, now_ + isa::executeLatency(inst->uop.op));
}

bool
Core::tryIssueLoad(DynInst *inst)
{
    const Cycle agen = now_ + 1;
    inst->addrKnown = true;

    // Loads speculate past older stores with unresolved addresses
    // (so the search need not report them); the violation check at
    // store address-generation catches any mistakes (Section 3.5).
    DynInst *st = lsq_.forwardingStore(inst, nullptr);
    if (st) {
        if (!prf_.isReady(st->physSrc2, now_))
            return false; // retry: stays in the RS until data is ready
        inst->forwardSrcTs = st->ts;
        inst->state = InstState::Issued;
        scheduleCompletion(inst, agen + 1);
        return true;
    }

    const auto kind = inst->onPath ? mem::AccessKind::DemandLoad
                                   : mem::AccessKind::WrongPathLoad;
    auto res = mem_.dataAccess(inst->memAddr, kind, agen);
    inst->llcMiss = res.llcMiss;
    if (res.llcMiss && inst->onPath)
        ++statLlcMissLoads_;
    inst->forwardSrcTs = 0;
    inst->state = InstState::Issued;
    scheduleCompletion(inst, res.ready);
    return true;
}

void
Core::issueStore(DynInst *inst, DynInst *&memViolation)
{
    inst->state = InstState::Issued;
    inst->addrKnown = true;

    // Memory-ordering violation search (defer the flush until the
    // RS selection loop has finished).
    if (inst->onPath && !memViolation) {
        if (DynInst *ld = lsq_.violatingLoad(inst); ld && ld->onPath)
            memViolation = ld;
    }

    if (prf_.isReady(inst->physSrc2, now_))
        scheduleCompletion(inst, now_ + 1);
    else
        pendingStores_.push_back(inst);
}

void
Core::addRsWaiter(RegId reg, const DynInst *inst)
{
    regWaiters_[reg].emplace_back(inst->poolIdx, inst->fetchSeq);
}

void
Core::wakeRsWaiters(RegId reg)
{
    auto &waiters = regWaiters_[reg];
    if (waiters.empty())
        return;
    for (const auto &[idx, seq] : waiters) {
        // The waiter may have been squashed (and its slot recycled)
        // since parking; the (handle, fetchSeq) pair detects that.
        if (!inflightPool_.alive(idx))
            continue;
        DynInst &w = inflightPool_.at(idx);
        if (w.fetchSeq == seq)
            w.rsNextTry = 0;
    }
    waiters.clear();
}

void
Core::scheduleCompletion(DynInst *inst, Cycle when)
{
    inst->completionCycle = when;
    // Broadcast the wakeup time immediately so dependents can be
    // scheduled back-to-back.
    if (inst->physDst != kInvalidReg) {
        prf_.setReadyAt(inst->physDst, when);
        wakeRsWaiters(inst->physDst);
    }
    completions_.push_back({when, inst});
    std::push_heap(completions_.begin(), completions_.end(),
                   std::greater<CompletionEvent>{});
}

// ---------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------

void
Core::completionStage()
{
    while (!completions_.empty() &&
           completions_.front().when <= now_) {
        std::pop_heap(completions_.begin(), completions_.end(),
                      std::greater<CompletionEvent>{});
        DynInst *inst = completions_.back().inst;
        completions_.pop_back();
        finishInst(inst);
    }
}

void
Core::finishInst(DynInst *inst)
{
    inst->state = InstState::Completed;

    if (inst->isBranch() && inst->onPath) {
        static constexpr bp::TagePredictionInfo kNoPrediction{};
        bp_.update(inst->pc, inst->uop, inst->taken, inst->actualTarget,
                   inst->hasBpCheckpoint()
                       ? bpCkptPool_.at(inst->bpCkpt).info
                       : kNoPrediction);
        if (inst->mispredicted)
            recoverFromBranch(inst);
    }
}

// ---------------------------------------------------------------------
// Retire
// ---------------------------------------------------------------------

void
Core::retireStage()
{
    SIM_AUDIT_ONLY(if (lsqRobAudit_.due()) auditLsqRobAge();)
    SIM_AUDIT_ONLY(if (bpCkptAudit_.due()) auditBpCheckpoints();)

    bool retiredHalt = false;
    for (unsigned n = 0; n < config_.width; ++n) {
        DynInst *h = rob_.head();
        if (!h || h->state != InstState::Completed)
            break;
        // A critical-stream uop cannot retire before its regular
        // stream copy replayed the rename (the RAT must be
        // committed in program order).
        if (h->criticalStream && !h->renamedRegular)
            break;

        SIM_ASSERT(h->onPath, "wrong-path instruction reached retire");
        SIM_ASSERT(h->ts == nextRetireTs_,
                   "out-of-order retirement: ts ", h->ts, " expected ",
                   nextRetireTs_);
        SIM_AUDIT(!h->doomed, "doomed instruction reached retire");
        SIM_AUDIT(inflightPool_.alive(h->poolIdx),
                  "retiring instruction is not live in the slab pool");
        ++nextRetireTs_;

        if (h->isLoad()) {
            lsq_.lq().retire(h);
            if (config_.mode == CoreMode::Pre) {
                SIM_ASSERT(h->memAddr != kNoLoadAddr,
                           "load ts ", h->ts,
                           " retired the no-address sentinel");
                lastRetiredLoadAddr_[h->pc] = h->memAddr;
            }
        }
        if (h->isStore()) {
            lsq_.sq().retire(h);
            mem_.dataAccess(h->memAddr, mem::AccessKind::DemandStore,
                            now_);
        }
        rob_.retire(h);

        if (h->renamedRegular && h->oldPhysDst != kInvalidReg)
            prf_.release(h->oldPhysDst);

        const bool isHalt = h->uop.isHalt();
        ++retiredInstrs_;
        ++statRetired_;
        lastRetireCycle_ = now_;

        trainOnRetire(h);

        destroyInst(h);

        if (isHalt) {
            halted_ = true;
            retiredHalt = true;
            break;
        }
    }

    // Nothing reads a retired record again (OracleStream::at asserts
    // on it), so the oracle window, and with it every snapshot, holds
    // only the records that have not retired.
    oracle_.releaseBelow(nextRetireTs_);
    if (retiredHalt)
        return;

    if (windowStalled()) {
        DynInst *h = rob_.head();
        ++fullWindowStallCycles_;
        if (config_.observeCriticality) {
            std::uint64_t crit = 0;
            std::uint64_t total = 0;
            rob_.forEach([&](const DynInst *i) {
                ++total;
                if (i->critical)
                    ++crit;
            });
            if (total > 0) {
                fig1CriticalFrac_.add(static_cast<double>(crit) /
                                      static_cast<double>(total));
            }
        }
        if (config_.mode == CoreMode::Pre && h->isLoad() &&
            h->llcMiss) {
            maybeEnterRunahead(h);
        }
    } else {
        stallCounting_ = false;
    }
}

bool
Core::windowStalled() const
{
    // The ROB is full, or the next regular uop is ready to rename
    // and its non-critical section has no room, while the oldest
    // instruction is still outstanding.
    const DynInst *h = rob_.head();
    const bool robFull =
        rob_.occupancy() >= rob_.size() ||
        (!rob_.canInsert(false) && !frontQ_.empty() &&
         frontQ_.front()->readyAtRename <= now_);
    return robFull && h && h->state != InstState::Completed;
}

void
Core::trainOnRetire(const DynInst *h)
{
    if (h->mispredicted)
        ++statMispredicts_;

    if (loadCct_ && h->isLoad())
        loadCct_->update(h->pc, h->llcMiss);
    if (branchCct_ && h->uop.isCondBranch())
        branchCct_->update(h->pc, h->mispredicted);

    if (fillBuffer_) {
        bool seed = false;
        if (config_.mode == CoreMode::Pre) {
            seed = h->isLoad() && stallTable_->isCritical(h->pc);
        } else if (h->isLoad()) {
            seed = loadCct_->isCritical(h->pc);
        } else if (h->uop.isCondBranch() &&
                   config_.cdf.markCriticalBranches) {
            seed = branchCct_->isCritical(h->pc);
        }

        cdf::RetiredUopInfo info;
        info.pc = h->pc;
        info.uop = h->uop;
        info.memWordAddr = h->memWord();
        info.seedCritical = seed;
        info.startsBasicBlock = retirePrevWasBranch_;
        auto wr = fillBuffer_->onRetire(info, retiredInstrs_, now_);
        retirePrevWasBranch_ = h->isBranch();

        // Criticality-density driven threshold-mode switching
        // (Section 3.2).
        if (wr.performed && loadCct_) {
            if (wr.density < config_.cdf.densitySwitchLow) {
                loadCct_->setMode(cdf::ThresholdMode::Permissive);
                branchCct_->setMode(cdf::ThresholdMode::Permissive);
            } else if (wr.density > config_.cdf.densitySwitchHigh) {
                loadCct_->setMode(cdf::ThresholdMode::Strict);
                branchCct_->setMode(cdf::ThresholdMode::Strict);
            }
        }
    }
    if (maskCache_)
        maskCache_->maybeReset(retiredInstrs_);
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

void
Core::squashYoungerThan(SeqNum flushTs, bool rewindPredictor)
{
    // Every in-flight instruction sits in exactly one ts-ordered
    // container — a frontend queue before rename, a ROB section
    // after — so the doomed set is the union of their young tails.
    // Frontend entries were never renamed and need no particular
    // order, so they go first (and leave their queues right away);
    // the two ROB tails follow, merged youngest-first, the order the
    // rename undo below needs. Side structures are filtered through
    // the doomed mark before any memory is freed.
    squashed_.clear();
    for (auto *q : {&frontQ_, &critQ_}) {
        std::size_t kept = q->size();
        for (; kept > 0 && q->at(kept - 1)->ts > flushTs; --kept) {
            DynInst *inst = q->at(kept - 1);
            inst->doomed = true;
            squashed_.push_back(inst);
        }
        q->truncate(kept);
    }
    const std::size_t firstRenamed = squashed_.size();
    const auto [critQ, nonCritQ] = rob_.sections();
    const auto &crit = *critQ;
    const auto &nonCrit = *nonCritQ;
    for (std::size_t c = crit.size(), n = nonCrit.size();;) {
        const bool critDoomed = c > 0 && crit[c - 1]->ts > flushTs;
        const bool nonCritDoomed = n > 0 && nonCrit[n - 1]->ts > flushTs;
        if (!critDoomed && !nonCritDoomed)
            break;
        DynInst *inst =
            critDoomed && (!nonCritDoomed ||
                           crit[c - 1]->ts > nonCrit[n - 1]->ts)
                ? crit[--c]
                : nonCrit[--n];
        inst->doomed = true;
        squashed_.push_back(inst);
    }

    // The tails must be exactly the instructions the full in-flight
    // walk finds younger than the flush point.
    SIM_AUDIT_ONLY({
        std::size_t younger = 0;
        for (std::uint32_t i = inflightHead_; i != kNoInst;
             i = inflightPool_.at(i).nextIdx) {
            const DynInst &inst = inflightPool_.at(i);
            SIM_AUDIT(inst.doomed == (inst.ts > flushTs),
                      "squash tail gather disagrees with the "
                      "in-flight walk at ts ", inst.ts);
            younger += inst.ts > flushTs;
        }
        SIM_AUDIT(younger == squashed_.size(),
                  "squash tail gather collected ", squashed_.size(),
                  " instructions, the in-flight walk ", younger);
    })
    // NOTE: even when no in-flight instruction is younger than the
    // flush point, the FIFO flushes further down must still run:
    // wrong-path basic blocks with no critical uops leave DBQ entries,
    // wrong-path records and block handoffs behind without any
    // instruction.

    // A violation recovery rewinds the predictor's speculative
    // history to the oldest squashed branch checkpoint, read before
    // the squash frees the pool slots.
    if (rewindPredictor) {
        SeqNum oldestTs = 0;
        std::uint32_t oldest = kNoInst;
        const auto noteCkpt = [&](SeqNum ts, std::uint32_t ckpt) {
            if (oldest == kNoInst || ts < oldestTs) {
                oldestTs = ts;
                oldest = ckpt;
            }
        };
        for (const DynInst *inst : squashed_) {
            if (inst->hasBpCheckpoint())
                noteCkpt(inst->ts, inst->bpCkpt);
        }
        for (std::size_t i = 0; dbq_ && i < dbq_->size(); ++i) {
            const cdf::DbqEntry &e = dbq_->at(i);
            if (e.ts > flushTs && e.ckpt != kNoInst)
                noteCkpt(e.ts, e.ckpt);
        }
        if (oldest != kNoInst)
            bp_.restore(bpCkptPool_.at(oldest));
    }
    // Completion heap: drain in heap order, keep survivors. The
    // drained sequence is ascending, so the survivor vector is
    // already a valid min-heap with exactly the layout the old
    // re-push loop produced — swap it in, no rebuild.
    completionsScratch_.clear();
    completionsScratch_.reserve(completions_.size());
    while (!completions_.empty()) {
        std::pop_heap(completions_.begin(), completions_.end(),
                      std::greater<CompletionEvent>{});
        const CompletionEvent ev = completions_.back();
        completions_.pop_back();
        if (!ev.inst->doomed)
            completionsScratch_.push_back(ev);
    }
    completions_.swap(completionsScratch_);
    // The swapped-in survivor sequence must still be a valid
    // min-heap (the rebuild argument above) and must reference no
    // doomed instruction — a stale pointer here would be freed below
    // and dereferenced at completion time.
    SIM_AUDIT_ONLY({
        SIM_AUDIT(std::is_heap(completions_.begin(),
                               completions_.end(),
                               std::greater<CompletionEvent>{}),
                  "completion heap lost heap order in squash rebuild");
        for (const CompletionEvent &ev : completions_)
            SIM_AUDIT(!ev.inst->doomed,
                      "doomed instruction survived the completion-heap "
                      "squash filter");
    })

    std::erase_if(pendingStores_,
                  [&](const DynInst *st) { return st->doomed; });

    rob_.flushYounger(flushTs);
    rs_.flushYounger(flushTs);
    lsq_.lq().flushYounger(flushTs);
    lsq_.sq().flushYounger(flushTs);

    if (dbq_) {
        cdf::flushYounger(*dbq_, flushTs, [&](const cdf::DbqEntry &e) {
            if (e.ckpt != kNoInst)
                bpCkptPool_.free(e.ckpt);
        });
        cdf::flushYounger(*cmq_, flushTs);
    }
    // One divergence's walk, so ascending ts: cut the young tail.
    SIM_AUDIT(std::is_sorted(wpRecords_.begin(), wpRecords_.end(),
                             [](const isa::ExecRecord &a,
                                const isa::ExecRecord &b) {
                                 return a.seq < b.seq;
                             }),
              "wrong-path records out of ts order");
    wpRecords_.erase(
        std::upper_bound(wpRecords_.begin(), wpRecords_.end(), flushTs,
                         [](SeqNum ts, const isa::ExecRecord &w) {
                             return ts < w.seq;
                         }),
        wpRecords_.end());
    if (wpConsumeIdx_ > wpRecords_.size())
        wpConsumeIdx_ = wpRecords_.size();
    // Handoffs are in ts order too (correct path, then the wrong path
    // past its divergence): cut the blocks starting past the flush.
    while (!handoffQ_.empty() && handoffQ_.back().baseTs > flushTs)
        handoffQ_.pop_back();

    // Restore the poison bits to their state before the oldest
    // squashed regular rename (they are RAT state and flush with it).
    for (auto it = squashed_.rbegin();
         it != squashed_.rend() - firstRenamed; ++it) {
        if ((*it)->renamedRegular) {
            rat_.setPoisonBits((*it)->poisonSnapshot);
            break;
        }
    }

    // Undo renames (ROB entries, youngest first) and release
    // physical registers.
    for (DynInst *inst : squashed_) {
        if (inst->uop.writesReg()) {
            if (inst->renamedRegular)
                rat_.undo(inst->uop.dst, inst->oldPhysDst);
            if (inst->renamedCritical)
                critRat_.undo(inst->uop.dst, inst->oldPhysDstCrit);
        }
        if (inst->physDst != kInvalidReg)
            prf_.release(inst->physDst);
        destroyInst(inst);
    }

    if (regRenamedThroughTs_ > flushTs + 1)
        regRenamedThroughTs_ = flushTs + 1;

    // Doomed-flag/liveness agreement: every instruction still on the
    // in-flight list survived the flush, so none may be younger than
    // the flush point or still carry the doomed mark, and the
    // intrusive links must agree with the pool's liveness bitmap.
    SIM_AUDIT_ONLY({
        std::uint32_t prev = kNoInst;
        for (std::uint32_t i = inflightHead_; i != kNoInst;
             i = inflightPool_.at(i).nextIdx) {
            SIM_AUDIT(inflightPool_.alive(i),
                      "in-flight list references a freed pool slot");
            const DynInst &inst = inflightPool_.at(i);
            SIM_AUDIT(inst.prevIdx == prev,
                      "in-flight list prev/next links disagree");
            SIM_AUDIT(!inst.doomed,
                      "doomed instruction survived the squash walk");
            SIM_AUDIT(inst.ts <= flushTs,
                      "instruction younger than the flush point "
                      "survived the squash");
            prev = i;
        }
        SIM_AUDIT(inflightTail_ == prev,
                  "in-flight tail does not terminate the list");
    })
}

void
Core::recoverFromBranch(DynInst *branch)
{
    SIM_ASSERT(branch->onPath, "recovery on a wrong-path branch");
    const SeqNum flushTs = branch->ts;

    if (raActive_)
        exitRunahead(); // before the checkpoint rewind below

    squashYoungerThan(flushTs, false);
    SIM_ASSERT(branch->hasBpCheckpoint(), "branch without checkpoint");
    bp_.recover(bpCkptPool_.at(branch->bpCkpt), branch->taken,
                branch->pc);

    // Recovery to a branch fetched before CDF mode began ends CDF
    // mode (exit condition (c), Section 3.6).
    if (!branch->cdfFetched)
        abortCdfMode();
    redirectFetch(branch->ts + 1, true);
    if (!cdfMode_)
        return;

    // CDF mode survives the mispredict (Section 3.6): fix the DBQ
    // entry so the regular stream follows the corrected path, and
    // restart both streams there. The squash dropped every younger
    // entry, so the branch's own entry, if still queued, is the last.
    if (!dbq_->empty() && dbq_->back().ts == branch->ts) {
        dbq_->back().taken = branch->taken;
        dbq_->back().target = branch->actualTarget;
    }
    restartCdfFetch(branch->actualTarget, branch->ts + 1);
    regNextTs_ = std::min(regNextTs_, branch->ts + 1);
}

void
Core::recoverFromViolation(SeqNum restartTs, std::uint64_t &stat)
{
    ++stat;
    SIM_ASSERT(restartTs > 0, "violation recovery at ts 0");
    // Runahead runs only in PRE mode, so this never fires for a
    // dependence violation (CDF mode only).
    if (raActive_)
        exitRunahead();
    squashYoungerThan(restartTs - 1, true);
    abortCdfMode();
    redirectFetch(restartTs, true);
}

void
Core::redirectFetch(SeqNum ts, bool flush)
{
    if (flush) {
        fetchStallUntil_ = now_ + config_.mispredictRedirect;
        lastFetchLine_ = ~Addr{0};
        fetchDoneHalt_ = false;
    }
    if (cdfMode_)
        return;
    wrongPath_ = false;
    walker_.deactivate();
    nextFetchTs_ = ts;
    fetchAtBbStart_ = true;
}

// ---------------------------------------------------------------------
// Audit walks
// ---------------------------------------------------------------------

void
Core::auditBpCheckpoints() const
{
    std::vector<std::uint8_t> owned(bpCkptPool_.capacity(), 0);
    std::size_t owners = 0;
    const auto own = [&](std::uint32_t h, const char *who, SeqNum ts) {
        SIM_ASSERT(bpCkptPool_.alive(h), who, " ts ", ts,
                   " holds dead checkpoint handle ", h);
        SIM_ASSERT(!owned[h], "checkpoint handle ", h,
                   " is owned twice (again by ", who, " ts ", ts, ")");
        owned[h] = 1;
        ++owners;
    };
    for (std::uint32_t i = inflightHead_; i != kNoInst;
         i = inflightPool_.at(i).nextIdx) {
        const DynInst &inst = inflightPool_.at(i);
        if (inst.hasBpCheckpoint())
            own(inst.bpCkpt, "instruction", inst.ts);
    }
    for (std::size_t i = 0; dbq_ && i < dbq_->size(); ++i) {
        const cdf::DbqEntry &e = dbq_->at(i);
        if (e.ckpt != kNoInst)
            own(e.ckpt, "DBQ entry", e.ts);
    }
    SIM_ASSERT(owners == bpCkptPool_.liveCount(),
               "checkpoint pool holds ", bpCkptPool_.liveCount(),
               " live handles but only ", owners,
               " have an owner (leak)");
}

void
Core::auditLsqRobAge() const
{
    rob_.auditAgeOrder("ROB");
    lsq_.lq().auditAgeOrder("LQ");
    lsq_.sq().auditAgeOrder("SQ");

    // Every resident entry must still be live in the slab pool; a
    // stale pointer here means a double destroy or a missed squash.
    const auto checkAlive = [this](const DynInst *inst,
                                   const char *what) {
        SIM_ASSERT(inflightPool_.alive(inst->poolIdx), what,
                   " entry ts ", inst->ts,
                   " is not live in the slab pool");
    };
    rob_.forEach([&](const DynInst *inst) { checkAlive(inst, "ROB"); });

    // Loads and stores leave the LSQ no later than the ROB (retire
    // pops both, flushes truncate both by timestamp), so every LSQ
    // entry must also be ROB-resident, and of its queue's kind. Both
    // ROB sections are timestamp-sorted, so membership is two binary
    // searches.
    const auto inRob = [this](const DynInst *inst) {
        for (const auto *q : rob_.sections()) {
            const auto it = std::lower_bound(
                q->begin(), q->end(), inst->ts,
                [](const DynInst *e, SeqNum ts) { return e->ts < ts; });
            if (it != q->end() && *it == inst)
                return true;
        }
        return false;
    };
    const auto checkQueue = [&](const SectionQueue &mq, const char *what,
                                bool loads) {
        mq.forEach([&](DynInst *inst) {
            checkAlive(inst, what);
            SIM_ASSERT(loads ? inst->isLoad() : inst->isStore(),
                       loads ? "non-load" : "non-store", " in the ",
                       what);
            SIM_ASSERT(inRob(inst), what, " entry ts ", inst->ts,
                       " is not resident in the ROB");
        });
    };
    checkQueue(lsq_.lq(), "LQ", true);
    checkQueue(lsq_.sq(), "SQ", false);
}

} // namespace cdfsim::ooo
