/**
 * @file
 * CDF mode control and the dual fetch engines (paper Section 3.3):
 * the critical fetch logic walking Critical Uop Cache traces with
 * its own next-PC logic and branch prediction, and the regular fetch
 * stream that replays the Delayed Branch Queue so both streams
 * follow one control-flow path.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "common/logging.hh"
#include "ooo/core.hh"
#include "ooo/trace_env.hh"

namespace cdfsim::ooo
{

void
Core::applyPartitionCaps()
{
    if (!parts_[kRob])
        return;
    for (const Section s : kSections)
        window(s).setCriticalCap(parts_[s]->criticalCap());
    // RS and PRF critical budgets scale with the ROB split
    // (Section 3.5).
    const unsigned rsCap = static_cast<unsigned>(
        static_cast<std::uint64_t>(config_.rsSize) *
        parts_[kRob]->criticalCap() / config_.robSize);
    rs_.setCriticalCap(std::max(rsCap, 4u));
}

void
Core::releasePartitionCaps()
{
    // Gradual release: cap shrinks to current occupancy so pending
    // critical instructions drain, then to zero (Section 3.6,
    // "Exiting CDF mode").
    for (const Section s : kSections) {
        SectionQueue &q = window(s);
        q.setCriticalCap(static_cast<unsigned>(q.criticalOccupancy()));
    }
    rs_.setCriticalCap(
        static_cast<unsigned>(rs_.criticalOccupancy()));
}

void
Core::maybeEnterCdfMode(Addr pc, SeqNum seq)
{
    if (cdfMode_ || !uopCache_ || config_.mode != CoreMode::Cdf)
        return;
    if (now_ < cdfCooldownUntil_)
        return;
    // Do not start a new episode while the previous one's critical
    // instructions are still draining.
    if (!critQ_.empty() || !cmq_->empty() ||
        rob_.criticalOccupancy() > 0) {
        return;
    }
    const cdf::BbTrace *t = uopCache_->lookup(pc, now_);
    if (!t)
        return;

    cdfMode_ = true;
    ++statCdfEpisodes_;

    cdfStartTs_ = seq;
    critRatCopied_ = false;
    restartCdfFetch(pc, seq);
    regNextTs_ = seq;
    bbInfoQ_.clear();

    applyPartitionCaps();
}

void
Core::restartCdfFetch(Addr pc, SeqNum ts)
{
    crit_.moveTo(pc);
    critFetchBaseTs_ = ts;
    critOnPath_ = true;
    walker_.deactivate();
    critWpStuck_ = false;
    critCoveredUpTo_ = ts;
    regWrongPath_ = false;
    wpRecords_.clear();
    wpConsumeIdx_ = 0;
    cdfDraining_ = false;
}

void
Core::beginCdfExit()
{
    cdfDraining_ = true;
    cdfCooldownUntil_ = now_ + config_.cdf.reentryCooldown;
}

/**
 * Drop critical uops still waiting in critQ_ and demote their
 * regular-stream copies to normal renaming. Once CDF mode ends the
 * poison machinery is off, so letting them rename through the (now
 * stale) critical RAT would silently miss dependence violations.
 */
void
Core::drainCriticalFrontend()
{
    if (critQ_.empty()) {
        critRatCopied_ = false;
        return;
    }
    std::unordered_set<SeqNum> dropped;
    while (!critQ_.empty()) {
        DynInst *inst = critQ_.pop();
        if (traceTs(inst->ts))
            std::fprintf(stderr, "[%lu] DROP ts=%lu\n", now_,
                         inst->ts);
        dropped.insert(inst->ts);
        destroyInst(inst);
    }
    for (std::size_t i = 0; i < frontQ_.size(); ++i) {
        DynInst *copy = frontQ_.at(i);
        if (copy->critical && copy->cdfFetched &&
            dropped.count(copy->ts)) {
            if (traceTs(copy->ts))
                std::fprintf(stderr, "[%lu] DEMOTE ts=%lu\n", now_,
                             copy->ts);
            copy->critical = false;
        }
    }
    critRatCopied_ = false;
}

void
Core::endCdfEpisode()
{
    cdfMode_ = false;
    cdfDraining_ = false;
    drainCriticalFrontend();
    critWpStuck_ = false;
    walker_.deactivate();
    critOnPath_ = true;
    wpRecords_.clear();
    wpConsumeIdx_ = 0;
    bbInfoQ_.clear();
    rat_.clearAllPoison();
    // Every episode end finds the DBQ drained: a graceful exit waits
    // for the regular stream to catch up with critical fetch, and an
    // abort follows a squash to a pre-episode branch or to a
    // violation restart no younger than the regular stream's next
    // fetch. The CMQ may still hold entries for critical uops that
    // are fetched but not yet replayed by regular rename; rename
    // keeps draining it.
    SIM_ASSERT(dbq_->empty(), "stale DBQ entries at CDF episode end: ",
               dbq_->size(), " oldest ts ",
               dbq_->empty() ? 0 : dbq_->front().ts);
}

void
Core::finishCdfExit()
{
    SIM_ASSERT(cdfMode_, "finishCdfExit outside CDF mode");
    endCdfEpisode();
    // Regular fetch resumes where the CDF regular stream stopped. The
    // partition shrinks as the remaining critical instructions retire
    // (handled in statsStage).
    redirectFetch(regNextTs_, false);
}

void
Core::abortCdfMode()
{
    if (!cdfMode_)
        return;
    cdfCooldownUntil_ = now_ + config_.cdf.reentryCooldown;
    endCdfEpisode();
    releasePartitionCaps();
}

// ---------------------------------------------------------------------
// Critical fetch engine
// ---------------------------------------------------------------------

Core::FetchGate
Core::criticalFetchGate() const
{
    // Stopped by drain mode or a stuck wrong-path walk, or
    // backpressured.
    return cdfDraining_ || critWpStuck_ || critQ_.full() || dbq_->full()
               ? FetchGate::Blocked
               : FetchGate::Progress;
}

void
Core::fetchCriticalCdf(unsigned &budget)
{
    while (budget > 0) {
        if (criticalFetchGate() != FetchGate::Progress)
            return;

        // Acquire (and copy) the trace for the block at the cursor.
        if (!crit_.valid) {
            if (!crit_.load(*uopCache_, now_)) {
                ++statCdfExitsUopMiss_;
                beginCdfExit();
                return;
            }

            if (!critOnPath_) {
                // Wrong path: functionally walk the whole block now
                // so the regular stream has records to consume.
                // Commit records only if the whole block is walkable.
                const std::size_t base = wpRecords_.size();
                for (unsigned off = 0; off < crit_.trace.blockLength;
                     ++off) {
                    const Addr pc = crit_.trace.startPc + off;
                    if (!oracle_.program().walkable(pc)) {
                        wpRecords_.resize(base);
                        crit_.valid = false;
                        critWpStuck_ = true;
                        return;
                    }
                    WpRecord &w = wpRecords_.emplace_back();
                    walker_.executeInto(w.rec, pc);
                    w.ts = critWpNextTs_ + off;
                    w.critical = false;
                }
                critWpNextTs_ += crit_.trace.blockLength;
                critWpBbBase_ = base;
                for (const auto &tu : crit_.trace.uops) {
                    wpRecords_[critWpBbBase_ + tu.offsetInBlock]
                        .critical = true;
                }
            } else {
                // On-path: publish this BB's criticality bits for
                // the regular fetch stream.
                bbInfoQ_.emplace_back().assign(crit_.trace,
                                               critFetchBaseTs_);
            }
        }

        const cdf::BbTrace &trace = crit_.trace;
        const unsigned len = trace.blockLength;
        const bool lastUopIsBranch = trace.endsInBranch;

        // Emit critical uops of the current trace. The terminating
        // branch (if critical) is emitted during finalization below
        // so its prediction state is attached atomically.
        while (crit_.idx < trace.uops.size()) {
            const cdf::TraceUop &tu = trace.uops[crit_.idx];
            if (lastUopIsBranch && tu.offsetInBlock == len - 1)
                break; // leave the branch for finalization
            if (budget == 0 || critQ_.full())
                return;

            const isa::ExecRecord *rec;
            SeqNum ts;
            if (critOnPath_) {
                ts = critFetchBaseTs_ + tu.offsetInBlock;
                if (!oracle_.hasRecord(ts)) {
                    beginCdfExit(); // program ends inside this block
                    return;
                }
                rec = &oracle_.at(ts);
                SIM_ASSERT(rec->pc == trace.startPc + tu.offsetInBlock,
                           "critical fetch desynchronized from oracle");
            } else {
                const WpRecord &w =
                    wpRecords_[critWpBbBase_ + tu.offsetInBlock];
                rec = &w.rec;
                ts = w.ts;
            }

            DynInst *inst = makeInst(*rec, ts, critOnPath_);
            inst->critical = true;
            inst->criticalStream = true;
            inst->cdfFetched = true;
            critQ_.push(inst);
            --budget;
            ++crit_.idx;
        }

        // Finalize the basic block.
        if (!lastUopIsBranch) {
            // Halt-terminated (or unchainable) block: stop fetching
            // critical uops and drain (Section 3.6).
            if (critOnPath_)
                critCoveredUpTo_ = critFetchBaseTs_ + len;
            beginCdfExit();
            return;
        }

        const bool branchCritical =
            !trace.uops.empty() &&
            trace.uops.back().offsetInBlock == len - 1;
        if (branchCritical && (budget == 0 || critQ_.full()))
            return; // need a slot for the branch uop next cycle

        // Predict the block-terminating branch exactly once
        // (Section 3.3) and log it in the DBQ.
        const Addr branchPc = trace.branchPc;
        const isa::Uop &buop = oracle_.program().at(branchPc);
        SIM_ASSERT(buop.isBranch(), "trace branchPc is not a branch");

        const std::uint32_t ckpt = takeBpCheckpoint();
        bp::BranchPrediction pred = bp_.predict(branchPc, buop);

        SeqNum branchTs;
        bool misp = false;
        if (critOnPath_) {
            branchTs = critFetchBaseTs_ + len - 1;
            if (!oracle_.hasRecord(branchTs)) {
                bpCkptPool_.free(ckpt);
                beginCdfExit();
                return;
            }
            const isa::ExecRecord &brec = oracle_.at(branchTs);
            misp = pred.taken != brec.taken ||
                   (pred.taken && pred.target != brec.nextPc);
        } else {
            branchTs =
                wpRecords_[critWpBbBase_ + len - 1].ts;
        }

        dbq_->push({branchTs, pred.taken, pred.target, pred.btbMiss,
                    branchCritical ? kNoInst : ckpt});

        if (branchCritical) {
            const isa::ExecRecord &rec =
                critOnPath_ ? oracle_.at(branchTs)
                            : wpRecords_[critWpBbBase_ + len - 1].rec;
            DynInst *binst = makeInst(rec, branchTs, critOnPath_);
            binst->critical = true;
            binst->criticalStream = true;
            binst->cdfFetched = true;
            binst->bpCkpt = ckpt;
            binst->predTaken = pred.taken;
            binst->predTarget = pred.target;
            binst->btbMissBubble = pred.btbMiss;
            bpCkptPool_.at(ckpt).info = pred.tageInfo;
            binst->mispredicted = critOnPath_ && misp;
            critQ_.push(binst);
            --budget;
            ++statBranches_;
        }

        const Addr nextPc = pred.taken ? pred.target : branchPc + 1;
        if (critOnPath_) {
            critCoveredUpTo_ = critFetchBaseTs_ + len;
            if (misp) {
                critOnPath_ = false;
                walker_.restart(oracle_.frontierRegs());
                critWpNextTs_ = branchTs + 1;
            } else {
                critFetchBaseTs_ += len;
            }
        }
        crit_.moveTo(nextPc);

        // Chaining to the next trace costs one slot of uop-cache
        // bandwidth even when the block contributed no critical
        // uops; this also bounds the loop for all-empty regions.
        if (budget > 0)
            --budget;

        if (pred.btbMiss) {
            // Target resolves a stage later: charge a bubble.
            budget = 0;
        }
    }
}

// ---------------------------------------------------------------------
// Regular fetch stream in CDF mode
// ---------------------------------------------------------------------

Core::FetchGate
Core::regularCdfFetchGate()
{
    if (frontQ_.full())
        return FetchGate::Blocked;
    const bool wpLeft = wpConsumeIdx_ < wpRecords_.size();
    if (!regWrongPath_ && regNextTs_ >= critCoveredUpTo_) {
        // The critical fetch leads; wait. Graceful exit once it
        // drains and no wrong-path records remain.
        return cdfDraining_ && !wpLeft ? FetchGate::CdfExit
                                       : FetchGate::Blocked;
    }
    if (regWrongPath_ && !wpLeft)
        return FetchGate::Blocked; // wait for the critical fetch's walker
    // Branches need their DBQ entry; without it the stream cannot
    // know which way to go yet.
    if (dbq_->empty() &&
        (regWrongPath_ ? wpRecords_[wpConsumeIdx_].rec
                       : oracle_.at(regNextTs_))
            .uop.isBranch())
        return FetchGate::Blocked;
    return FetchGate::Progress;
}

void
Core::fetchRegularCdf(unsigned &budget)
{
    while (budget > 0) {
        const FetchGate gate = regularCdfFetchGate();
        if (gate == FetchGate::CdfExit)
            finishCdfExit();
        if (gate != FetchGate::Progress)
            return;

        const isa::ExecRecord *recp;
        SeqNum ts;
        bool onPath;
        bool critFlag = false;

        if (!regWrongPath_) {
            recp = &oracle_.at(regNextTs_);
            ts = regNextTs_;
            onPath = true;

            // Criticality bits from the BB info queue.
            while (!bbInfoQ_.empty()) {
                const BbInfo &bi = bbInfoQ_.front();
                if (ts >= bi.endTs()) {
                    bbInfoQ_.pop_front();
                    continue;
                }
                if (ts >= bi.baseTs)
                    critFlag = bi.critical(
                        static_cast<unsigned>(ts - bi.baseTs));
                break;
            }
        } else {
            const WpRecord &w = wpRecords_[wpConsumeIdx_];
            recp = &w.rec;
            ts = w.ts;
            critFlag = w.critical;
            onPath = false;
        }
        const isa::ExecRecord &rec = *recp;

        cdf::DbqEntry dbqEntry{};
        if (rec.uop.isBranch()) {
            SIM_ASSERT(dbq_->front().ts == ts,
                       "DBQ head out of sync: ", dbq_->front().ts,
                       " vs ", ts);
            dbqEntry = dbq_->front();
        }

        if (!icacheGate(rec.pc, budget))
            return;

        DynInst *inst = makeInst(rec, ts, onPath);
        inst->cdfFetched = true;
        inst->critical = critFlag;

        if (rec.uop.isBranch()) {
            dbq_->pop();
            inst->predTaken = dbqEntry.taken;
            inst->predTarget = dbqEntry.target;

            // A non-critical branch executes in the backend via the
            // regular stream and takes over the checkpoint taken at
            // critical-fetch prediction time; a critical one's
            // checkpoint stays with its critical copy.
            SIM_ASSERT((dbqEntry.ckpt != kNoInst) == !critFlag,
                       "DBQ entry ts ", ts,
                       critFlag ? " holds a checkpoint for a critical "
                                  "branch"
                                : " has no checkpoint for a non-critical "
                                  "branch");
            if (!critFlag) {
                inst->bpCkpt = dbqEntry.ckpt;
                inst->btbMissBubble = dbqEntry.btbMiss;
                ++statBranches_;
            }

            if (onPath) {
                const bool wrong =
                    dbqEntry.taken != rec.taken ||
                    (dbqEntry.taken && dbqEntry.target != rec.nextPc);
                // The critical copy owns the mispredict flag.
                inst->mispredicted = !critFlag && wrong;
                regNextTs_ = ts + 1;
                if (wrong)
                    regWrongPath_ = true;
            }
        } else {
            if (onPath) {
                regNextTs_ = ts + 1;
                if (rec.uop.isHalt())
                    fetchDoneHalt_ = true;
            }
        }
        if (!onPath)
            ++wpConsumeIdx_;

        frontQ_.push(inst);
        --budget;
        if (rec.uop.isHalt() && onPath)
            return;
    }
}

} // namespace cdfsim::ooo
