/**
 * @file
 * Idle-cycle fast-forward: when the core is provably quiescent —
 * every pipeline stage would be a no-op until some future event —
 * jump the clock to just before that event instead of ticking
 * through the gap one dead cycle at a time.
 *
 * The contract is bit-identity with ticking (test_stat_gate and the
 * on/off fuzz suite in tests/test_skip.cc hold it): a cycle may only
 * be skipped when its tick would change nothing except the
 * per-cycle accounting this file bulk-applies in closed form:
 *
 *   - core.cycles (statCycles_),
 *   - the full-window-stall classification at the retire tail
 *     (fullWindowStallCycles_ / stallCounting_),
 *   - the every-cycle MLP sample (outstanding DRAM miss counts are
 *     constant across the window because the jump never crosses the
 *     completion of an outstanding DRAM miss —
 *     RunningMean::addRepeated is exact for integral values),
 *   - the partition stall counter a blocked rename charges
 *     (SectionPartition::noteStall).
 *
 * Everything else is shown frozen: the completion heap's earliest
 * entry, the RS wakeup cache's lower bound (rsNextTry; parked
 * entries wake only from the completion broadcast, which cannot run
 * while quiescent), fetch-stall expiry, memory-hierarchy events
 * (MSHR and outstanding-DRAM-miss completions via
 * MemHierarchy::earliestEvent), pending store-data readiness, and
 * the PRE entry controller's minimum-stall threshold all bound the
 * jump; the deadlock watchdog and the run budget cap it so the
 * watchdog panic and the maxCycles exit land on exactly the cycles
 * they would have ticking.
 *
 * Rename, fetch, PRE entry and the per-cycle stats sample are not
 * re-derived here: the skip calls the rename and fetch gates,
 * runaheadCanStart and sampleCycleStats, as the tick does. Where a
 * test here is more conservative than the tick, a comment says why.
 */

#include <algorithm>

#include "common/logging.hh"
#include "ooo/core.hh"

namespace cdfsim::ooo
{

/**
 * First cycle strictly after now_ whose tick can do anything beyond
 * the bulk-accounted per-cycle stats. Returns now_ + 1 whenever the
 * core is not provably quiescent — the caller then just ticks.
 */
Cycle
Core::nextEventCycle()
{
    const Cycle tickNext = now_ + 1;

    // Modes with genuinely per-cycle machinery are never skipped:
    // runahead (budgeted shadow fetch every cycle) and the Fig. 1
    // observation run (fig1CriticalFrac_ samples are non-integral,
    // so no closed-form bulk update exists). CDF episodes ARE
    // skippable: both fetch engines and the partition controller are
    // modelled below.
    if (halted_ || raActive_ || config_.observeCriticality)
        return tickNext;

    // Post-episode partition release runs every cycle while the
    // critical cap drains; let it. (In CDF mode the caps are live
    // and handled by the partition bound below.) Conservative on
    // purpose: statsStage also waits for critQ_ to drain, but the
    // release lasts only a few cycles, not worth a closed form.
    if (!cdfMode_ && parts_[kRob] && rob_.criticalCap() > 0)
        return tickNext;

    Cycle bound = kNeverCycle;

    // Completion heap: nothing may finish inside the window. This
    // also freezes every PRF ready time and the RS wakeup broadcast.
    if (!completions_.empty()) {
        if (completions_.front().when <= tickNext)
            return tickNext;
        bound = completions_.front().when;
    }

    // Retire: the ROB head must not be retirable. Its state can only
    // change through the completion heap, bounded above.
    const DynInst *h = rob_.head();
    if (h && h->state == InstState::Completed &&
        !(h->criticalStream && !h->renamedRegular))
        return tickNext;

    // Rename: blocked, with a window-constant (at most one) stall
    // counter charge per stream. renameStage() stops each stream at
    // its first blocked check, and every input of the gates is
    // frozen while the core is quiescent (the regular gate's CMQ
    // too, since the critical stream is shown blocked), so one
    // verdict per stream holds for the whole window.
    const RenameGate regGate = regularRenameGate(bound);
    if (regGate == RenameGate::Progress)
        return tickNext;
    const RenameGate critGate = config_.mode == CoreMode::Cdf
                                    ? criticalRenameGate(bound)
                                    : RenameGate::Quiet;
    if (critGate == RenameGate::Progress)
        return tickNext;

    // Fetch: stalled, permanently halted, or every engine's gate
    // blocked. The queues that block an engine drain only through
    // rename or the other engine, both shown blocked here, so each
    // verdict holds for the whole window. A dry oracle counts as
    // blocked: the next fetched tick re-latches fetchDoneHalt_, which
    // is idempotent and not a stat, and fetch stays blocked either
    // way. A graceful CDF exit is progress. Checked before the
    // O(entries) scans below: an active frontend is the common reason
    // a retire-free cycle is not quiescent, and the gates detect it
    // in O(1).
    if (!fetchDoneHalt_) {
        if (fetchStallUntil_ > now_) {
            bound = std::min(bound, fetchStallUntil_);
        } else if (cdfMode_ ? criticalFetchGate() == FetchGate::Progress ||
                                  regularCdfFetchGate() != FetchGate::Blocked
                            : baselineFetchGate() == FetchGate::Progress) {
            return tickNext;
        }
    }

    // Execute: no resident RS entry may be (re)examined before the
    // bound. Entries due now must go through the scheduler — their
    // cached retry cycle can be stale-low after a port refusal.
    bool anyDue = false;
    const Cycle rsBound = rs_.earliestRetry(now_, anyDue);
    if (anyDue)
        return tickNext;
    bound = std::min(bound, rsBound);

    // Stores waiting on data complete the first cycle >= the data
    // register's ready time (frozen: no completions in the window).
    for (const DynInst *st : pendingStores_) {
        const Cycle r = st->physSrc2 == kInvalidReg
                            ? 0
                            : prf_.readyAt(st->physSrc2);
        if (r <= now_)
            return tickNext;
        bound = std::min(bound, r);
    }

    // Memory hierarchy: MSHR completions and outstanding-miss
    // completions. The MLP bulk update requires the latter — the
    // sampled counts are constant strictly inside the window.
    bound = std::min(bound, mem_.earliestEvent(now_));

    // CDF partition controller: statsStage runs evaluate() on every
    // in-mode cycle. With the per-cycle charge pattern frozen (the
    // rename classifications above), the first evaluate() that
    // actually resizes a cap is computable in closed form; resizes
    // change canInsert() outcomes, so that cycle must be ticked.
    // Zero-resize threshold crossings only cycle the counters and
    // are replayed by SectionPartition::advanceCounters().
    if (cdfMode_ && parts_[kRob]) {
        for (const Section s : kSections) {
            const SectionQueue &q = window(s);
            const Cycle k = parts_[s]->cyclesUntilCapChange(
                critGate == RenameGate(s), regGate == RenameGate(s),
                static_cast<unsigned>(q.criticalOccupancy()),
                static_cast<unsigned>(q.nonCriticalOccupancy()));
            if (k != kNeverCycle)
                bound = std::min(bound, now_ + k);
        }
    }

    // PRE entry controller: during a classified full-window stall on
    // an LLC-miss load it runs every cycle from the retire tail.
    // After the first stalled cycle (which latched stallCounting_
    // and charged the stall table) it is side-effect free until
    // either a frozen disqualifier keeps it out for the whole window
    // or the minimum-stall threshold passes — in which case entry
    // must happen on exactly that cycle.
    if (windowStalled() && config_.mode == CoreMode::Pre &&
        h->isLoad() && h->llcMiss) {
        if (!stallCounting_)
            return tickNext; // first stalled cycle: side effects
        if (runaheadCanStart(h)) {
            bound = std::min(bound,
                             stallStartCycle_ +
                                 config_.pre.minStallCyclesToEnter);
        }
    }

    return std::max(bound, tickNext);
}

/**
 * Apply the per-cycle accounting for @p n skipped cycles in closed
 * form. Every input below is constant across the window (see
 * nextEventCycle()), so this is exactly n iterations of the
 * corresponding per-tick code.
 */
void
Core::bulkAccountSkippedCycles(std::uint64_t n)
{
    statCycles_ += n;
    sampleCycleStats(n);

    // retireStage tail: full-window-stall classification. All inputs
    // are frozen (readyAtRename's comparison against the advancing
    // clock is window-constant because the jump is bounded by it).
    if (windowStalled())
        fullWindowStallCycles_ += n;
    else
        stallCounting_ = false;

    // renameStage: the per-cycle stall-counter charges (one per
    // stream), then — in CDF mode — statsStage's per-cycle
    // partition evaluate() replayed in closed form.
    Cycle unusedBound = kNeverCycle;
    const RenameGate regGate = regularRenameGate(unusedBound);
    const RenameGate critGate = config_.mode == CoreMode::Cdf
                                    ? criticalRenameGate(unusedBound)
                                    : RenameGate::Quiet;
    if (regGate == RenameGate::Progress ||
        critGate == RenameGate::Progress)
        panic("bulk-accounting cycles while rename can progress");

    if (cdfMode_ && parts_[kRob]) {
        for (const Section s : kSections) {
            const SectionQueue &q = window(s);
            parts_[s]->advanceCounters(
                critGate == RenameGate(s), regGate == RenameGate(s), n,
                static_cast<unsigned>(q.criticalOccupancy()),
                static_cast<unsigned>(q.nonCriticalOccupancy()));
        }
    } else {
        chargeRenameStall(regGate, false, n);
        chargeRenameStall(critGate, true, n);
    }
}

template <bool kProfiled>
bool
Core::maybeSkipIdleCycles(Cycle maxCycles)
{
    StageLap<kProfiled> lap{profile_};
    bool skipped = false;
    Cycle target = nextEventCycle();

    // The watchdog must fire on exactly the cycle it would have
    // firing ticking; that tick runs the (no-op) stages first, so
    // even the panic message matches.
    if (config_.deadlockCycles != 0) {
        const Cycle panicAt =
            config_.deadlockCycles >= kNeverCycle - lastRetireCycle_
                ? kNeverCycle
                : lastRetireCycle_ + config_.deadlockCycles + 1;
        target = std::min(target, panicAt);
    }

    if (target != kNeverCycle || maxCycles != kNeverCycle) {
        // Cycles through maxCycles would still be ticked by the run
        // loop (quiescently); anything past the budget is cut. With
        // no event and a finite budget the jump lands on the budget.
        const Cycle jumpTo =
            std::min(target == kNeverCycle ? maxCycles : target - 1,
                     maxCycles);
        if (jumpTo > now_) {
            const std::uint64_t n = jumpTo - now_;
            bulkAccountSkippedCycles(n);
            now_ = jumpTo;
            skippedCycles_ += n;
            ++skipEvents_;
            skipped = true;
        }
    }
    // else: quiescent forever with no budget and no watchdog — fall
    // back to ticking, preserving the no-skip livelock behaviour.

    // A failed scan means some stage is active; activity rarely dies
    // within a cycle or two, so back off instead of rescanning every
    // retire-free cycle. Costs at most the backoff in missed skip
    // opportunity per window, never bit-identity.
    if (!skipped)
        skipRecheckAt_ = now_ + 4;

    lap(StageProfile::Skip);
    return skipped;
}

template bool Core::maybeSkipIdleCycles<true>(Cycle);
template bool Core::maybeSkipIdleCycles<false>(Cycle);

/**
 * RS wakeup-cache audit (see ROADMAP "audit coverage growth"; the
 * idle-skip bound leans on rsNextTry, so silent corruption here
 * would now skew timing, not just scheduling order).
 *
 * Invariants:
 *  - every resident RS entry is Renamed;
 *  - a parked entry (rsNextTry == kNeverCycle) has a never-ready
 *    effective source and a live (pool handle, fetchSeq)
 *    registration on at least one such source;
 *  - a finite cached retry cycle equals the recomputed operand
 *    ready bound (sources of live entries cannot be recycled:
 *    the renewing instruction is younger and retires later);
 *  - a non-empty waiter list implies its register is never-ready
 *    (the completion broadcast clears the whole list), and every
 *    live registration points at a resident entry that names the
 *    register as an effective source and is parked or just woken.
 * Stale registrations (dead pool slot or recycled fetchSeq) are
 * legal; wakeRsWaiters filters them.
 */
void
Core::auditRsWakeupCache() const
{
    rs_.forEach([&](const DynInst *inst) {
        SIM_ASSERT(inst->state == InstState::Renamed,
                   "RS entry ts ", inst->ts, " is not in Renamed state");
        const auto [r1, r2] = operandsReadyAt(inst);
        const Cycle wait = std::max(r1, r2);
        if (inst->rsNextTry == kNeverCycle) {
            SIM_ASSERT(wait == kNeverCycle,
                       "RS entry ts ", inst->ts,
                       " parked but no source is never-ready");
            bool registered = false;
            auto findWaiter = [&](RegId r, Cycle ready) {
                if (r == kInvalidReg || ready != kNeverCycle)
                    return;
                for (const auto &[idx, seq] : regWaiters_[r]) {
                    if (idx == inst->poolIdx && seq == inst->fetchSeq)
                        registered = true;
                }
            };
            // A memory op's data source reads as ready (r2 == 0), so
            // it is never searched.
            findWaiter(inst->physSrc1, r1);
            findWaiter(inst->physSrc2, r2);
            SIM_ASSERT(registered,
                       "RS entry ts ", inst->ts,
                       " parked with no live waiter registration");
        } else if (inst->rsNextTry != 0) {
            SIM_ASSERT(wait != kNeverCycle,
                       "RS entry ts ", inst->ts,
                       " caches a finite retry cycle ",
                       inst->rsNextTry,
                       " but a source is never-ready");
            SIM_ASSERT(inst->rsNextTry == wait,
                       "RS entry ts ", inst->ts,
                       " caches retry cycle ", inst->rsNextTry,
                       " but its operands are ready at ", wait);
        }
    });

    for (std::size_t i = 0; i < regWaiters_.size(); ++i) {
        const RegId r = static_cast<RegId>(i);
        const auto &waiters = regWaiters_[i];
        if (waiters.empty())
            continue;
        SIM_ASSERT(prf_.readyAt(r) == kNeverCycle,
                   "waiter list for phys reg ", r,
                   " is non-empty but the register is ready at ",
                   prf_.readyAt(r));
        for (const auto &[idx, seq] : waiters) {
            if (!inflightPool_.alive(idx))
                continue; // squashed and freed: stale, legal
            const DynInst &w = inflightPool_.at(idx);
            if (w.fetchSeq != seq)
                continue; // slot recycled: stale, legal
            SIM_ASSERT(w.state == InstState::Renamed,
                       "live waiter ts ", w.ts, " on phys reg ", r,
                       " is not resident in the RS");
            const bool wMemOp = w.isLoad() || w.isStore();
            SIM_ASSERT(w.physSrc1 == r ||
                           (!wMemOp && w.physSrc2 == r),
                       "live waiter ts ", w.ts,
                       " does not read phys reg ", r);
            SIM_ASSERT(w.rsNextTry == 0 ||
                           w.rsNextTry == kNeverCycle,
                       "live waiter ts ", w.ts,
                       " caches a finite retry cycle ", w.rsNextTry);
        }
    }
}

} // namespace cdfsim::ooo
