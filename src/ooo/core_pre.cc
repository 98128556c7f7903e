/**
 * @file
 * Precise Runahead comparator (paper Section 4.1 methodology).
 *
 * PRE is implemented with the same marking and fetching machinery as
 * CDF, except (a) only loads that cause full-window stalls seed the
 * dependence-chain walk, (b) chains are fetched from the Critical
 * Uop Cache only during a full-window stall, and (c) runahead
 * execution is discarded: chain loads are issued as prefetches with
 * no architectural effect. Runahead execution uses the free RS/PRF
 * entries, so entry/exit is cheap (no EMQ; see the paper's PRE
 * notes).
 *
 * Chain values are produced by a shadow functional walk seeded from
 * the fetch-frontier register state, with taint tracking rooted at
 * the stalled load's destination: chain loads whose address depends
 * on the outstanding miss prefetch garbage, exactly the wasted
 * traffic Figs. 14-15 attribute to runahead.
 */

#include "common/logging.hh"
#include "ooo/core.hh"

namespace cdfsim::ooo
{

namespace
{

/** Deterministic garbage line address for taint-dependent loads. */
Addr
garbageAddr(Addr pc, std::uint64_t salt)
{
    std::uint64_t h = pc * 0x9E3779B97F4A7C15ull + salt;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 32;
    // A wild region far above normal workload footprints.
    return (Addr{1} << 38) + (h % (1u << 22)) * kLineBytes;
}

/**
 * One step of the shadow walk's taint propagation: @p uop's result
 * is unavailable iff a source is. Returns whether it read a tainted
 * register.
 */
bool
propagateTaint(std::bitset<kNumArchRegs> &taint, const isa::Uop &uop)
{
    const bool tainted = (uop.src1 != kInvalidReg && taint[uop.src1]) ||
                         (uop.src2 != kInvalidReg && taint[uop.src2]);
    if (uop.writesReg())
        taint[uop.dst] = tainted;
    return tainted;
}

} // namespace

bool
Core::runaheadCanStart(const DynInst *head)
{
    if (wrongPath_ || nextFetchTs_ == 0)
        return false; // no reliable frontier to run ahead from
    if (head->completionCycle == kNeverCycle ||
        head->completionCycle <= now_)
        return false;
    // Runahead starts at the next un-fetched instruction.
    return oracle_.hasRecord(nextFetchTs_ - 1) &&
           oracle_.program().validPc(oracle_.at(nextFetchTs_ - 1).nextPc);
}

void
Core::maybeEnterRunahead(const DynInst *head)
{
    if (config_.mode != CoreMode::Pre || raActive_)
        return;

    if (!stallCounting_) {
        stallCounting_ = true;
        stallStartCycle_ = now_;
        // PRE's criticality signal: this load caused a full-window
        // stall.
        stallTable_->update(head->pc, true);
    }

    if (now_ - stallStartCycle_ < config_.pre.minStallCyclesToEnter ||
        !runaheadCanStart(head))
        return;
    const Addr startPc = oracle_.at(nextFetchTs_ - 1).nextPc;

    raActive_ = true;
    ++statRunaheadEpisodes_;
    raEndCycle_ = head->completionCycle;
    raEpisodeLoads_ = 0;
    raBpCkpt_ = bp_.checkpoint();
    walker_.restart(oracle_.frontierRegs());

    // Runahead only has the values that are actually available in
    // the physical registers: any architectural register whose
    // newest in-flight producer has not completed is unknown. Seed
    // the taint from the in-flight window (the walker's shadow
    // registers are oracle values, which the machine does not have
    // for outstanding loads and their dependents).
    // Outstanding LOAD results are unknown, and so is anything
    // data-dependent on them; pure ALU chains re-execute fine in
    // runahead and stay available. Walk the window in program
    // order, propagating unavailability through the dataflow.
    raTaint_.reset();
    for (std::uint32_t i = inflightHead_; i != kNoInst;
         i = inflightPool_.at(i).nextIdx) {
        const DynInst &inst = inflightPool_.at(i);
        if (!inst.onPath || !inst.uop.writesReg())
            continue;
        if (inst.state == InstState::Completed)
            raTaint_[inst.uop.dst] = false;
        else if (inst.isLoad())
            raTaint_[inst.uop.dst] = true;
        else
            propagateTaint(raTaint_, inst.uop);
    }

    // The frontend usually stops mid-block; walk forward through the
    // shadow state until a cached basic-block boundary is reached so
    // chain fetch can engage (chains are tagged by block starts).
    Addr pc = startPc;
    for (unsigned i = 0; i < config_.pre.bbScanLimit; ++i) {
        if (uopCache_->contains(pc))
            break;
        if (!oracle_.program().walkable(pc))
            break;
        propagateTaint(raTaint_, oracle_.program().at(pc));
        pc = walker_.execute(pc).nextPc;
    }
    ra_.moveTo(pc);
}

void
Core::exitRunahead()
{
    raActive_ = false;
    walker_.deactivate();
    // Branch predictions made while fetching chains are speculative
    // only; restore the checkpoint taken at entry.
    bp_.restore(raBpCkpt_);
}

void
Core::runaheadStep(unsigned &budget)
{
    // fetchStage has already ended an episode whose stall resolved.
    // Runahead loads share the core's load ports and MSHRs: cap the
    // per-cycle issue rate and pause when the miss buffers are full,
    // as real PRE is bound by the free backend resources. A
    // per-episode budget bounds how much (possibly wrong) chain
    // traffic one stall can generate.
    unsigned loadBudget = config_.maxLoadsPerCycle;
    if (mem_.outstandingDemandMisses(now_) >= config_.mem.l1d.mshrs)
        return;
    if (raEpisodeLoads_ >= config_.pre.maxChainLoadsPerEpisode)
        return;

    while (budget > 0) {
        if (!ra_.valid) {
            if (!ra_.load(*uopCache_, now_)) {
                ++statRunaheadTraceMiss_;
                return; // no chain to fetch from here
            }

            // Shadow-execute the whole block, propagating taint.
            raBbRecs_.clear();
            raBbRecs_.reserve(ra_.trace.blockLength);
            for (unsigned off = 0; off < ra_.trace.blockLength;
                 ++off) {
                const Addr pc = ra_.trace.startPc + off;
                if (!oracle_.program().walkable(pc)) {
                    ra_.valid = false;
                    return; // unwalkable: runahead idles
                }
                const isa::Uop &uop = oracle_.program().at(pc);
                isa::ExecRecord rec = walker_.execute(pc);
                const bool tainted = propagateTaint(raTaint_, uop);
                // A load whose address chain involves an
                // unavailable register computes with stale values:
                // usually the PREVIOUS committed address of the same
                // static load (harmless re-reference), sometimes an
                // arbitrary wrong line (the extra memory traffic the
                // paper attributes to runahead).
                if (tainted && uop.isLoad()) {
                    const Addr last = lastRetiredLoadAddr_[pc];
                    if (last != kNoLoadAddr && (raChainLoads_ & 3) != 0) {
                        rec.memAddr = last;
                    } else {
                        rec.memAddr = garbageAddr(pc, raChainLoads_);
                    }
                }
                raBbRecs_.push_back(rec);
            }
        }

        // Issue the chain (critical) uops of the block.
        const cdf::BbTrace &trace = ra_.trace;
        while (ra_.idx < trace.uops.size() && budget > 0) {
            const cdf::TraceUop &tu = trace.uops[ra_.idx];
            const isa::ExecRecord &rec =
                raBbRecs_[tu.offsetInBlock];
            if (rec.uop.isLoad()) {
                if (loadBudget == 0)
                    return; // load ports exhausted this cycle
                ++statRunaheadUops_;
                --budget;
                ++ra_.idx;
                ++statRunaheadLoads_;
                ++raChainLoads_;
                ++raEpisodeLoads_;
                --loadBudget;
                // Skip lines already present or in flight at the
                // LLC: runahead prefetches each miss once. The
                // memoized classifier answers repeat probes of the
                // same chain without walking the tag arrays.
                if (mem_.wouldMissLlc(rec.memAddr)) {
                    mem_.dataAccess(rec.memAddr,
                                    mem::AccessKind::RunaheadLoad,
                                    now_);
                }
            } else {
                ++statRunaheadUops_;
                --budget;
                ++ra_.idx;
            }
        }
        if (ra_.idx < trace.uops.size())
            return; // budget exhausted mid-block

        // Chain to the next block via a (speculative) prediction.
        if (!trace.endsInBranch) {
            ra_.valid = false;
            return; // cannot chain further this stall
        }
        const Addr branchPc = trace.branchPc;
        const isa::Uop &buop = oracle_.program().at(branchPc);
        auto pred = bp_.predict(branchPc, buop);
        ra_.moveTo(pred.taken ? pred.target : branchPc + 1);
        // Chaining costs a slot of chain-fetch bandwidth even for
        // blocks that contributed no chain uops (bounds this loop).
        if (budget > 0)
            --budget;
        if (!oracle_.program().validPc(ra_.pc))
            return;
    }
}

} // namespace cdfsim::ooo
