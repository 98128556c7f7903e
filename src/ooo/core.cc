#include "ooo/core.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/logging.hh"
#include "ooo/trace_env.hh"

namespace cdfsim::ooo
{

namespace
{

/** Uops per instruction cache line (8B encoding per uop). */
constexpr Addr kUopsPerLine = kLineBytes / 8;

/** @p c, checked before any member is built from it. A zero
 *  width or size leaves a stage that never moves or a queue that
 *  cannot be built. */
const CoreConfig &
checkedConfig(const CoreConfig &c)
{
    const std::pair<const char *, unsigned> sizes[] = {
        {"width", c.width}, {"issue_width", c.issueWidth},
        {"rob_size", c.robSize}, {"rs_size", c.rsSize},
        {"lq_size", c.lqSize}, {"sq_size", c.sqSize},
        {"fetch_queue_size", c.fetchQueueSize},
        {"max_loads_per_cycle", c.maxLoadsPerCycle},
        {"max_stores_per_cycle", c.maxStoresPerCycle},
        {"cdf.dbq_entries", c.cdf.dbqEntries},
        {"cdf.cmq_entries", c.cdf.cmqEntries}};
    for (const auto &[key, value] : sizes) {
        if (value == 0)
            fatal(key, " must be at least 1");
    }
    if (c.physRegs < c.robSize + kNumArchRegs)
        fatal("physRegs (", c.physRegs,
              ") must cover ROB + architectural state");
    return c;
}

} // namespace

Core::Core(const CoreConfig &config, const isa::Program &program,
           isa::MemoryImage &memory, StatRegistry &stats)
    : config_(checkedConfig(config)),
      stats_(stats),
      oracle_(program, memory),
      walker_(program, memory),
      mem_(config.mem, stats),
      bp_(config.bp, stats),
      prf_(config.physRegs),
      rob_(config.robSize),
      lsq_(config.lqSize, config.sqSize),
      rs_(config.rsSize),
      frontQ_(config.fetchQueueSize),
      critQ_(config.fetchQueueSize),
      statCycles_(stats.counter("core.cycles")),
      statRetired_(stats.counter("core.retired_instrs")),
      statFetched_(stats.counter("core.fetched_uops")),
      statFetchedWrongPath_(stats.counter("core.fetched_wrongpath_uops")),
      statRenamed_(stats.counter("core.renamed_uops")),
      statRenamedCritical_(stats.counter("core.renamed_critical_uops")),
      statIssued_(stats.counter("core.issued_uops")),
      statBranches_(stats.counter("core.branches")),
      statMispredicts_(stats.counter("core.mispredicts")),
      statLlcMissLoads_(stats.counter("core.llc_miss_loads")),
      statDepViolations_(stats.counter("core.dependence_violations")),
      statMemOrderViolations_(
          stats.counter("core.memory_order_violations")),
      statCdfEpisodes_(stats.counter("core.cdf_episodes")),
      statCdfExitsUopMiss_(stats.counter("core.cdf_exits_uop_miss")),
      statRunaheadEpisodes_(stats.counter("core.runahead_episodes")),
      statRunaheadUops_(stats.counter("core.runahead_uops")),
      statRunaheadLoads_(stats.counter("core.runahead_loads")),
      statRunaheadTraceMiss_(
          stats.counter("core.runahead_trace_misses"))
{
    regWaiters_.resize(config_.physRegs);
    completions_.reserve(config_.robSize + 8);
    completionsScratch_.reserve(config_.robSize + 8);
    mem_.enableProfile(config_.profileStages);

    const bool wantsCdfStructures =
        config_.mode == CoreMode::Cdf || config_.observeCriticality;

    if (wantsCdfStructures) {
        loadCct_ = std::make_unique<cdf::CriticalCountTable>(
            config_.cdf.loadTable, stats_, "cct_loads");
        branchCct_ = std::make_unique<cdf::CriticalCountTable>(
            config_.cdf.branchTable, stats_, "cct_branches");
        maskCache_ =
            std::make_unique<cdf::MaskCache>(config_.cdf.maskCache, stats_);
        uopCache_ = std::make_unique<cdf::CriticalUopCache>(
            config_.cdf.uopCache, stats_);
        fillBuffer_ = std::make_unique<cdf::FillBuffer>(
            config_.cdf.fillBuffer, *maskCache_, *uopCache_, stats_);
    }

    if (config_.mode == CoreMode::Cdf) {
        const auto &p = config_.cdf.partition;
        const double frac = p.initialCriticalFrac;
        if (!(frac >= 0.0 && frac <= 1.0)) {
            fatal("cdf.partition.initial_critical_frac (", frac,
                  ") is outside [0, 1]");
        }
        static constexpr const char *kNames[] = {"rob", "lq", "sq"};
        for (const Section s : kSections) {
            const bool isRob = s == kRob;
            const unsigned size = window(s).size();
            const unsigned minSec = isRob ? p.minSection : p.minLsqSection;
            if (size <= 2 * std::uint64_t{minSec}) {
                fatal("cdf.partition.",
                      isRob ? "min_section" : "min_lsq_section", " (",
                      minSec, ") leaves no room to partition the ", size,
                      "-entry ", kNames[s]);
            }
            parts_[s] = std::make_unique<cdf::SectionPartition>(
                kNames[s], size, isRob ? p.robStep : p.lsqStep, minSec,
                p.stallThreshold, p.dynamic, frac, stats_);
        }
        dbq_ = std::make_unique<cdf::DelayedBranchQueue>(
            config_.cdf.dbqEntries);
        cmq_ = std::make_unique<cdf::CriticalMapQueue>(
            config_.cdf.cmqEntries);
    }

    if (config_.mode != CoreMode::Cdf) {
        // No RS partitioning outside CDF; observational criticality
        // marks (Fig. 1 mode) must not trip the critical cap.
        rs_.setCriticalCap(config_.rsSize);
    }

    if (config_.mode == CoreMode::Pre) {
        stallTable_ = std::make_unique<cdf::CriticalCountTable>(
            config_.pre.stallTable, stats_, "pre_stall_table");
        maskCache_ =
            std::make_unique<cdf::MaskCache>(config_.pre.maskCache, stats_);
        uopCache_ = std::make_unique<cdf::CriticalUopCache>(
            config_.pre.uopCache, stats_);
        fillBuffer_ = std::make_unique<cdf::FillBuffer>(
            config_.pre.fillBuffer, *maskCache_, *uopCache_, stats_);
        lastRetiredLoadAddr_.assign(program.size(), kNoLoadAddr);
    }
}

Core::~Core() = default;

SectionQueue &
Core::window(Section s)
{
    return s == kRob ? rob_ : s == kLq ? lsq_.lq() : lsq_.sq();
}

const SectionQueue &
Core::window(Section s) const
{
    return s == kRob ? rob_ : s == kLq ? lsq_.lq() : lsq_.sq();
}

// ---------------------------------------------------------------------
// Instruction lifecycle
// ---------------------------------------------------------------------

DynInst *
Core::makeInst(const isa::ExecRecord &rec, SeqNum ts, bool onPath)
{
    const std::uint32_t idx = inflightPool_.allocate();
    DynInst *inst = &inflightPool_.at(idx);
    inst->poolIdx = idx;
    inst->prevIdx = inflightTail_;
    if (inflightTail_ != kNoInst)
        inflightPool_.at(inflightTail_).nextIdx = idx;
    else
        inflightHead_ = idx;
    inflightTail_ = idx;

    inst->fetchSeq = fetchSeqCounter_++;
    inst->ts = ts;
    inst->pc = rec.pc;
    inst->uop = rec.uop;
    inst->onPath = onPath;
    inst->memAddr = rec.memAddr;
    inst->taken = rec.taken;
    inst->actualTarget = rec.nextPc;
    inst->fetchCycle = now_;
    inst->readyAtRename = now_ + config_.frontendDepth;

    ++statFetched_;
    if (!onPath)
        ++statFetchedWrongPath_;
    if (traceTs(ts)) {
        std::fprintf(stderr,
                     "[%lu] MAKE ts=%lu pc=%lu onPath=%d %s\n", now_,
                     ts, rec.pc, onPath,
                     isa::toString(rec.uop).c_str());
    }
    return inst;
}

void
Core::destroyInst(DynInst *inst)
{
    if (inst->bpCkpt != kNoInst)
        bpCkptPool_.free(inst->bpCkpt);
    if (inst->prevIdx != kNoInst)
        inflightPool_.at(inst->prevIdx).nextIdx = inst->nextIdx;
    else
        inflightHead_ = inst->nextIdx;
    if (inst->nextIdx != kNoInst)
        inflightPool_.at(inst->nextIdx).prevIdx = inst->prevIdx;
    else
        inflightTail_ = inst->prevIdx;
    inflightPool_.free(inst->poolIdx);
}

std::uint32_t
Core::takeBpCheckpoint()
{
    const std::uint32_t h = bpCkptPool_.allocate();
    bp_.checkpointInto(bpCkptPool_.at(h));
    return h;
}

// ---------------------------------------------------------------------
// Tick and run
// ---------------------------------------------------------------------

const char *
StageProfile::name(unsigned stage)
{
    static const char *const kNames[kNumStages] = {
        "retire", "completion", "execute", "rename", "fetch", "stats",
        "skip",
    };
    SIM_ASSERT(stage < kNumStages, "bad stage");
    return kNames[stage];
}

void
Core::tick()
{
    if (config_.profileStages)
        tickAs<true>();
    else
        tickAs<false>();
}

template <bool kProfiled>
void
Core::tickAs()
{
    ++now_;
    ++statCycles_;
    if constexpr (kProfiled)
        ++profile_.ticks;

    StageLap<kProfiled> lap{profile_};
    retireStage();
    lap(StageProfile::Retire);
    if (halted_)
        return;
    completionStage();
    lap(StageProfile::Completion);
    executeStage();
    lap(StageProfile::Execute);
    renameStage();
    lap(StageProfile::Rename);
    fetchStage();
    lap(StageProfile::Fetch);
    statsStage();
    lap(StageProfile::Stats);
    if (halted_)
        return;

    if (config_.deadlockCycles != 0 &&
        now_ - lastRetireCycle_ > config_.deadlockCycles) {
        const DynInst *h = rob_.head();
        const DynInst *fq =
            frontQ_.empty() ? nullptr : frontQ_.front();
        panic("deadlock: no retirement for ", config_.deadlockCycles,
              " cycles at cycle ", now_, " retired=", retiredInstrs_,
              " robOcc=", rob_.occupancy(),
              " robCritOcc=", rob_.criticalOccupancy(),
              " robCritCap=", rob_.criticalCap(),
              " cdfMode=", cdfMode_, " draining=", cdfDraining_,
              " head=",
              h ? std::to_string(h->ts) + "/st" +
                      std::to_string(static_cast<int>(h->state)) +
                      "/crit" + std::to_string(h->criticalStream) +
                      "/rr" + std::to_string(h->renamedRegular)
                : "none",
              " frontQ=", frontQ_.size(),
              " front=",
              fq ? std::to_string(fq->ts) + "/crit" +
                       std::to_string(fq->critical)
                 : "none",
              " critQ=", critQ_.size(), " cmq=",
              cmq_ ? std::to_string(cmq_->size()) : "-", " dbq=",
              dbq_ ? std::to_string(dbq_->size()) : "-",
              " regNextTs=", regNextTs_, " regWp=", regWrongPath_,
              " covered=", critCoveredUpTo_,
              " nextFetchTs=", nextFetchTs_, " wrongPath=", wrongPath_,
              " fetchHalt=", fetchDoneHalt_, " stallUntil=",
              fetchStallUntil_, " raActive=", raActive_,
              " rsOcc=", rs_.occupancy(), " prfFree=", prf_.numFree(),
              " critStuck=", critWpStuck_, " headUop=",
              h ? isa::toString(h->uop) : "-", " s1=",
              h ? std::to_string(h->physSrc1) + "@" +
                      std::to_string(prf_.readyAt(
                          h->physSrc1 == kInvalidReg ? 0
                                                     : h->physSrc1))
                : "-",
              " s2=",
              h ? std::to_string(h->physSrc2) + "@" +
                      std::to_string(prf_.readyAt(
                          h->physSrc2 == kInvalidReg ? 0
                                                     : h->physSrc2))
                : "-");
    }
}

CoreResult
Core::run(std::uint64_t maxRetired, Cycle maxCycles)
{
    if (config_.profileStages)
        runAs<true>(maxRetired, maxCycles);
    else
        runAs<false>(maxRetired, maxCycles);
    return result();
}

template <bool kProfiled>
void
Core::runAs(std::uint64_t maxRetired, Cycle maxCycles)
{
    while (!halted_ && retiredInstrs_ < maxRetired &&
           now_ < maxCycles) {
        // Fast-forward provably dead cycles. On a jump, re-check the
        // loop condition (the budget may expire inside the gap); the
        // following tick then executes the event cycle normally.
        // The quiescence scan is gated on cheap heuristics so busy
        // phases pay a compare, not a scan: a cycle that retired
        // cannot be the start of a dead window, and a failed scan
        // rate-limits itself (skipRecheckAt_). Gating only delays
        // skips — the skipped cycles are pure no-ops either way — so
        // stats stay bit-identical.
        if (config_.skipIdleCycles && now_ > lastRetireCycle_ &&
            now_ >= skipRecheckAt_ &&
            maybeSkipIdleCycles<kProfiled>(maxCycles))
            continue;
        tickAs<kProfiled>();
    }
}

void
Core::resetMeasurement()
{
    stats_.resetAll();
    measureStartCycle_ = now_;
    measureStartRetired_ = retiredInstrs_;
    mlpWhenActive_.reset();
    uselessMlpWhenActive_.reset();
    fig1CriticalFrac_.reset();
    fullWindowStallCycles_ = 0;
    cdfModeCycles_ = 0;
    skippedCycles_ = 0;
    skipEvents_ = 0;
}

CoreResult
Core::result() const
{
    CoreResult r;
    r.retiredInstrs = retiredInstrs_ - measureStartRetired_;
    r.cycles = now_ - measureStartCycle_;
    r.ipc = r.cycles == 0
                ? 0.0
                : static_cast<double>(r.retiredInstrs) /
                      static_cast<double>(r.cycles);
    r.mlp = mlpWhenActive_.mean();
    r.uselessMlp = uselessMlpWhenActive_.mean();
    r.dramBytes = stats_.get("dram.bytes_read") +
                  stats_.get("dram.bytes_written");
    const double kinstr =
        r.retiredInstrs == 0 ? 1.0 : r.retiredInstrs / 1000.0;
    r.branchMpki = static_cast<double>(statMispredicts_) / kinstr;
    r.llcMpki = static_cast<double>(statLlcMissLoads_) / kinstr;
    r.cdfModeFraction =
        r.cycles == 0 ? 0.0
                      : static_cast<double>(cdfModeCycles_) / r.cycles;
    r.fullWindowStallFraction =
        r.cycles == 0
            ? 0.0
            : static_cast<double>(fullWindowStallCycles_) / r.cycles;
    r.robCriticalFraction = fig1CriticalFrac_.mean();
    r.halted = halted_;
    return r;
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

bool
Core::frontStopped() const
{
    return fetchDoneHalt_ || fetchStallUntil_ > now_;
}

/**
 * Gate fetch on the instruction cache: crossing into a new line
 * costs an I-cache access; a miss stalls fetch until the fill.
 * Returns false when fetch must stop this cycle.
 */
bool
Core::icacheGate(Addr pc, unsigned &budget)
{
    const Addr line = pc / kUopsPerLine;
    if (line == lastFetchLine_)
        return true;
    const Cycle ready = mem_.instrAccess(pc, now_);
    lastFetchLine_ = line;
    if (ready > now_ + config_.mem.l1i.latency) {
        fetchStallUntil_ = ready;
        budget = 0;
        return false;
    }
    return true;
}

void
Core::fetchStage()
{
    if (raActive_ && now_ >= raEndCycle_)
        exitRunahead();

    if (frontStopped())
        return;

    unsigned budget = config_.width;

    if (raActive_) {
        // Precise Runahead: the frontend fetches stalling slices from
        // the uop cache instead of the normal stream.
        runaheadStep(budget);
        return;
    }

    if (config_.mode == CoreMode::Cdf && cdfMode_) {
        // Both fetch engines run in parallel with their own
        // bandwidth (separate structures: uop cache vs I-cache).
        unsigned critBudget = config_.width;
        fetchCriticalCdf(critBudget);
        fetchRegularCdf(budget);
        return;
    }

    fetchRegularBaseline(budget);
}

Core::FetchGate
Core::baselineFetchGate()
{
    if (frontQ_.full())
        return FetchGate::Blocked;
    if (wrongPath_) { // garbage or a halt: stall until recovery
        return oracle_.program().walkable(wrongPathPc_) ? FetchGate::Progress
                                                        : FetchGate::Blocked;
    }
    return oracle_.hasRecord(nextFetchTs_) ? FetchGate::Progress
                                           : FetchGate::OracleDry;
}

void
Core::fetchRegularBaseline(unsigned &budget)
{
    while (budget > 0) {
        const FetchGate gate = baselineFetchGate();
        if (gate == FetchGate::OracleDry)
            fetchDoneHalt_ = true;
        if (gate != FetchGate::Progress)
            return;

        // Pick the next record: oracle when on the correct path,
        // functional wrong-path walk otherwise.
        const isa::ExecRecord *recp;
        isa::ExecRecord wpRec;
        SeqNum ts;
        if (!wrongPath_) {
            recp = &oracle_.at(nextFetchTs_);
            ts = nextFetchTs_;

            // CDF entry check at basic-block starts.
            if (config_.mode == CoreMode::Cdf && fetchAtBbStart_) {
                maybeEnterCdfMode(recp->pc, ts);
                if (cdfMode_)
                    return;
            }
        } else {
            walker_.executeInto(wpRec, wrongPathPc_);
            recp = &wpRec;
            ts = ++wrongPathTs_;
        }
        const isa::ExecRecord &rec = *recp;

        if (!icacheGate(rec.pc, budget))
            return;

        DynInst *inst = makeInst(rec, ts, !wrongPath_);
        inst->critical = false;

        // Fig. 1 observation: mark using the trained mask cache.
        if (config_.observeCriticality && maskCache_) {
            if (fetchAtBbStart_) {
                fetchBbStartPc_ = rec.pc;
                fetchBbOffset_ = 0;
            }
            auto mask = maskCache_->lookup(fetchBbStartPc_);
            if (mask && fetchBbOffset_ < 64 &&
                ((*mask >> fetchBbOffset_) & 1)) {
                inst->critical = true;
            }
        }

        bool endGroup = false;
        if (inst->isBranch()) {
            ++statBranches_;
            inst->bpCkpt = takeBpCheckpoint();
            auto pred = bp_.predict(rec.pc, rec.uop);
            inst->predTaken = pred.taken;
            inst->predTarget = pred.target;
            inst->btbMissBubble = pred.btbMiss;

            if (!wrongPath_) {
                const bool correct = pred.taken == rec.taken &&
                                     (!pred.taken ||
                                      pred.target == rec.nextPc);
                inst->mispredicted = !correct;
                if (inst->mispredicted) {
                    wrongPath_ = true;
                    wrongPathTs_ = ts;
                    wrongPathPc_ =
                        pred.taken ? pred.target : rec.pc + 1;
                    walker_.restart(oracle_.frontierRegs());
                } else {
                    ++nextFetchTs_;
                }
            } else {
                wrongPathPc_ = pred.taken ? pred.target : rec.pc + 1;
            }

            if (pred.taken)
                endGroup = true;
            if (pred.btbMiss) {
                fetchStallUntil_ = now_ + config_.btbMissPenalty;
                endGroup = true;
            }
            fetchAtBbStart_ = true;
            ++fetchBbOffset_; // branch occupies a slot in its block
        } else {
            if (!wrongPath_) {
                ++nextFetchTs_;
            } else {
                ++wrongPathPc_;
            }
            fetchAtBbStart_ = false;
            ++fetchBbOffset_;
            if (rec.uop.isHalt()) {
                fetchDoneHalt_ = true;
                endGroup = true;
            }
        }

        frontQ_.push(inst);
        --budget;
        if (endGroup)
            return;
    }
}

void
Core::sampleCycleStats(std::uint64_t n)
{
    // MLP sampling (Fig. 14): outstanding DRAM misses when active.
    // Idle-skip never jumps across a change in these counts, and
    // addRepeated sums a repeated integral value exactly.
    const unsigned demand = mem_.outstandingDemandMisses(now_);
    const unsigned useless = mem_.outstandingUselessMisses(now_);
    if (demand + useless > 0) {
        mlpWhenActive_.addRepeated(static_cast<double>(demand + useless),
                                   n);
        uselessMlpWhenActive_.addRepeated(static_cast<double>(useless), n);
    }
    if (cdfMode_)
        cdfModeCycles_ += n;
}

void
Core::statsStage()
{
    sampleCycleStats(1);

    // After a CDF episode ends, the critical sections shrink as
    // their instructions retire (Section 3.6). Pending critical
    // uops in critQ_ still need slots, so release only once the
    // critical frontend has drained.
    if (!cdfMode_ && parts_[kRob] && rob_.criticalCap() > 0 &&
        critQ_.empty()) {
        releasePartitionCaps();
    }

    // Dynamic partition evaluation (Section 3.5).
    if (cdfMode_ && parts_[kRob]) {
        for (const Section s : kSections) {
            const SectionQueue &q = window(s);
            parts_[s]->evaluate(
                static_cast<unsigned>(q.criticalOccupancy()),
                static_cast<unsigned>(q.nonCriticalOccupancy()));
        }
        applyPartitionCaps();
    }
}

} // namespace cdfsim::ooo
