/**
 * @file
 * The execution-driven, cycle-level out-of-order core, with the CDF
 * mechanism (paper Section 3) and the Precise Runahead comparator
 * (Section 4.1) integrated into its pipeline.
 *
 * The timing model binds every correct-path instruction to the
 * functional oracle, so the retired instruction stream is correct by
 * construction and checked by assertion (timestamps must retire
 * contiguously). Wrong-path fetch is modelled functionally through
 * one WrongPathWalker so speculative memory traffic is realistic. It
 * has three roles that never overlap: the baseline wrong path, the
 * wrong path both CDF streams share, and PRE's shadow walk. CDF and
 * PRE episodes start only while the baseline frontend is on the
 * correct path, only one frontend fetches at a time, and each role
 * ends its walk (recovery, episode end) before another can start;
 * WrongPathWalker::restart panics on a live walk.
 */

#ifndef CDFSIM_OOO_CORE_HH
#define CDFSIM_OOO_CORE_HH

#include <array>
#include <chrono>
#include <deque>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "bp/predictor.hh"
#include "cdf/critical_table.hh"
#include "common/audit.hh"
#include "cdf/fifos.hh"
#include "cdf/fill_buffer.hh"
#include "cdf/mask_cache.hh"
#include "cdf/partition.hh"
#include "cdf/uop_cache.hh"
#include "common/circular_queue.hh"
#include "common/histogram.hh"
#include "common/pool.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "isa/oracle.hh"
#include "mem/hierarchy.hh"
#include "ooo/core_config.hh"
#include "ooo/dyn_inst.hh"
#include "ooo/lsq.hh"
#include "ooo/rename.hh"
#include "ooo/section_queue.hh"
#include "ooo/rs.hh"

namespace cdfsim::ooo
{

/** Aggregate results of a simulation run. */
struct CoreResult
{
    std::uint64_t retiredInstrs = 0;
    Cycle cycles = 0;
    double ipc = 0.0;
    double mlp = 0.0;            //!< mean outstanding DRAM misses (>0)
    double uselessMlp = 0.0;     //!< wrong-path share of outstanding
    std::uint64_t dramBytes = 0;
    double branchMpki = 0.0;
    double llcMpki = 0.0;
    double cdfModeFraction = 0.0;   //!< cycles in CDF mode
    double fullWindowStallFraction = 0.0;
    double robCriticalFraction = 0.0; //!< Fig. 1 sample (observe mode)
    bool halted = false;
};

/**
 * Host-time spent in each pipeline stage, filled only when
 * CoreConfig::profileStages is set. Host-side measurement only: it
 * never enters the stat registry, so profiled and unprofiled runs
 * stay architecturally bit-identical.
 */
struct StageProfile
{
    enum Stage : unsigned
    {
        Retire,
        Completion,
        Execute,
        Rename,
        Fetch,
        Stats,
        Skip, //!< idle-cycle fast-forward (quiescence checks + jumps)
        kNumStages
    };

    std::array<std::uint64_t, kNumStages> ns{};
    std::uint64_t ticks = 0;

    /** Host time inside the memory hierarchy, by deepest level
     *  reached (a breakdown *within* the stage rows above). */
    mem::MemLevelProfile mem;

    static const char *name(unsigned stage);
};

/**
 * Charges host time to StageProfile rows: each lap(stage) adds the
 * time since the previous lap (or construction) to that row. With
 * kOn false it reads no clock, so an unprofiled tick pays nothing.
 */
template <bool kOn>
struct StageLap
{
    using clock = std::chrono::steady_clock;
    StageProfile &profile;
    clock::time_point last = kOn ? clock::now() : clock::time_point{};

    void
    operator()(StageProfile::Stage stage)
    {
        if constexpr (kOn) {
            const auto t = clock::now();
            profile.ns[stage] += static_cast<std::uint64_t>(
                std::chrono::nanoseconds(t - last).count());
            last = t;
        }
    }
};

/**
 * One basic block handed from the critical fetch engine to the
 * regular stream in CDF mode (Section 3.3): the trace critical fetch
 * walked, shared with the uop cache, and the ts its first uop has on
 * the path the walk took (correct or wrong). The regular stream reads
 * each uop's criticality from it.
 */
struct BlockHandoff
{
    SeqNum baseTs = 0;          //!< ts of the block's first uop
    cdf::SharedTrace trace;

    /** First ts past the block. */
    SeqNum endTs() const { return baseTs + trace->blockLength; }

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(baseTs);
        cdf::TraceByContent{}(ar, trace);
    }

    SIM_SNAPSHOT_FIELDS(2);
};

/** The core. */
class Core
{
  public:
    /**
     * @param config Core configuration (mode selects baseline/CDF/PRE).
     * @param program The uop program to run.
     * @param memory Initial data memory (mutated by execution).
     * @param stats Statistic registry (shared with the hierarchy).
     */
    Core(const CoreConfig &config, const isa::Program &program,
         isa::MemoryImage &memory, StatRegistry &stats);

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;
    ~Core();

    /** Advance one cycle. */
    void tick();

    /**
     * Run until @p maxRetired instructions retired, the program
     * halts, or @p maxCycles elapse. Returns the results summary.
     */
    CoreResult run(std::uint64_t maxRetired,
                   Cycle maxCycles = kNeverCycle);

    /**
     * Reset measurement statistics (after warmup): zeroes the stat
     * registry and the internal IPC/MLP accounting, keeping all
     * microarchitectural state (caches, predictors, CDF tables).
     */
    void resetMeasurement();

    bool halted() const { return halted_; }
    Cycle cycle() const { return now_; }
    std::uint64_t retired() const { return retiredInstrs_; }
    bool inCdfMode() const { return cdfMode_; }
    bool inRunahead() const { return raActive_; }

    /** Build the result summary from the current counters. */
    CoreResult result() const;

    const CoreConfig &config() const { return config_; }
    mem::MemHierarchy &memHierarchy() { return mem_; }
    StatRegistry &stats() { return stats_; }

    /** Critical partition capacity (for examples/visualization). */
    unsigned robCriticalCap() const { return rob_.criticalCap(); }
    std::size_t robOccupancy() const { return rob_.occupancy(); }

    /** Per-stage host-time breakdown (CoreConfig::profileStages). */
    StageProfile
    profile() const
    {
        StageProfile p = profile_;
        p.mem = mem_.profile();
        return p;
    }

    /** Cycles fast-forwarded by the idle-skip path since the last
     *  resetMeasurement(). Host-side bookkeeping only — never a stat
     *  counter, so skip-on and skip-off runs serialize identically. */
    std::uint64_t skippedCycles() const { return skippedCycles_; }

    /** Number of fast-forward jumps (each skips >= 1 cycle). */
    std::uint64_t skipEvents() const { return skipEvents_; }

    /**
     * RS wakeup-cache agreement walk: every resident entry's cached
     * rsNextTry must be consistent with actual operand readiness in
     * the PRF, and every parked entry must hold a live registration
     * in the per-register waiter lists it depends on. Always
     * compiled (the walk is load-bearing for the idle-skip bound);
     * sampled from the execute stage in Audit builds.
     */
    void auditRsWakeupCache() const;

    /**
     * Rename-map/free-list agreement walk: every regular-RAT entry
     * must name an in-range physical register, map each arch
     * register to a distinct one, and never overlap the free list;
     * the critical RAT is held to bounds + uniqueness while it is
     * live (critRatCopied_). Always compiled; sampled from the
     * rename stage in Audit builds and run after every restore.
     */
    void auditRenameMaps() const;

    /**
     * LSQ/ROB age-ordering walk: both ROB sections and both LSQ
     * queues hold live pool entries in strictly increasing timestamp
     * order, the LQ holds only loads and the SQ only stores, and
     * every LSQ entry is also resident in the ROB. Always compiled;
     * sampled from the retire stage in Audit builds.
     */
    void auditLsqRobAge() const;

    /**
     * Branch-checkpoint pool ownership walk: every live handle in
     * bpCkptPool_ is owned exactly once, by an in-flight instruction
     * or a DBQ entry, every owned handle is live, and the live
     * count equals the number of owners (no leaks). Always
     * compiled; sampled from the retire stage in Audit builds.
     */
    void auditBpCheckpoints() const;

    /**
     * Snapshot visitor over the complete architectural +
     * microarchitectural core state (core_snapshot.cc; instantiated
     * for SnapWriter and SnapReader). Host-only measurement state
     * (stage profile, idle-skip bookkeeping) is excluded, so the
     * payload is independent of profileStages/skipIdleCycles; the
     * stat registry is NOT included — the owning Simulator snapshots
     * it so the registry is captured exactly once. Restoring needs a
     * core built with the SAME config (asserted structurally where
     * cheap; guaranteed by the warmup cache key). After restore,
     * running the core is bit-identical to running the original,
     * and a re-snapshot is byte-identical.
     */
    template <typename Ar>
    void fields(Ar &ar);

  private:
    friend struct cdfsim::AuditPeer; //!< test-only corruption access

    // --- run() and tick(), with or without stage laps ---
    template <bool kProfiled>
    void runAs(std::uint64_t maxRetired, Cycle maxCycles);
    template <bool kProfiled>
    void tickAs();

    // --- Pipeline stages (called in reverse order each tick) ---
    void retireStage();
    void completionStage();
    void executeStage();
    void renameStage();
    void renameCritical(unsigned &slots);
    /** A replay reading a poisoned register sets @p depViolationTs
     *  and stops; renameStage recovers. */
    bool renameRegularOne(SeqNum &depViolationTs);
    void fetchStage();
    void fetchRegularBaseline(unsigned &budget);
    void fetchCriticalCdf(unsigned &budget);
    void fetchRegularCdf(unsigned &budget);
    void statsStage();

    // --- Instruction lifecycle ---
    DynInst *makeInst(const isa::ExecRecord &rec, SeqNum ts, bool onPath);
    void destroyInst(DynInst *inst);

    /** Snapshot the predictor into a fresh checkpoint-pool slot. */
    std::uint32_t takeBpCheckpoint();

    // --- Execution helpers ---
    /** When @p inst's sources are ready (0 if absent, and a memory
     *  op's src2 never gates issue). */
    std::pair<Cycle, Cycle> operandsReadyAt(const DynInst *inst) const;
    void issueOne(DynInst *inst);
    bool tryIssueLoad(DynInst *inst);
    /** A violated on-path load goes to an empty @p memViolation;
     *  executeStage recovers after selection. */
    void issueStore(DynInst *inst, DynInst *&memViolation);
    void scheduleCompletion(DynInst *inst, Cycle when);
    void finishInst(DynInst *inst);
    void addRsWaiter(RegId reg, const DynInst *inst);
    void wakeRsWaiters(RegId reg);

    // --- Recovery ---
    void recoverFromBranch(DynInst *branch);
    /** Dependence or memory-order violation: flush from @p restartTs
     *  on and refetch it, counting the event in @p stat. */
    void recoverFromViolation(SeqNum restartTs, std::uint64_t &stat);
    /** @p rewindPredictor restores the oldest squashed branch
     *  checkpoint (violations; a branch restores its own). */
    void squashYoungerThan(SeqNum flushTs, bool rewindPredictor);
    /** Resume regular fetch at @p ts; a @p flush also charges the
     *  redirect penalty. In CDF mode only the penalty applies: the
     *  CDF cursors carry the redirect. */
    void redirectFetch(SeqNum ts, bool flush);

    // --- CDF mode control ---
    void maybeEnterCdfMode(Addr pc, SeqNum seq);
    /** Restart critical fetch on the correct path at @p pc / @p ts,
     *  dropping any wrong path (entry, or a recovery CDF survives;
     *  the caller sets regNextTs_). */
    void restartCdfFetch(Addr pc, SeqNum ts);
    void drainCriticalFrontend();
    void beginCdfExit();
    void finishCdfExit();
    void abortCdfMode();
    void endCdfEpisode(); //!< teardown shared by exit and abort
    void applyPartitionCaps();
    void releasePartitionCaps();

    // --- PRE (runahead) ---
    void maybeEnterRunahead(const DynInst *head);
    /** PRE entry's disqualifiers, shared with idle-skip: a reliable
     *  fetch frontier and a @p head still waiting on its miss. */
    bool runaheadCanStart(const DynInst *head);
    void runaheadStep(unsigned &budget);
    void exitRunahead();

    // --- Retire-side criticality training ---
    void trainOnRetire(const DynInst *inst);

    bool icacheGate(Addr pc, unsigned &budget);
    bool frontStopped() const;

    /**
     * A fetch engine's stop tests, without their side effects: the
     * engine checks its gate at the top of each loop iteration, and
     * idle-skip classifies with the same call. Two verdicts act: the
     * baseline engine latches fetchDoneHalt_ on OracleDry, and the
     * CDF regular engine ends the episode on CdfExit. Gates that ask
     * the oracle are not const: that may materialize a record.
     */
    enum class FetchGate : unsigned char
    {
        Progress,
        Blocked,
        OracleDry,
        CdfExit,
    };
    FetchGate criticalFetchGate() const;
    FetchGate regularCdfFetchGate();
    FetchGate baselineFetchGate();

    /** The per-cycle MLP and CDF-residency sample, taken @p n times. */
    void sampleCycleStats(std::uint64_t n);

    // --- Idle-cycle fast-forward (core_skip.cc) ---
    /**
     * If the core is provably quiescent, jump now_ to just before
     * the next event (bounded by @p maxCycles and the deadlock
     * watchdog), bulk-applying every per-cycle stat. Returns true if
     * any cycles were skipped; the caller re-enters the run loop and
     * the next tick() executes the event cycle normally.
     */
    template <bool kProfiled>
    bool maybeSkipIdleCycles(Cycle maxCycles);

    /**
     * The three partitioned window structures (paper Section 3.5),
     * each a SectionQueue with its own SectionPartition.
     */
    enum Section : unsigned char
    {
        kRob,
        kLq,
        kSq,
        kNumSections
    };
    static constexpr Section kSections[] = {kRob, kLq, kSq};
    SectionQueue &window(Section s);
    const SectionQueue &window(Section s) const;

    /**
     * What a rename stream does this cycle: progress, stay blocked
     * with no counter side effect, or stay blocked charging one
     * stall to the partition of the section it names (Rob/Lq/Sq
     * share their Section's value).
     */
    enum class RenameGate : unsigned char
    {
        Rob = kRob,
        Lq = kLq,
        Sq = kSq,
        Quiet,
        Progress,
    };

    /**
     * The rename checks of one stream, in order, without their side
     * effects: rename acts on the verdict, and idle-skip classifies
     * quiescent cycles with it. When the front uop is not yet
     * through the frontend pipe, @p bound is lowered to its
     * readyAtRename.
     */
    RenameGate regularRenameGate(Cycle &bound) const;
    RenameGate criticalRenameGate(Cycle &bound) const;

    /** Charge @p n stall cycles of @p g to its section's partition
     *  (no-op for Progress/Quiet or when the core has none). */
    void chargeRenameStall(RenameGate g, bool critical, std::uint64_t n);

    /** The retire stage's per-cycle full-window-stall test, which
     *  idle-skip replays and PRE entry keys on. */
    bool windowStalled() const;

    Cycle nextEventCycle();
    void bulkAccountSkippedCycles(std::uint64_t n);

    // --- Snapshot helpers (core_snapshot.cc) ---
    std::uint32_t encInst(const DynInst *inst) const;
    DynInst *decInst(std::uint32_t idx);

    // ------------------------------------------------------------------
    SIM_SNAPSHOT_FIELDS(111);

    CoreConfig config_;
    StatRegistry &stats_;
    isa::OracleStream oracle_;
    /** Live in one role at a time (file comment): wrongPath_,
     *  !critOnPath_ or raActive_. */
    isa::WrongPathWalker walker_;
    mem::MemHierarchy mem_;
    bp::BranchPredictor bp_;

    PhysRegFile prf_;
    RenameMap rat_;
    RenameMap critRat_;
    SectionQueue rob_;
    Lsq lsq_;
    ReservationStations rs_;

    /** Master in-flight pool: slab-allocated, threaded into an
     *  intrusive doubly-linked list in fetch order via
     *  DynInst::{prev,next}Idx. No per-instruction heap traffic. */
    SlabPool<DynInst> inflightPool_;
    std::uint32_t inflightHead_ = kNoInst; //!< oldest in flight
    std::uint32_t inflightTail_ = kNoInst; //!< youngest in flight

    /** Branch checkpoints, owned by DynInst::bpCkpt or a
     *  cdf::DbqEntry (see auditBpCheckpoints()). Each also holds the
     *  prediction record its branch trains with (finishInst). */
    SlabPool<bp::BpCheckpoint> bpCkptPool_{256};

    /** squashYoungerThan's victims (reused): frontend entries, then
     *  ROB entries youngest first. */
    std::vector<DynInst *> squashed_;

    /** RS entries parked until a physical register is written:
     *  (pool handle, fetchSeq) pairs, validated at wake time. */
    std::vector<std::vector<std::pair<std::uint32_t, SeqNum>>>
        regWaiters_;

    CircularQueue<DynInst *> frontQ_;   //!< regular stream, pre-rename
    CircularQueue<DynInst *> critQ_;    //!< critical stream, pre-rename

    // Pending stores that left the RS with address done but data
    // outstanding; completed when the data register becomes ready.
    std::vector<DynInst *> pendingStores_;

    // Completion event queue ordered by cycle. A raw min-heap
    // (push_heap/pop_heap over a reusable vector, the exact
    // operations std::priority_queue performs) so the squash filter
    // can rebuild it without re-heapifying: draining a min-heap
    // yields ascending order, and an ascending sequence laid down
    // in order *is* a valid heap with the same layout the
    // equivalent push_heap calls would produce. Same-cycle pop
    // order — which feeds predictor updates — is therefore
    // bit-identical to the old priority_queue.
    struct CompletionEvent
    {
        Cycle when;
        DynInst *inst;
        bool operator>(const CompletionEvent &o) const
        {
            return when > o.when;
        }
    };
    std::vector<CompletionEvent> completions_;
    std::vector<CompletionEvent> completionsScratch_;

    // --- Frontend state (regular mode) ---
    Cycle now_ = 0;
    SeqNum fetchSeqCounter_ = 0;     //!< unique fetch ids
    SeqNum nextFetchTs_ = 0;         //!< next oracle index to fetch
    bool wrongPath_ = false;
    Addr wrongPathPc_ = 0;
    SeqNum wrongPathTs_ = 0;
    Cycle fetchStallUntil_ = 0;
    Addr lastFetchLine_ = ~Addr{0};
    bool fetchDoneHalt_ = false;
    SeqNum nextRetireTs_ = 0;
    bool halted_ = false;
    Cycle lastRetireCycle_ = 0;
    std::uint64_t retiredInstrs_ = 0;

    // Basic-block tracking at fetch (uop-cache probing, Fig. 1 marks).
    bool fetchAtBbStart_ = true;
    Addr fetchBbStartPc_ = 0;
    unsigned fetchBbOffset_ = 0;

    // Retire-side basic-block tracking for the Fill Buffer.
    bool retirePrevWasBranch_ = true;

    // --- CDF machinery ---
    std::unique_ptr<cdf::CriticalCountTable> loadCct_;
    std::unique_ptr<cdf::CriticalCountTable> branchCct_;
    std::unique_ptr<cdf::MaskCache> maskCache_;
    std::unique_ptr<cdf::CriticalUopCache> uopCache_;
    std::unique_ptr<cdf::FillBuffer> fillBuffer_;
    /** Partition controllers, indexed by Section (CDF mode only). */
    std::array<std::unique_ptr<cdf::SectionPartition>, kNumSections>
        parts_;
    std::unique_ptr<cdf::DelayedBranchQueue> dbq_;
    std::unique_ptr<cdf::CriticalMapQueue> cmq_;

    bool cdfMode_ = false;
    bool cdfDraining_ = false;
    Cycle cdfCooldownUntil_ = 0;
    bool critRatCopied_ = false;
    SeqNum cdfStartTs_ = 0;
    SeqNum regRenamedThroughTs_ = 0;  //!< last ts regular rename passed

    /** Critical fetch cursor over Critical Uop Cache traces. */
    cdf::TraceCursor crit_;
    SeqNum critFetchBaseTs_ = 0;   //!< ts of the current BB's first uop
    bool critOnPath_ = true;

    // Regular-stream cursor in CDF mode.
    SeqNum regNextTs_ = 0;
    bool regWrongPath_ = false;

    /** First ts NOT yet covered by a critical-fetch-processed BB. */
    SeqNum critCoveredUpTo_ = 0;
    /** Next wrong-path ts the critical fetch will assign. */
    SeqNum critWpNextTs_ = 0;
    /** wpRecords_ index of the current wrong-path BB's first uop. */
    std::size_t critWpBbBase_ = 0;

    /** Blocks critical fetch loaded, oldest first, for the regular
     *  stream: the correct path, then any walked wrong path. */
    std::deque<BlockHandoff> handoffQ_;

    /** Wrong-path records produced by critical fetch for the regular
     *  stream to consume (both streams share one divergence); each
     *  record's seq is its wrong-path ts. */
    std::vector<isa::ExecRecord> wpRecords_;
    std::size_t wpConsumeIdx_ = 0;

    /** Wrong-path critical fetch ran into unwalkable code; idle. */
    bool critWpStuck_ = false;

    // --- PRE machinery ---
    std::unique_ptr<cdf::CriticalCountTable> stallTable_;
    bool raActive_ = false;
    Cycle raEndCycle_ = 0;
    /** Chain fetch cursor over the PRE uop cache's traces. */
    cdf::TraceCursor ra_;
    std::vector<isa::ExecRecord> raBbRecs_;
    std::bitset<kNumArchRegs> raTaint_;
    bp::BpCheckpoint raBpCkpt_;
    std::uint64_t raChainLoads_ = 0;
    unsigned raEpisodeLoads_ = 0;
    /** Last committed address per static load, indexed by PC
     *  (stale-value model; sized in PRE mode only). */
    std::vector<Addr> lastRetiredLoadAddr_;
    static constexpr Addr kNoLoadAddr = ~Addr{0}; //!< none retired yet
    Cycle stallStartCycle_ = 0;
    bool stallCounting_ = false;

    // --- Measurement ---
    StageProfile profile_;
    Cycle measureStartCycle_ = 0;
    std::uint64_t measureStartRetired_ = 0;
    // Host-side skip bookkeeping (see skippedCycles()).
    std::uint64_t skippedCycles_ = 0;
    std::uint64_t skipEvents_ = 0;
    // Earliest cycle the run loop may re-attempt a quiescence scan
    // after one failed to jump; purely a host-time rate limiter.
    Cycle skipRecheckAt_ = 0;
    mutable AuditSampler rsAudit_{4096};
    mutable AuditSampler renameAudit_{8192};
    mutable AuditSampler lsqRobAudit_{4096};
    mutable AuditSampler bpCkptAudit_{4096};
    RunningMean mlpWhenActive_;
    RunningMean uselessMlpWhenActive_;
    RunningMean fig1CriticalFrac_;
    std::uint64_t fullWindowStallCycles_ = 0;
    std::uint64_t cdfModeCycles_ = 0;

    // Cached stat counters.
    std::uint64_t &statCycles_;
    std::uint64_t &statRetired_;
    std::uint64_t &statFetched_;
    std::uint64_t &statFetchedWrongPath_;
    std::uint64_t &statRenamed_;
    std::uint64_t &statRenamedCritical_;
    std::uint64_t &statIssued_;
    std::uint64_t &statBranches_;
    std::uint64_t &statMispredicts_;
    std::uint64_t &statLlcMissLoads_;
    std::uint64_t &statDepViolations_;
    std::uint64_t &statMemOrderViolations_;
    std::uint64_t &statCdfEpisodes_;
    std::uint64_t &statCdfExitsUopMiss_;
    std::uint64_t &statRunaheadEpisodes_;
    std::uint64_t &statRunaheadUops_;
    std::uint64_t &statRunaheadLoads_;
    std::uint64_t &statRunaheadTraceMiss_;
};

} // namespace cdfsim::ooo

#endif // CDFSIM_OOO_CORE_HH
