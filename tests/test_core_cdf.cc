/**
 * @file
 * CDF-specific core behaviour: mode entry/exit, critical-stream
 * renaming and replay, dynamic partitioning activity, dependence
 * violations on path-dependent producers, and the ablation knobs.
 */

#include <gtest/gtest.h>

#include "common/audit.hh"
#include "ooo/core.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "workloads/workloads.hh"

namespace cdfsim
{

/** Test-only access to the critical fetch engine's wrong-path state
 *  (Core befriends AuditPeer). */
struct AuditPeer
{
    static bool
    critWrongPath(const ooo::Core &c)
    {
        return c.cdfMode_ && !c.critOnPath_;
    }

    static bool &critWpStuck(ooo::Core &c) { return c.critWpStuck_; }

    /** Live branch checkpoints, split by whose training record they
     *  hold: a critical-stream conditional branch's, or anyone
     *  else's; "filled" counts those whose record is not empty. */
    struct TrainingRecords
    {
        unsigned criticalCond = 0;
        unsigned criticalCondFilled = 0;
        unsigned nonCriticalCdf = 0; //!< of others: CDF regular stream
        unsigned others = 0;
        unsigned othersFilled = 0;
    };

    static void
    tallyTrainingRecords(const ooo::Core &c, TrainingRecords &t)
    {
        const auto filled = [&](std::uint32_t ckpt) {
            static const bp::TagePredictionInfo kEmpty;
            SnapWriter a;
            SnapWriter b;
            a(c.bpCkptPool_.at(ckpt).info);
            b(kEmpty);
            return a.bytes() != b.bytes();
        };
        for (std::uint32_t i = c.inflightHead_; i != kNoInst;
             i = c.inflightPool_.at(i).nextIdx) {
            const ooo::DynInst &inst = c.inflightPool_.at(i);
            if (!inst.hasBpCheckpoint())
                continue;
            if (inst.criticalStream && inst.uop.isCondBranch()) {
                ++t.criticalCond;
                t.criticalCondFilled += filled(inst.bpCkpt);
            } else {
                ++t.others;
                t.othersFilled += filled(inst.bpCkpt);
                t.nonCriticalCdf +=
                    inst.cdfFetched && !inst.criticalStream;
            }
        }
        // Checkpoints a DBQ entry holds for the regular stream.
        for (std::size_t k = 0; c.dbq_ && k < c.dbq_->size(); ++k) {
            if (c.dbq_->at(k).ckpt == kNoInst)
                continue;
            ++t.others;
            t.othersFilled += filled(c.dbq_->at(k).ckpt);
        }
    }
};

} // namespace cdfsim

using namespace cdfsim;

namespace
{

ooo::CoreConfig
cdfConfig()
{
    ooo::CoreConfig cfg;
    cfg.mode = ooo::CoreMode::Cdf;
    cfg.deadlockCycles = 500'000;
    return cfg;
}

} // namespace

TEST(CoreCdf, EntersAndSustainsCdfModeOnMissHeavyKernel)
{
    auto w = workloads::makeWorkload("astar");
    isa::MemoryImage mem = w.makeMemory();
    StatRegistry stats;
    ooo::Core core(cdfConfig(), w.program, mem, stats);
    core.run(250'000, 300'000'000);
    core.resetMeasurement();
    core.run(core.retired() + 50'000, 300'000'000);
    auto r = core.result();
    EXPECT_GT(r.cdfModeFraction, 0.5)
        << "CDF did not sustain on astar";
    EXPECT_GT(stats.get("core.renamed_critical_uops"), 5'000u);
}

TEST(CoreCdf, CriticalStreamImprovesMlp)
{
    sim::RunSpec spec;
    spec.warmupInstrs = 250'000;
    spec.measureInstrs = 80'000;
    auto base =
        sim::runWorkload("astar", ooo::CoreMode::Baseline, spec);
    auto cdf = sim::runWorkload("astar", ooo::CoreMode::Cdf, spec);
    EXPECT_GT(cdf.core.mlp, base.core.mlp * 1.2)
        << "window expansion did not raise MLP";
    EXPECT_GT(cdf.core.ipc, base.core.ipc);
}

TEST(CoreCdf, DensityGuardKeepsCdfOffDenseKernels)
{
    // cactu is fully serial dependent pairs: high criticality
    // density; the guard (or saturation) must keep CDF from
    // hurting.
    sim::RunSpec spec;
    spec.warmupInstrs = 150'000;
    spec.measureInstrs = 40'000;
    auto base =
        sim::runWorkload("cactu", ooo::CoreMode::Baseline, spec);
    auto cdf = sim::runWorkload("cactu", ooo::CoreMode::Cdf, spec);
    EXPECT_GT(cdf.core.ipc, base.core.ipc * 0.95)
        << "CDF badly hurt a dense kernel";
}

TEST(CoreCdf, DependenceViolationsDetectedOnPathDependentProducers)
{
    // sphinx3 is constructed so the critical load's index producer
    // differs per control path (the paper's Fig. 12 situation).
    auto w = workloads::makeWorkload("sphinx3");
    isa::MemoryImage mem = w.makeMemory();
    StatRegistry stats;
    ooo::Core core(cdfConfig(), w.program, mem, stats);
    core.run(400'000, 400'000'000);
    EXPECT_GT(stats.get("core.cdf_episodes") +
                  (core.inCdfMode() ? 1 : 0),
              0u);
    // Violations may be rare (the mask cache accumulates paths), but
    // the machinery must never corrupt the retired stream — which
    // the in-core assertions enforce; here we check the counter is
    // wired.
    EXPECT_TRUE(stats.has("core.dependence_violations"));
}

TEST(CoreCdf, MaskCacheOffRaisesViolations)
{
    sim::RunSpec spec;
    spec.warmupInstrs = 250'000;
    spec.measureInstrs = 100'000;

    ooo::CoreConfig on;
    auto ron = sim::runWorkload("sphinx3", ooo::CoreMode::Cdf, spec,
                                on);
    ooo::CoreConfig off;
    off.cdf.fillBuffer.useMaskCache = false;
    auto roff = sim::runWorkload("sphinx3", ooo::CoreMode::Cdf, spec,
                                 off);

    EXPECT_GE(roff.stats.get("core.dependence_violations"),
              ron.stats.get("core.dependence_violations"))
        << "mask cache should reduce dependence violations";
}

TEST(CoreCdf, DynamicPartitionActuallyMoves)
{
    auto w = workloads::makeWorkload("soplex");
    isa::MemoryImage mem = w.makeMemory();
    StatRegistry stats;
    ooo::Core core(cdfConfig(), w.program, mem, stats);
    core.run(400'000, 400'000'000);
    EXPECT_GT(stats.get("rob.partition_grows") +
                  stats.get("rob.partition_shrinks"),
              0u)
        << "partition controller never resized";
}

TEST(CoreCdf, StaticPartitionKnobDisablesResizing)
{
    auto cfg = cdfConfig();
    cfg.cdf.partition.dynamic = false;
    auto w = workloads::makeWorkload("soplex");
    isa::MemoryImage mem = w.makeMemory();
    StatRegistry stats;
    ooo::Core core(cfg, w.program, mem, stats);
    core.run(300'000, 400'000'000);
    EXPECT_EQ(stats.get("rob.partition_grows"), 0u);
    EXPECT_EQ(stats.get("rob.partition_shrinks"), 0u);
}

TEST(CoreCdf, BranchMarkingKnobChangesCriticalStream)
{
    sim::RunSpec spec;
    spec.warmupInstrs = 250'000;
    spec.measureInstrs = 60'000;

    ooo::CoreConfig withBr;
    auto rb =
        sim::runWorkload("astar", ooo::CoreMode::Cdf, spec, withBr);
    ooo::CoreConfig noBr;
    noBr.cdf.markCriticalBranches = false;
    auto rn =
        sim::runWorkload("astar", ooo::CoreMode::Cdf, spec, noBr);

    // With branch marking the critical stream resolves mispredicts
    // early; astar (hard value branch) must benefit.
    EXPECT_GT(rb.core.ipc, rn.core.ipc * 0.99);
}

TEST(CoreCdf, RecoveryClearsStuckWrongPathWalk)
{
    // A wrong-path critical walk that ran into unwalkable code stops
    // critical fetch (critWpStuck_). When the divergence recovers and
    // the episode survives, critical fetch restarts on the correct
    // path, so the flag must go; a stale one leaves the regular
    // stream waiting on the critical lead until the watchdog fires.
    ooo::CoreConfig cfg = cdfConfig();
    cfg.deadlockCycles = 10'000;
    sim::Simulator sim(cfg, workloads::makeWorkload("astar"));
    ooo::Core &core = sim.core();

    bool survived = false;
    for (int divergence = 0; divergence < 50 && !survived; ++divergence) {
        for (int i = 0; i < 1'000'000 && !AuditPeer::critWrongPath(core);
             ++i)
            core.tick();
        ASSERT_TRUE(AuditPeer::critWrongPath(core))
            << "no critical-stream wrong path on astar/cdf";
        AuditPeer::critWpStuck(core) = true;
        while (AuditPeer::critWrongPath(core))
            core.tick();
        // An aborted episode clears the flag on its own; only a
        // recovery inside the episode tests the restart.
        survived = core.inCdfMode();
    }
    ASSERT_TRUE(survived) << "every divergence ended its CDF episode";
    EXPECT_FALSE(AuditPeer::critWpStuck(core));
    EXPECT_NO_THROW(core.run(core.retired() + 50'000));
}

TEST(CoreCdf, BranchTrainingRecordSites)
{
    // A branch trains at resolution with the prediction record its
    // checkpoint holds. Only CDF's critical fetch stores one (for a
    // conditional branch); baseline branches and CDF's non-critical
    // branches, whose prediction travels in the DBQ, train with the
    // empty record. Storing it at every site is a predictor change
    // that moves simulated stats; that change flips this test.
    for (const ooo::CoreMode mode :
         {ooo::CoreMode::Baseline, ooo::CoreMode::Cdf}) {
        ooo::CoreConfig cfg = cdfConfig();
        cfg.mode = mode;
        sim::Simulator sim(cfg, workloads::makeWorkload("astar"));
        ooo::Core &core = sim.core();
        core.run(40'000);
        AuditPeer::TrainingRecords t;
        for (int i = 0; i < 5'000; ++i) {
            core.tick();
            AuditPeer::tallyTrainingRecords(core, t);
        }
        const char *name = sim::toString(mode);
        EXPECT_GT(t.others, 0u) << name;
        EXPECT_EQ(t.othersFilled, 0u) << name;
        if (mode == ooo::CoreMode::Baseline) {
            EXPECT_EQ(t.criticalCond, 0u);
            continue;
        }
        EXPECT_GT(t.criticalCond, 0u);
        EXPECT_EQ(t.criticalCondFilled, t.criticalCond);
        EXPECT_GT(t.nonCriticalCdf, 0u);
    }
}

TEST(CorePre, RunaheadPrefetchesComputableChains)
{
    sim::RunSpec spec;
    spec.warmupInstrs = 250'000;
    spec.measureInstrs = 80'000;
    auto base =
        sim::runWorkload("lbm", ooo::CoreMode::Baseline, spec);
    auto pre = sim::runWorkload("lbm", ooo::CoreMode::Pre, spec);
    EXPECT_GT(pre.stats.get("core.runahead_episodes"), 0u);
    EXPECT_GT(pre.stats.get("core.runahead_loads"), 0u);
    EXPECT_LT(pre.core.llcMpki, base.core.llcMpki)
        << "runahead should convert future misses into hits on "
           "register-computable chains";
}

TEST(CorePre, TaintedChainsProduceExtraTrafficNotBenefit)
{
    sim::RunSpec spec;
    spec.warmupInstrs = 200'000;
    spec.measureInstrs = 60'000;
    auto base =
        sim::runWorkload("mcf", ooo::CoreMode::Baseline, spec);
    auto pre = sim::runWorkload("mcf", ooo::CoreMode::Pre, spec);
    // Serial pointer chases cannot be prefetched by runahead; its
    // chains taint and the traffic shows up as runahead reads.
    EXPECT_GE(pre.core.dramBytes, base.core.dramBytes)
        << "expected extra runahead traffic";
    EXPECT_LT(pre.core.ipc / base.core.ipc, 1.05)
        << "runahead should not speed up a serial chase";
}

TEST(CorePre, RunaheadStateDiscardedOnExit)
{
    // PRE must retire the exact functional stream (also enforced by
    // the equivalence suite); here: runahead never lets wrong-path
    // chain loads poison architectural state, observable as the
    // in-order retirement assertion not firing over a long run.
    auto cfg = cdfConfig();
    cfg.mode = ooo::CoreMode::Pre;
    auto w = workloads::makeWorkload("gems");
    isa::MemoryImage mem = w.makeMemory();
    StatRegistry stats;
    ooo::Core core(cfg, w.program, mem, stats);
    EXPECT_NO_THROW(core.run(300'000, 400'000'000));
}
