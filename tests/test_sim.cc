/**
 * @file
 * Tests for the simulation facade: warmup/measurement separation,
 * result plumbing, geomean, and the Fig. 17 window-scaling helper.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>

#include "sim/simulator.hh"

using namespace cdfsim;

TEST(Simulator, WarmupExcludedFromMeasurement)
{
    sim::RunSpec spec;
    spec.warmupInstrs = 20'000;
    spec.measureInstrs = 30'000;
    sim::Simulator s(ooo::CoreConfig{},
                     workloads::makeWorkload("parest"));
    auto r = s.run(spec);
    EXPECT_GE(r.core.retiredInstrs, 30'000u);
    EXPECT_LT(r.core.retiredInstrs, 40'000u)
        << "warmup instructions leaked into the measurement";
    EXPECT_EQ(r.stats.get("core.retired_instrs"),
              r.core.retiredInstrs);
}

TEST(Simulator, RunWorkloadAppliesModeAndConfig)
{
    sim::RunSpec spec;
    spec.warmupInstrs = 50'000;
    spec.measureInstrs = 20'000;
    ooo::CoreConfig cfg;
    cfg.robSize = 128;
    cfg.physRegs = 256;
    auto r = sim::runWorkload("parest", ooo::CoreMode::Baseline, spec,
                              cfg);
    EXPECT_EQ(r.mode, ooo::CoreMode::Baseline);
    EXPECT_GT(r.core.ipc, 0.0);
    EXPECT_GT(r.energy.totalUj, 0.0);
}

TEST(Simulator, EnergyReportPopulated)
{
    sim::RunSpec spec;
    spec.warmupInstrs = 10'000;
    spec.measureInstrs = 20'000;
    auto r = sim::runWorkload("lbm", ooo::CoreMode::Baseline, spec);
    EXPECT_GT(r.energy.dynamicUj, 0.0);
    EXPECT_GT(r.energy.staticUj, 0.0);
    EXPECT_GT(r.energy.dramUj, 0.0);
    EXPECT_FALSE(r.energy.components.empty());
}

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(sim::geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(sim::geomean({1.0, 8.0}), 2.828427, 1e-5);
    EXPECT_DOUBLE_EQ(sim::geomean({}), 0.0);
    EXPECT_THROW(sim::geomean({1.0, -2.0}), PanicError);
}

TEST(CoreConfig, ScaleWindowScalesProportionally)
{
    ooo::CoreConfig cfg;
    const unsigned rob = cfg.robSize;
    const unsigned rs = cfg.rsSize;
    cfg.scaleWindow(2.0);
    EXPECT_EQ(cfg.robSize, rob * 2);
    EXPECT_EQ(cfg.rsSize, rs * 2);
    EXPECT_GT(cfg.physRegs, cfg.robSize + kNumArchRegs);
}

TEST(CoreConfig, TooFewPhysRegsIsFatal)
{
    ooo::CoreConfig cfg;
    cfg.physRegs = cfg.robSize; // cannot cover ROB + arch state
    auto w = workloads::makeWorkload("parest");
    isa::MemoryImage mem = w.makeMemory();
    StatRegistry stats;
    EXPECT_THROW(ooo::Core(cfg, w.program, mem, stats), FatalError);
}

TEST(CoreConfig, PartitionOutOfRangeIsFatal)
{
    // cdf.partition values are spec keys: a fraction outside [0, 1]
    // or a floor that leaves a section no room must fail as a config
    // error naming the key, not as an out-of-range float-to-unsigned
    // cast or an internal assertion.
    auto w = workloads::makeWorkload("parest");
    const auto build = [&](auto set) {
        ooo::CoreConfig cfg;
        cfg.mode = ooo::CoreMode::Cdf;
        set(cfg.cdf.partition);
        isa::MemoryImage mem = w.makeMemory();
        StatRegistry stats;
        ooo::Core core(cfg, w.program, mem, stats);
    };
    const auto rejects = [&](auto set, const char *key) {
        try {
            build(set);
            ADD_FAILURE() << key << " accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << "message must name the key: " << e.what();
        }
    };
    using P = cdf::PartitionConfig;
    rejects([](P &p) { p.initialCriticalFrac = -0.5; },
            "cdf.partition.initial_critical_frac");
    rejects([](P &p) { p.initialCriticalFrac = 1.5; },
            "cdf.partition.initial_critical_frac");
    rejects([](P &p) { p.minSection = 200; }, "cdf.partition.min_section");
    rejects([](P &p) { p.minLsqSection = 1000; },
            "cdf.partition.min_lsq_section");
    EXPECT_NO_THROW(build([](P &p) { p.initialCriticalFrac = 0.0; }));
    EXPECT_NO_THROW(build([](P &p) { p.initialCriticalFrac = 1.0; }));
}

TEST(CoreConfig, ZeroSizesAreFatal)
{
    // With a zero width, port count or structure size the core never
    // makes progress (the run burns its cycle budget) or cannot build
    // a queue, so each must fail as a config error naming its spec
    // key. The latencies and the watchdog keep 0 as a legal value.
    auto w = workloads::makeWorkload("parest");
    using C = ooo::CoreConfig;
    const auto build = [&](const std::function<void(C &)> &set) {
        C cfg;
        cfg.mode = ooo::CoreMode::Cdf;
        set(cfg);
        isa::MemoryImage mem = w.makeMemory();
        StatRegistry stats;
        ooo::Core core(cfg, w.program, mem, stats);
    };
    const std::pair<const char *, std::function<void(C &)>> zeroes[] = {
        {"width", [](C &c) { c.width = 0; }},
        {"issue_width", [](C &c) { c.issueWidth = 0; }},
        {"rob_size", [](C &c) { c.robSize = 0; }},
        {"rs_size", [](C &c) { c.rsSize = 0; }},
        {"lq_size", [](C &c) { c.lqSize = 0; }},
        {"sq_size", [](C &c) { c.sqSize = 0; }},
        {"fetch_queue_size", [](C &c) { c.fetchQueueSize = 0; }},
        {"max_loads_per_cycle", [](C &c) { c.maxLoadsPerCycle = 0; }},
        {"max_stores_per_cycle", [](C &c) { c.maxStoresPerCycle = 0; }},
        {"cdf.dbq_entries", [](C &c) { c.cdf.dbqEntries = 0; }},
        {"cdf.cmq_entries", [](C &c) { c.cdf.cmqEntries = 0; }},
    };
    for (const auto &[key, set] : zeroes) {
        try {
            build(set);
            ADD_FAILURE() << key << ": 0 accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(std::string(key) +
                                                 " must be at least 1"),
                      std::string::npos)
                << "message must name the key: " << e.what();
        }
    }
    EXPECT_NO_THROW(build([](C &c) {
        c.deadlockCycles = 0;
        c.frontendDepth = 0;
        c.mispredictRedirect = 0;
        c.btbMissPenalty = 0;
    }));
}

TEST(Simulator, ScaledDownCoreStillCorrect)
{
    sim::RunSpec spec;
    spec.warmupInstrs = 20'000;
    spec.measureInstrs = 30'000;
    ooo::CoreConfig cfg;
    cfg.scaleWindow(0.5);
    for (auto mode :
         {ooo::CoreMode::Baseline, ooo::CoreMode::Cdf}) {
        auto r = sim::runWorkload("astar", mode, spec, cfg);
        EXPECT_GE(r.core.retiredInstrs, 30'000u);
    }
}
