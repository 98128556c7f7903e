/**
 * @file
 * Equivalence fuzz for the idle-cycle fast-forward path
 * (CoreConfig::skipIdleCycles): every run must serialize to exactly
 * the same bytes — core result, energy report, and every stat
 * counter — with the skip enabled and disabled. The skip is a pure
 * host-speed knob; any divergence here means a quiescence bound is
 * wrong, not that a heuristic mistuned.
 *
 * The randomized trials shrink the window structures and caches so
 * the skip path crosses its interesting boundaries often: jumps that
 * land exactly on a memory fill, CDF-mode episodes entered/exited
 * around would-be jumps, wrong-path fetch during stalls, and parked
 * RS entries waking at the jump target. Directed tests pin down the
 * cases randomness hits rarely: a cycle budget expiring inside a
 * would-be jump, the warmup/measure boundary adjoining one, and
 * skips inside CDF and runahead episodes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "workloads/workloads.hh"

using namespace cdfsim;

namespace
{

/** One run, serialized the same way the stat gate fingerprints it. */
struct RunImage
{
    std::string json;
    std::uint64_t skippedCycles = 0;
    std::uint64_t skipEvents = 0;
    bool ok = false;
    sim::RunResult run;
};

RunImage
runOnce(const workloads::Workload &workload, ooo::CoreConfig config,
        const sim::RunSpec &spec, bool skip)
{
    config.skipIdleCycles = skip;
    sim::Simulator simulator(config, workload);
    const sim::RunResult run = simulator.run(spec);
    return {sim::toJson(run).dump(-1), run.skippedCycles,
            run.skipEvents, run.ok(), run};
}

/**
 * Assert the two serialized runs are byte-identical; on divergence,
 * report the fingerprints and the first differing offset instead of
 * dumping two multi-kilobyte JSON blobs.
 */
void
expectIdentical(const RunImage &off, const RunImage &on,
                const std::string &label)
{
    if (off.json == on.json)
        return;
    std::size_t at = 0;
    while (at < off.json.size() && at < on.json.size() &&
           off.json[at] == on.json[at])
        ++at;
    const auto context = [&](const std::string &s) {
        const std::size_t begin = at < 60 ? 0 : at - 60;
        return s.substr(begin, 120);
    };
    ADD_FAILURE() << label << ": skip-on run diverged from skip-off"
                  << " (fnv " << fnv1a64(off.json) << " vs "
                  << fnv1a64(on.json) << ", first difference at byte "
                  << at << ")\n  off: ..." << context(off.json)
                  << "\n  on:  ..." << context(on.json);
}

ooo::CoreMode
modeFor(unsigned i)
{
    switch (i % 3) {
    case 0: return ooo::CoreMode::Baseline;
    case 1: return ooo::CoreMode::Cdf;
    default: return ooo::CoreMode::Pre;
    }
}

} // namespace

/**
 * Random small configs × workloads × modes. Tiny windows and caches
 * maximize both stall density (so skips happen) and structural
 * hazards at the jump targets (so a wrong bound would land early or
 * late and desynchronize a stat). Seeds are fixed: every trial is
 * reproducible by its index.
 */
TEST(SkipEquivalence, FuzzSmallConfigsAcrossWorkloadsAndModes)
{
    const std::vector<std::string> names =
        workloads::allWorkloadNames();
    std::mt19937_64 rng(0xC0FFEE);
    std::uint64_t totalSkipped = 0;

    for (unsigned trial = 0; trial < 12; ++trial) {
        const std::string name = names[rng() % names.size()];
        const workloads::Workload workload =
            workloads::makeWorkload(name);

        ooo::CoreConfig config;
        config.mode = modeFor(trial);
        // Shrink the window to a random fraction; 0.5 is the floor
        // below which physRegs stops covering ROB + arch state.
        config.scaleWindow(0.5 + 0.25 * (rng() % 4));
        config.width = 2 + 2 * (rng() % 3);
        config.issueWidth = config.width;
        // Small caches push far more traffic to DRAM, so jumps land
        // on fills, MSHR completions and prefetch events constantly.
        config.mem.l1d.sizeBytes = 4 * 1024 << (rng() % 2);
        config.mem.llc.sizeBytes = 64 * 1024 << (rng() % 2);
        config.mem.prefetcherEnabled = (rng() % 2) == 0;

        sim::RunSpec spec;
        spec.warmupInstrs = 500 + rng() % 1'500;
        spec.measureInstrs = 1'000 + rng() % 2'000;
        spec.maxCycles = 5'000'000;

        const RunImage off = runOnce(workload, config, spec, false);
        const RunImage on = runOnce(workload, config, spec, true);
        EXPECT_EQ(off.skippedCycles, 0u);
        EXPECT_EQ(off.skipEvents, 0u);
        totalSkipped += on.skippedCycles;
        expectIdentical(off, on,
                        "trial " + std::to_string(trial) + " (" +
                            name + ")");
    }
    // The fuzz only means something if the skip path actually ran.
    EXPECT_GT(totalSkipped, 0u);
}

/**
 * Branchy random programs: frequent mispredictions mean wrong-path
 * fetch and recovery keep interleaving with would-be skips, and CDF
 * episodes abort mid-flight. The equivalence must survive all of it.
 */
TEST(SkipEquivalence, RandomProgramsWithWrongPathRecovery)
{
    for (unsigned trial = 0; trial < 6; ++trial) {
        const workloads::Workload workload =
            workloads::makeRandomWorkload(0xBAD5EED + trial, 6, 150);

        ooo::CoreConfig config;
        config.mode = modeFor(trial);
        config.scaleWindow(0.5);
        config.mem.l1d.sizeBytes = 4 * 1024;
        config.mem.llc.sizeBytes = 64 * 1024;

        sim::RunSpec spec;
        spec.warmupInstrs = 300;
        spec.measureInstrs = 1'500;
        spec.maxCycles = 5'000'000;

        const RunImage off = runOnce(workload, config, spec, false);
        const RunImage on = runOnce(workload, config, spec, true);
        expectIdentical(off, on, "random program " +
                                     std::to_string(trial));
    }
}

/**
 * A cycle budget that expires inside a would-be jump: the jump must
 * clamp to the budget, truncate the phase at exactly the same cycle
 * as per-cycle ticking, and serialize identically — including the
 * truncated flag. mcf stalls for hundreds of cycles at a time, so a
 * tiny per-phase budget reliably ends mid-stall.
 */
TEST(SkipEquivalence, MaxCyclesExpiringMidJump)
{
    const workloads::Workload workload =
        workloads::makeWorkload("mcf");
    ooo::CoreConfig config;
    config.mem.l1d.sizeBytes = 4 * 1024;
    config.mem.llc.sizeBytes = 64 * 1024;

    for (const Cycle budget : {1'000ull, 2'500ull, 7'777ull}) {
        sim::RunSpec spec;
        spec.warmupInstrs = 500;
        spec.measureInstrs = 50'000; // unreachable: budget cuts first
        spec.maxCycles = budget;

        const RunImage off = runOnce(workload, config, spec, false);
        const RunImage on = runOnce(workload, config, spec, true);
        expectIdentical(off, on, "cycle budget " +
                                     std::to_string(budget));
    }
}

/**
 * Warmup/measure boundary adjacent to a jump: resetMeasurement()
 * happens between the phases, so the measurement window opens in the
 * middle of whatever stall the warmup target landed in. The skip
 * must charge the remaining stall cycles to the measurement stats
 * exactly as ticking would.
 */
TEST(SkipEquivalence, WarmupBoundaryInsideStall)
{
    const workloads::Workload workload =
        workloads::makeWorkload("mcf");
    ooo::CoreConfig config;
    config.mem.l1d.sizeBytes = 4 * 1024;
    config.mem.llc.sizeBytes = 64 * 1024;

    // Sweep the boundary across neighbouring retire counts so some
    // trial lands directly against a long DRAM stall.
    for (const std::uint64_t warmup : {97ull, 301ull, 1'003ull}) {
        sim::RunSpec spec;
        spec.warmupInstrs = warmup;
        spec.measureInstrs = 2'000;
        spec.maxCycles = 5'000'000;

        const RunImage off = runOnce(workload, config, spec, false);
        const RunImage on = runOnce(workload, config, spec, true);
        expectIdentical(off, on, "warmup " + std::to_string(warmup));
    }
}

/** The knob itself: disabled means zero skips, enabled skips on a
 *  memory-bound run and reports both counters consistently. */
TEST(SkipEquivalence, SkipCountersReflectTheKnob)
{
    const workloads::Workload workload =
        workloads::makeWorkload("mcf");
    ooo::CoreConfig config;
    config.mem.l1d.sizeBytes = 4 * 1024;
    config.mem.llc.sizeBytes = 64 * 1024;

    sim::RunSpec spec;
    spec.warmupInstrs = 500;
    spec.measureInstrs = 3'000;
    spec.maxCycles = 5'000'000;

    const RunImage off = runOnce(workload, config, spec, false);
    EXPECT_EQ(off.skippedCycles, 0u);
    EXPECT_EQ(off.skipEvents, 0u);

    const RunImage on = runOnce(workload, config, spec, true);
    ASSERT_TRUE(on.ok);
    EXPECT_GT(on.skippedCycles, 0u);
    EXPECT_GT(on.skipEvents, 0u);
    // Every jump fast-forwards at least one full cycle.
    EXPECT_GE(on.skippedCycles, on.skipEvents);
}

/**
 * Skips inside episodes. The CDF fetch gates and PRE's entry test
 * classify cycles for the skip only while an episode runs or a
 * runahead entry is pending, so each case must really run an episode,
 * really skip, and still match ticking byte for byte. mcf spends the
 * whole window in one CDF episode. astar enters one mid-window with a
 * 4-entry DBQ, so the critical fetch engine stops on a full DBQ.
 * Runahead covers nearly every full-window stall once PRE engages
 * (lbm enters it 7 times here and never skips), so sphinx3 is the
 * PRE case: 3 episodes, with skips between them.
 */
TEST(SkipEquivalence, InsideCdfAndRunaheadEpisodes)
{
    struct Case
    {
        const char *workload;
        ooo::CoreMode mode;
        unsigned dbqEntries;
    };
    for (const Case c : {Case{"mcf", ooo::CoreMode::Cdf, 256},
                         Case{"astar", ooo::CoreMode::Cdf, 4},
                         Case{"sphinx3", ooo::CoreMode::Pre, 256}}) {
        const workloads::Workload workload =
            workloads::makeWorkload(c.workload);
        ooo::CoreConfig config;
        config.mode = c.mode;
        config.cdf.dbqEntries = c.dbqEntries;

        sim::RunSpec spec;
        spec.warmupInstrs = 1'500;
        spec.measureInstrs = 2'000;
        spec.maxCycles = 5'000'000;

        const RunImage off = runOnce(workload, config, spec, false);
        const RunImage on = runOnce(workload, config, spec, true);
        const std::string label = c.workload;
        ASSERT_TRUE(on.ok) << label;
        if (c.mode == ooo::CoreMode::Cdf) {
            EXPECT_GT(on.run.core.cdfModeFraction, 0.0) << label;
        } else {
            EXPECT_GT(on.run.stats.get("core.runahead_episodes"), 0u)
                << label;
        }
        EXPECT_GT(on.skippedCycles, 0u) << label;
        expectIdentical(off, on, label);
    }
}
