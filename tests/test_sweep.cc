/**
 * @file
 * Tests for the parallel sweep runner: parallel results must be
 * bit-identical to serial results, order must be preserved, cell
 * errors must be captured rather than propagated, and truncated /
 * halted runs must be surfaced. Also covers the measurement-window
 * fix (warmup cycles no longer eat the measurement budget) and the
 * JSON serialization of results.
 */

#include <gtest/gtest.h>

#include "sim/sweep.hh"

using namespace cdfsim;

namespace
{

std::vector<sim::SweepCell>
smallMatrix()
{
    sim::RunSpec spec;
    spec.warmupInstrs = 5'000;
    spec.measureInstrs = 10'000;

    std::vector<sim::SweepCell> cells;
    for (const auto &wl : {"astar", "lbm", "parest"}) {
        for (auto mode : {ooo::CoreMode::Baseline, ooo::CoreMode::Cdf,
                          ooo::CoreMode::Pre}) {
            sim::SweepCell cell;
            cell.workload = wl;
            cell.variant = sim::toString(mode);
            cell.mode = mode;
            cell.spec = spec;
            cells.push_back(cell);
        }
    }
    return cells;
}

} // namespace

TEST(SweepRunner, ParallelMatchesSerialBitIdentical)
{
    const auto cells = smallMatrix();
    const auto serial = sim::SweepRunner(1).runAll(cells);
    const auto parallel = sim::SweepRunner(4).runAll(cells);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        // JSON captures every result field (cycles, IPC, stats,
        // energy), so string equality is bit-identity of the run.
        EXPECT_EQ(sim::toJson(serial[i]).dump(),
                  sim::toJson(parallel[i]).dump())
            << "cell " << i << " (" << cells[i].workload << "/"
            << cells[i].variant << ") diverged under parallelism";
    }
}

TEST(SweepRunner, PreservesCellOrder)
{
    const auto cells = smallMatrix();
    const auto outcomes = sim::SweepRunner(3).runAll(cells);
    ASSERT_EQ(outcomes.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(outcomes[i].cell.workload, cells[i].workload);
        EXPECT_EQ(outcomes[i].cell.variant, cells[i].variant);
        EXPECT_EQ(outcomes[i].run.workload, cells[i].workload);
        EXPECT_EQ(outcomes[i].run.mode, cells[i].mode);
        EXPECT_TRUE(outcomes[i].error.empty());
        EXPECT_TRUE(outcomes[i].run.ok()) << outcomes[i].run.status();
        EXPECT_GT(outcomes[i].run.core.ipc, 0.0);
    }
}

TEST(SweepRunner, CellErrorIsCapturedNotThrown)
{
    sim::SweepCell good;
    good.workload = "parest";
    good.spec.warmupInstrs = 1'000;
    good.spec.measureInstrs = 2'000;
    sim::SweepCell bad = good;
    bad.workload = "no_such_workload";

    const auto outcomes =
        sim::SweepRunner(2).runAll({good, bad, good});
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].error.empty());
    EXPECT_FALSE(outcomes[1].error.empty());
    EXPECT_TRUE(outcomes[1].failed());
    EXPECT_TRUE(outcomes[2].error.empty());
    EXPECT_GT(outcomes[2].run.core.ipc, 0.0);
}

TEST(SweepRunner, UnknownWorkloadErrorReachesEveryCell)
{
    sim::SweepCell good;
    good.workload = "parest";
    good.spec.warmupInstrs = 1'000;
    good.spec.measureInstrs = 2'000;
    sim::SweepCell other = good;
    other.workload = "lbm";
    sim::SweepCell bad = good;
    bad.workload = "no_such_workload";
    sim::SweepCell badCdf = bad;
    badCdf.mode = ooo::CoreMode::Cdf;

    const std::vector<sim::SweepCell> cells = {bad, good, badCdf,
                                               other, bad};
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " thread(s)");
        sim::SweepRunner runner(threads);
        const auto outcomes = runner.runAll(cells);
        ASSERT_EQ(outcomes.size(), cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].workload == bad.workload) {
                EXPECT_NE(outcomes[i].error.find("no_such_workload"),
                          std::string::npos)
                    << "cell " << i << ": '" << outcomes[i].error << "'";
                EXPECT_TRUE(outcomes[i].failed());
            } else {
                EXPECT_TRUE(outcomes[i].error.empty())
                    << "cell " << i << ": " << outcomes[i].error;
                EXPECT_GT(outcomes[i].run.core.ipc, 0.0);
            }
        }
        // The failed build is attempted once, like the good ones.
        EXPECT_EQ(runner.ckptStats().builds, 3u);
        EXPECT_EQ(runner.ckptStats().images.now, 0u);
    }
}

TEST(SweepRunner, BuildsEachWorkloadOnceAndDropsItAfterItsLastCell)
{
    // smallMatrix runs each workload's three cells back to back:
    // serially, only one image is ever held.
    const auto cells = smallMatrix();
    sim::SweepRunner serial(1);
    const auto expect = serial.runAll(cells);
    EXPECT_EQ(serial.ckptStats().builds, 3u);
    EXPECT_EQ(serial.ckptStats().images.peak, 1u);
    EXPECT_EQ(serial.ckptStats().images.now, 0u);

    // Interleaved, astar's last cell comes after lbm's first: two.
    std::vector<sim::SweepCell> interleaved = {cells[0], cells[3],
                                               cells[1], cells[4]};
    serial.runAll(interleaved);
    EXPECT_EQ(serial.ckptStats().builds, 2u);
    EXPECT_EQ(serial.ckptStats().images.peak, 2u);
    EXPECT_EQ(serial.ckptStats().images.now, 0u);

    // Four workers racing for the same workloads still build each
    // once, drop every image, and match the serial run bit for bit.
    for (int round = 0; round < 3; ++round) {
        sim::SweepRunner parallel(4);
        const auto got = parallel.runAll(cells);
        EXPECT_EQ(parallel.ckptStats().builds, 3u);
        EXPECT_EQ(parallel.ckptStats().images.now, 0u);
        EXPECT_LE(parallel.ckptStats().images.peak, 3u);
        for (std::size_t i = 0; i < cells.size(); ++i)
            EXPECT_EQ(sim::toJson(expect[i]).dump(),
                      sim::toJson(got[i]).dump())
                << "cell " << i << " diverged under parallelism";
    }
}

TEST(SweepRunner, ZeroThreadsMeansHardwareConcurrency)
{
    EXPECT_GE(sim::SweepRunner(0).threads(), 1u);
    EXPECT_EQ(sim::SweepRunner(7).threads(), 7u);
}

TEST(Simulator, TruncatedRunIsSurfaced)
{
    sim::RunSpec spec;
    spec.warmupInstrs = 0;
    spec.measureInstrs = 1'000'000;
    spec.maxCycles = 2'000; // cannot possibly retire 1M instrs
    sim::Simulator s(ooo::CoreConfig{},
                     workloads::makeWorkload("parest"));
    auto r = s.run(spec);
    EXPECT_TRUE(r.truncated);
    EXPECT_FALSE(r.ok());
    EXPECT_STREQ(r.status(), "truncated");
}

TEST(Simulator, WarmupTruncationIsSurfaced)
{
    sim::RunSpec spec;
    spec.warmupInstrs = 1'000'000;
    spec.measureInstrs = 500;
    spec.maxCycles = 2'000;
    sim::Simulator s(ooo::CoreConfig{},
                     workloads::makeWorkload("parest"));
    auto r = s.run(spec);
    EXPECT_TRUE(r.warmupTruncated);
    EXPECT_FALSE(r.ok());
    EXPECT_STREQ(r.status(), "warmup_truncated");
}

TEST(Simulator, WarmupDoesNotEatMeasurementBudget)
{
    // Measure how many cycles warmup alone needs, then give the
    // whole run exactly that plus a sliver. Under the old absolute
    // maxCycles semantics the measurement phase would start with a
    // nearly exhausted budget and truncate; with per-phase budgets
    // it gets the full allowance and completes.
    const std::uint64_t warmup = 30'000;
    const std::uint64_t measure = 10'000;

    sim::RunSpec probe;
    probe.warmupInstrs = warmup;
    probe.measureInstrs = 0;
    sim::Simulator p(ooo::CoreConfig{},
                     workloads::makeWorkload("parest"));
    p.run(probe);
    const Cycle warmupCycles = p.core().cycle();
    ASSERT_GT(warmupCycles, 0u);

    sim::RunSpec spec;
    spec.warmupInstrs = warmup;
    spec.measureInstrs = measure;
    spec.maxCycles = warmupCycles + 100;
    sim::Simulator s(ooo::CoreConfig{},
                     workloads::makeWorkload("parest"));
    auto r = s.run(spec);
    EXPECT_FALSE(r.warmupTruncated);
    EXPECT_FALSE(r.truncated)
        << "warmup cycles leaked into the measurement budget";
    EXPECT_GE(r.core.retiredInstrs, measure);
}

TEST(Simulator, OkRunHasOkStatus)
{
    sim::RunSpec spec;
    spec.warmupInstrs = 2'000;
    spec.measureInstrs = 5'000;
    auto r = sim::runWorkload("lbm", ooo::CoreMode::Baseline, spec);
    EXPECT_TRUE(r.ok());
    EXPECT_STREQ(r.status(), "ok");
    EXPECT_FALSE(r.halted);
    EXPECT_FALSE(r.truncated);
}

TEST(Geomean, PositiveFilterExcludesAndCounts)
{
    std::size_t excluded = 123;
    EXPECT_DOUBLE_EQ(
        sim::geomeanPositive({4.0, 1.0, 0.0, -2.0}, &excluded), 2.0);
    EXPECT_EQ(excluded, 2u);

    EXPECT_DOUBLE_EQ(sim::geomeanPositive({0.0, -1.0}, &excluded),
                     0.0);
    EXPECT_EQ(excluded, 2u);

    EXPECT_DOUBLE_EQ(sim::geomeanPositive({4.0, 1.0}, nullptr), 2.0);
}

TEST(SweepJson, RunSerializationHasSchemaFields)
{
    sim::SweepCell cell;
    cell.workload = "parest";
    cell.variant = "v";
    cell.mode = ooo::CoreMode::Cdf;
    cell.spec.warmupInstrs = 2'000;
    cell.spec.measureInstrs = 3'000;
    const auto outcomes = sim::SweepRunner(1).runAll({cell});
    ASSERT_EQ(outcomes.size(), 1u);

    Json j = sim::toJson(outcomes[0]);
    const std::string text = j.dump(-1);
    EXPECT_NE(text.find("\"workload\":\"parest\""), std::string::npos);
    EXPECT_NE(text.find("\"variant\":\"v\""), std::string::npos);
    EXPECT_NE(text.find("\"mode\":\"cdf\""), std::string::npos);
    EXPECT_NE(text.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(text.find("\"ipc\":"), std::string::npos);
    EXPECT_NE(text.find("\"stats\":"), std::string::npos);
    EXPECT_NE(text.find("\"total_uj\":"), std::string::npos);
}

TEST(SweepJson, ModeNames)
{
    EXPECT_STREQ(sim::toString(ooo::CoreMode::Baseline), "baseline");
    EXPECT_STREQ(sim::toString(ooo::CoreMode::Cdf), "cdf");
    EXPECT_STREQ(sim::toString(ooo::CoreMode::Pre), "pre");
}
