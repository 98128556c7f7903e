/**
 * @file
 * Warmup-checkpointing tests.
 *
 * The contract under test: Simulator::restoreState(saveState()) is
 * indistinguishable from never having snapshotted — a restored
 * simulator's measurement phase is byte-identical (JSON dump of the
 * RunResult, which captures every stat, result and energy field) to
 * a straight-through run. Plus the checkpoint container format
 * (validation, corruption rejection, on-disk determinism) and the
 * SweepRunner memoization built on top.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/audit.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "mem/hierarchy.hh"
#include "sim/snapshot.hh"
#include "sim/sweep.hh"

namespace cdfsim
{

/** Test-only read access to the core's wrong-path walker and the
 *  flags naming the role it serves, to the oracle window's base and
 *  the next timestamp to retire, and to the CDF queues (Core
 *  befriends AuditPeer). */
struct AuditPeer
{
    static bool walkerLive(const ooo::Core &c) { return c.walker_.active(); }
    static SeqNum oracleBase(const ooo::Core &c) { return c.oracle_.base(); }
    static SeqNum nextRetireTs(const ooo::Core &c) { return c.nextRetireTs_; }
    static bool baselineWrongPath(const ooo::Core &c) { return c.wrongPath_; }

    static bool
    cdfWrongPath(const ooo::Core &c)
    {
        return c.cdfMode_ && !c.critOnPath_;
    }

    /** In a CDF episode with a DBQ entry that owns a branch
     *  checkpoint and a CMQ entry waiting for its replay. */
    static bool
    cdfQueuesLoaded(const ooo::Core &c)
    {
        if (!c.cdfMode_ || c.cmq_->empty())
            return false;
        for (std::size_t i = 0; i < c.dbq_->size(); ++i) {
            if (c.dbq_->at(i).ckpt != kNoInst)
                return true;
        }
        return false;
    }
};

} // namespace cdfsim

using namespace cdfsim;

namespace
{

ooo::CoreConfig
configFor(ooo::CoreMode mode)
{
    ooo::CoreConfig config;
    config.mode = mode;
    return config;
}

/** Change config leaf @p x to a different value of its type. */
template <typename T>
void
perturb(T &x)
{
    if constexpr (std::is_same_v<T, bool>)
        x = !x;
    else if constexpr (std::is_same_v<T, std::string>)
        x += "'";
    else if constexpr (std::is_enum_v<T>)
        x = static_cast<T>(static_cast<std::underlying_type_t<T>>(x) + 1);
    else
        x += 1;
}

/** Straight-through reference run. */
std::string
straightThrough(const ooo::CoreConfig &config,
                const std::string &workload, const sim::RunSpec &spec)
{
    sim::Simulator s(config, workloads::makeWorkload(workload));
    return sim::toJson(s.run(spec)).dump();
}

/** Warm + snapshot in one simulator, restore + measure in a fresh
 *  one; returns the restored run's JSON. */
std::string
viaCheckpoint(const ooo::CoreConfig &config,
              const std::string &workload, const sim::RunSpec &spec)
{
    sim::Simulator warm(config, workloads::makeWorkload(workload));
    const bool truncated = warm.warmup(spec);
    SnapWriter w;
    warm.saveState(w);

    sim::Simulator cold(config, workloads::makeWorkload(workload));
    SnapReader r(w.bytes());
    cold.restoreState(r);
    EXPECT_TRUE(r.done()) << "restore did not consume the payload";
    return sim::toJson(cold.measure(spec, truncated)).dump();
}

} // namespace

TEST(Snapshot, RoundTripMatchesStraightThroughAllModes)
{
    sim::RunSpec spec;
    spec.warmupInstrs = 5'000;
    spec.measureInstrs = 8'000;
    for (const char *workload : {"astar", "lbm", "parest"}) {
        for (auto mode :
             {ooo::CoreMode::Baseline, ooo::CoreMode::Cdf,
              ooo::CoreMode::Pre}) {
            const ooo::CoreConfig config = configFor(mode);
            EXPECT_EQ(straightThrough(config, workload, spec),
                      viaCheckpoint(config, workload, spec))
                << workload << "/" << sim::toString(mode)
                << " diverged after restore";
        }
    }
}

TEST(Snapshot, RoundTripFuzzSmallConfigs)
{
    // Non-default window geometry exercises the partition/cap paths
    // in the snapshot codecs.
    sim::RunSpec spec;
    spec.warmupInstrs = 4'000;
    spec.measureInstrs = 6'000;
    for (double factor : {0.5, 1.25}) {
        for (auto mode :
             {ooo::CoreMode::Baseline, ooo::CoreMode::Cdf,
              ooo::CoreMode::Pre}) {
            ooo::CoreConfig config = configFor(mode);
            config.scaleWindow(factor);
            EXPECT_EQ(straightThrough(config, "mcf", spec),
                      viaCheckpoint(config, "mcf", spec))
                << "scale " << factor << " mode "
                << sim::toString(mode);
        }
    }
}

TEST(Snapshot, SaveIsDeterministicAndRestoreResavesIdentically)
{
    sim::RunSpec spec;
    spec.warmupInstrs = 6'000;
    spec.measureInstrs = 0;
    const ooo::CoreConfig config = configFor(ooo::CoreMode::Cdf);

    sim::Simulator warm(config, workloads::makeWorkload("astar"));
    warm.warmup(spec);
    SnapWriter first;
    warm.saveState(first);
    SnapWriter again;
    warm.saveState(again);
    // saveState must not mutate: double-save is byte-identical.
    EXPECT_EQ(first.bytes(), again.bytes());

    sim::Simulator cold(config, workloads::makeWorkload("astar"));
    SnapReader r(first.bytes());
    cold.restoreState(r);
    SnapWriter resaved;
    cold.saveState(resaved);
    // restore -> save round-trips the byte stream exactly, so a
    // checkpoint-of-a-restored-sim equals the original checkpoint
    // (cross-process determinism relies on this).
    EXPECT_EQ(first.bytes(), resaved.bytes());
}

TEST(Snapshot, MidCdfEpisodeRoundTrip)
{
    // Snapshot while the core is INSIDE a CDF episode (fetching from
    // the uop cache, critical partition live), not at a tidy phase
    // boundary: a DBQ entry owns a branch checkpoint and a CMQ entry
    // names its critical instruction, so both handles go on the wire.
    // Then check the restored copy re-saves the same bytes and both
    // copies march in lockstep.
    const ooo::CoreConfig config = configFor(ooo::CoreMode::Cdf);
    sim::Simulator a(config, workloads::makeWorkload("mcf"));

    const auto loaded = AuditPeer::cdfQueuesLoaded;
    for (int i = 0; i < 2'000'000 && !loaded(a.core()) &&
                    !a.core().halted();
         ++i)
        a.core().tick();
    ASSERT_TRUE(loaded(a.core()))
        << "mcf/cdf never held a checkpoint-owning DBQ entry beside a "
           "queued CMQ entry";

    SnapWriter w;
    a.saveState(w);
    sim::Simulator b(config, workloads::makeWorkload("mcf"));
    SnapReader r(w.bytes());
    b.restoreState(r);
    EXPECT_TRUE(r.done());
    EXPECT_TRUE(loaded(b.core()));
    SnapWriter resaved;
    b.saveState(resaved);
    EXPECT_EQ(w.bytes(), resaved.bytes());

    a.core().run(a.core().retired() + 20'000, kNeverCycle);
    b.core().run(b.core().retired() + 20'000, kNeverCycle);
    EXPECT_EQ(a.core().cycle(), b.core().cycle());
    EXPECT_EQ(a.core().retired(), b.core().retired());
    EXPECT_EQ(a.stats().dump(), b.stats().dump());
}

TEST(Snapshot, LiveWalkerRoundTripInEveryRole)
{
    // The core's one wrong-path walker serves three roles. Snapshot
    // while it is live in each, restore, and check both copies march
    // in lockstep and the restored core re-saves the same bytes.
    struct Role
    {
        const char *name;
        ooo::CoreMode mode;
        const char *workload;
        bool (*live)(const ooo::Core &);
    };
    const Role roles[] = {
        {"baseline wrong path", ooo::CoreMode::Baseline, "astar",
         AuditPeer::baselineWrongPath},
        {"CDF critical wrong path", ooo::CoreMode::Cdf, "astar",
         AuditPeer::cdfWrongPath},
        {"runahead episode", ooo::CoreMode::Pre, "mcf",
         [](const ooo::Core &c) { return c.inRunahead(); }},
    };
    for (const Role &role : roles) {
        SCOPED_TRACE(role.name);
        const ooo::CoreConfig config = configFor(role.mode);
        sim::Simulator a(config, workloads::makeWorkload(role.workload));
        for (int i = 0; i < 2'000'000 && !role.live(a.core()) &&
                        !a.core().halted();
             ++i)
            a.core().tick();
        ASSERT_TRUE(role.live(a.core())) << "role never became live";
        ASSERT_TRUE(AuditPeer::walkerLive(a.core()));

        SnapWriter w;
        a.saveState(w);
        sim::Simulator b(config, workloads::makeWorkload(role.workload));
        SnapReader r(w.bytes());
        b.restoreState(r);
        EXPECT_TRUE(r.done());
        EXPECT_TRUE(role.live(b.core()));
        EXPECT_TRUE(AuditPeer::walkerLive(b.core()));
        SnapWriter resaved;
        b.saveState(resaved);
        EXPECT_EQ(w.bytes(), resaved.bytes());

        for (int step = 0; step < 10; ++step) {
            a.core().run(a.core().retired() + 1'000, kNeverCycle);
            b.core().run(b.core().retired() + 1'000, kNeverCycle);
            ASSERT_EQ(a.core().cycle(), b.core().cycle());
            ASSERT_EQ(a.core().retired(), b.core().retired());
        }
        EXPECT_EQ(a.stats().dump(), b.stats().dump());
    }
}

TEST(Snapshot, OracleWindowHoldsNoRetiredRecord)
{
    // The retire stage releases every record it retires, so neither
    // the oracle window nor a snapshot of it carries retired ones:
    // after every tick the window starts at the next ts to retire.
    for (const char *workload : {"astar", "mcf"}) {
        for (auto mode : {ooo::CoreMode::Baseline, ooo::CoreMode::Cdf,
                          ooo::CoreMode::Pre}) {
            SCOPED_TRACE(std::string(workload) + "/" +
                         sim::toString(mode));
            sim::Simulator s(configFor(mode),
                             workloads::makeWorkload(workload));
            ooo::Core &core = s.core();
            for (int tick = 0; tick < 20'000 && !core.halted(); ++tick) {
                core.tick();
                ASSERT_EQ(AuditPeer::oracleBase(core),
                          AuditPeer::nextRetireTs(core))
                    << "after tick " << tick;
            }
            EXPECT_GT(core.retired(), 1'000u);
        }
    }
}

TEST(Snapshot, PayloadIndependentOfHostKnobs)
{
    // skipIdleCycles and profileStages are host-only: a snapshot
    // taken with them on restores into a simulator with them off
    // (and vice versa) and the two continue identically. This is
    // what lets a --profile bench reuse an unprofiled checkpoint.
    sim::RunSpec spec;
    spec.warmupInstrs = 6'000;
    spec.measureInstrs = 8'000;

    ooo::CoreConfig skipOn = configFor(ooo::CoreMode::Cdf);
    skipOn.skipIdleCycles = true;
    ooo::CoreConfig skipOff = skipOn;
    skipOff.skipIdleCycles = false;
    skipOff.profileStages = true;

    // Same warmup key: the host knobs are excluded from it.
    EXPECT_EQ(sim::warmupKey("lbm", skipOn, spec),
              sim::warmupKey("lbm", skipOff, spec));

    // Warm with skip ON — mid-run, so the skip machinery is active
    // (possibly mid-backoff) at the snapshot point.
    sim::Simulator a(skipOn, workloads::makeWorkload("lbm"));
    const bool truncated = a.warmup(spec);
    SnapWriter w;
    a.saveState(w);

    // Restore into a skip-OFF profiled simulator.
    sim::Simulator b(skipOff, workloads::makeWorkload("lbm"));
    SnapReader r(w.bytes());
    b.restoreState(r);

    const auto ra = a.measure(spec, truncated);
    const auto rb = b.measure(spec, truncated);
    EXPECT_EQ(sim::toJson(ra).dump(), sim::toJson(rb).dump());
}

TEST(Snapshot, HaltedWorkloadShorterThanWarmup)
{
    // The program ends before warmupInstrs retire: the checkpoint
    // must carry the halted core faithfully and the restored run
    // must report identically (halted, zero-length measurement).
    auto make = [] {
        return workloads::makeRandomWorkload(0xD1CE, 4, 40);
    };
    sim::RunSpec spec;
    spec.warmupInstrs = 1'000'000;
    spec.measureInstrs = 5'000;

    const ooo::CoreConfig config = configFor(ooo::CoreMode::Baseline);
    sim::Simulator a(config, make());
    const auto straight = sim::toJson(a.run(spec)).dump();

    sim::Simulator warm(config, make());
    const bool truncated = warm.warmup(spec);
    EXPECT_FALSE(truncated); // halted, not truncated
    EXPECT_TRUE(warm.core().halted());
    SnapWriter w;
    warm.saveState(w);
    sim::Simulator cold(config, make());
    SnapReader r(w.bytes());
    cold.restoreState(r);
    EXPECT_TRUE(cold.core().halted());
    const auto restored =
        sim::toJson(cold.measure(spec, truncated)).dump();
    EXPECT_EQ(straight, restored);
}

TEST(Snapshot, RestoreMustConsumeTheWholePayload)
{
    // A writer/reader width mismatch leaves bytes unread (or reads
    // past the end); restoreState itself must reject both, not only
    // callers that remember to check done().
    sim::RunSpec spec;
    spec.warmupInstrs = 3'000;
    const ooo::CoreConfig config = configFor(ooo::CoreMode::Cdf);
    sim::Simulator warm(config, workloads::makeWorkload("astar"));
    warm.warmup(spec);
    SnapWriter w;
    warm.saveState(w);

    std::vector<std::uint8_t> trailing = w.bytes();
    trailing.push_back(0);
    std::vector<std::uint8_t> truncated = w.bytes();
    truncated.pop_back();
    for (const auto *payload : {&trailing, &truncated}) {
        sim::Simulator cold(config, workloads::makeWorkload("astar"));
        SnapReader r(*payload);
        EXPECT_THROW(cold.restoreState(r), PanicError)
            << payload->size() << "-byte payload accepted (valid: "
            << w.size() << ")";
    }
}

TEST(Snapshot, HierarchyWithMissesInFlightRoundTrips)
{
    // Save a memory hierarchy while MSHRs and DRAM misses are still
    // in flight, restore it into a fresh one, then step both copies
    // with the same accesses: at every cycle they must agree on the
    // two MLP counts and the next memory event.
    const mem::HierarchyConfig cfg;
    StatRegistry statsA;
    StatRegistry statsB;
    mem::MemHierarchy a(cfg, statsA);
    Random rng(7);
    const auto randomLine = [&rng] {
        return rng.below(1 << 22) * kLineBytes;
    };
    const auto kindOf = [](Cycle now) {
        return now % 3 ? mem::AccessKind::DemandLoad
                       : mem::AccessKind::WrongPathLoad;
    };
    Cycle now = 0;
    for (; now < 96; now += 4)
        a.dataAccess(randomLine(), kindOf(now), now);
    ASSERT_GT(a.outstandingDemandMisses(now), 0u);
    ASSERT_GT(a.outstandingUselessMisses(now), 0u);

    SnapWriter w;
    w(a);
    mem::MemHierarchy b(cfg, statsB);
    SnapReader r(w.bytes());
    r(b);
    // The registry travels with the Simulator, not the hierarchy; the
    // prefetch throttle reads it, so copy it over by hand.
    for (const auto &[name, value] : statsA.all())
        statsB.counter(name) = value;
    SnapWriter again;
    again(b);
    EXPECT_EQ(again.bytes(), w.bytes());

    for (const Cycle end = now + 3000; now < end; ++now) {
        if (now % 16 == 0) {
            const Addr line = randomLine();
            a.dataAccess(line, kindOf(now), now);
            b.dataAccess(line, kindOf(now), now);
        }
        ASSERT_EQ(a.outstandingDemandMisses(now),
                  b.outstandingDemandMisses(now))
            << "cycle " << now;
        ASSERT_EQ(a.outstandingUselessMisses(now),
                  b.outstandingUselessMisses(now))
            << "cycle " << now;
        ASSERT_EQ(a.earliestEvent(now), b.earliestEvent(now))
            << "cycle " << now;
    }
    EXPECT_EQ(statsA.all(), statsB.all());
}

TEST(SnapshotFile, SaveLoadRoundTrip)
{
    const std::filesystem::path dir = "snapshot_file_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    sim::Checkpoint ckpt;
    ckpt.warmupTruncated = true;
    for (int i = 0; i < 1000; ++i)
        ckpt.payload.push_back(static_cast<std::uint8_t>(i * 37));

    const std::uint64_t key = 0x0123456789ABCDEFull;
    const std::string path =
        (dir / sim::checkpointFileName(key)).string();
    ASSERT_TRUE(sim::saveCheckpointFile(path, key, ckpt));

    auto loaded = sim::loadCheckpointFile(path, key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->payload, ckpt.payload);
    EXPECT_TRUE(loaded->warmupTruncated);

    // Wrong key (stale artifact after a config change) is rejected.
    EXPECT_FALSE(sim::loadCheckpointFile(path, key + 1).has_value());
    // Missing file.
    EXPECT_FALSE(
        sim::loadCheckpointFile((dir / "nope.cdfsnap").string(), key)
            .has_value());

    // A flipped payload byte fails the checksum.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(-1, std::ios::end);
        f.put(static_cast<char>(~ckpt.payload.back()));
    }
    EXPECT_FALSE(sim::loadCheckpointFile(path, key).has_value());

    // A file written under another schema version is rejected: the
    // payload layout it describes is not this build's. The version
    // is the little-endian u32 after the 8-byte magic.
    for (const std::uint32_t other :
         {sim::kCheckpointSchemaVersion - 1,
          sim::kCheckpointSchemaVersion + 1}) {
        ASSERT_TRUE(sim::saveCheckpointFile(path, key, ckpt));
        ASSERT_TRUE(sim::loadCheckpointFile(path, key).has_value());
        {
            std::fstream f(path, std::ios::in | std::ios::out |
                                     std::ios::binary);
            f.seekp(8);
            for (unsigned b = 0; b < 4; ++b)
                f.put(static_cast<char>((other >> (8 * b)) & 0xFF));
        }
        EXPECT_FALSE(sim::loadCheckpointFile(path, key).has_value())
            << "schema version " << other << " accepted";
    }

    // A truncated file is rejected, not parsed.
    ASSERT_TRUE(sim::saveCheckpointFile(path, key, ckpt));
    std::filesystem::resize_file(path, 20);
    EXPECT_FALSE(sim::loadCheckpointFile(path, key).has_value());

    std::filesystem::remove_all(dir);
}

TEST(SnapshotFile, DamagedPayloadMisses)
{
    // The header survives but the payload does not: the load must
    // miss, not hand back a short or altered payload.
    const std::filesystem::path dir = "snapshot_damage_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    sim::Checkpoint ckpt;
    for (int i = 0; i < 5000; ++i)
        ckpt.payload.push_back(static_cast<std::uint8_t>(i * 13));
    const std::uint64_t key = 0xFEEDull;
    const std::string path = (dir / "damaged.cdfsnap").string();
    ASSERT_TRUE(sim::saveCheckpointFile(path, key, ckpt));
    const auto fileBytes = std::filesystem::file_size(path);
    ASSERT_TRUE(sim::loadCheckpointFile(path, key).has_value());

    // A payload byte in the middle flipped: the checksum catches it.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(static_cast<std::streamoff>(fileBytes / 2));
        f.put(static_cast<char>(~ckpt.payload[ckpt.payload.size() / 2]));
    }
    EXPECT_FALSE(sim::loadCheckpointFile(path, key).has_value());

    // Truncated inside the payload, by one byte and by half.
    for (const auto size : {fileBytes - 1, fileBytes / 2}) {
        ASSERT_TRUE(sim::saveCheckpointFile(path, key, ckpt));
        std::filesystem::resize_file(path, size);
        EXPECT_FALSE(sim::loadCheckpointFile(path, key).has_value())
            << size << " of " << fileBytes << " bytes accepted";
    }

    // One byte more than the header announces.
    ASSERT_TRUE(sim::saveCheckpointFile(path, key, ckpt));
    std::filesystem::resize_file(path, fileBytes + 1);
    EXPECT_FALSE(sim::loadCheckpointFile(path, key).has_value());

    std::filesystem::remove_all(dir);
}

TEST(SnapshotFile, OnDiskBytesAreDeterministic)
{
    // Two independent simulators (standing in for two processes)
    // warming the same cell must spill byte-identical checkpoint
    // files: no pids, timestamps or pointer values in the payload.
    const std::filesystem::path dir = "snapshot_determinism_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    sim::RunSpec spec;
    spec.warmupInstrs = 5'000;
    const ooo::CoreConfig config = configFor(ooo::CoreMode::Cdf);
    const std::uint64_t key = sim::warmupKey("astar", config, spec);

    auto spill = [&](const char *name) {
        sim::Simulator s(config, workloads::makeWorkload("astar"));
        sim::Checkpoint ckpt;
        ckpt.warmupTruncated = s.warmup(spec);
        SnapWriter w;
        s.saveState(w);
        ckpt.payload = w.take();
        const std::string path = (dir / name).string();
        EXPECT_TRUE(sim::saveCheckpointFile(path, key, ckpt));
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };
    const std::string fileA = spill("a.cdfsnap");
    const std::string fileB = spill("b.cdfsnap");
    ASSERT_FALSE(fileA.empty());
    EXPECT_EQ(fileA, fileB);

    std::filesystem::remove_all(dir);
}

TEST(SnapshotKey, DistinguishesWarmupRelevantChanges)
{
    sim::RunSpec spec;
    spec.warmupInstrs = 5'000;
    const ooo::CoreConfig base = configFor(ooo::CoreMode::Cdf);

    const std::uint64_t k = sim::warmupKey("astar", base, spec);
    EXPECT_EQ(k, sim::warmupKey("astar", base, spec));

    EXPECT_NE(k, sim::warmupKey("lbm", base, spec));
    EXPECT_NE(k, sim::warmupKey("astar",
                                configFor(ooo::CoreMode::Baseline),
                                spec));

    // Every leaf CoreConfig's fields() visitor names is in the key:
    // perturbing any one of them alone moves it.
    std::size_t leaves = 0;
    ooo::CoreConfig walked = base;
    forEachField(walked, [&](std::string_view, auto &) { ++leaves; });
    EXPECT_GT(leaves, 100u);
    for (std::size_t i = 0; i < leaves; ++i) {
        ooo::CoreConfig changed = base;
        std::string path;
        std::size_t at = 0;
        forEachField(changed, [&](std::string_view p, auto &field) {
            if (at++ == i) {
                path = p;
                perturb(field);
            }
        });
        EXPECT_NE(k, sim::warmupKey("astar", changed, spec)) << path;
    }

    // The host-only knobs are not: a profiled or tick-by-tick run
    // reuses the default run's checkpoint.
    ooo::CoreConfig hostOnly = base;
    hostOnly.skipIdleCycles = !hostOnly.skipIdleCycles;
    hostOnly.profileStages = !hostOnly.profileStages;
    EXPECT_EQ(k, sim::warmupKey("astar", hostOnly, spec));

    sim::RunSpec longer = spec;
    longer.warmupInstrs += 1;
    EXPECT_NE(k, sim::warmupKey("astar", base, longer));

    // measureInstrs does NOT affect the warmup state; cells that
    // differ only there share a checkpoint.
    sim::RunSpec otherMeasure = spec;
    otherMeasure.measureInstrs = 123'456;
    EXPECT_EQ(k, sim::warmupKey("astar", base, otherMeasure));
}

TEST(SweepMemoization, SharedWarmupsAreBitIdenticalAndCounted)
{
    // Four cells, two warmup groups: (astar/cdf) twice with
    // different measure windows, (lbm/baseline) twice. Leaders warm
    // (miss), peers restore (hit) — and every outcome must equal an
    // independent unmemoized run.
    auto cell = [](const char *wl, ooo::CoreMode mode,
                   std::uint64_t measure) {
        sim::SweepCell c;
        c.workload = wl;
        c.mode = mode;
        c.spec.warmupInstrs = 5'000;
        c.spec.measureInstrs = measure;
        return c;
    };
    const std::vector<sim::SweepCell> cells = {
        cell("astar", ooo::CoreMode::Cdf, 8'000),
        cell("lbm", ooo::CoreMode::Baseline, 8'000),
        cell("astar", ooo::CoreMode::Cdf, 4'000),
        cell("lbm", ooo::CoreMode::Baseline, 4'000),
    };

    sim::SweepRunner serial(1);
    const auto outcomes = serial.runAll(cells);
    EXPECT_EQ(serial.ckptStats().misses, 2u);
    EXPECT_EQ(serial.ckptStats().hits, 2u);

    for (std::size_t i = 0; i < cells.size(); ++i) {
        ooo::CoreConfig config = cells[i].config;
        config.mode = cells[i].mode;
        sim::Simulator independent(
            config, workloads::makeWorkload(cells[i].workload));
        auto expect = independent.run(cells[i].spec);
        expect.workload = cells[i].workload;
        EXPECT_EQ(sim::toJson(expect).dump(),
                  sim::toJson(outcomes[i].run).dump())
            << "memoized cell " << i << " diverged";
    }

    // Same matrix under contention: followers block on the leader's
    // condition variable instead of finding a ready checkpoint.
    sim::SweepRunner parallel(4);
    const auto par = parallel.runAll(cells);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(sim::toJson(outcomes[i]).dump(),
                  sim::toJson(par[i]).dump());
    }
    EXPECT_EQ(parallel.ckptStats().hits +
                  parallel.ckptStats().misses,
              cells.size());
}

TEST(SweepMemoization, CheckpointDirSharesAcrossRunners)
{
    const std::filesystem::path dir = "sweep_ckpt_dir_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    auto cell = [](const char *wl, ooo::CoreMode mode) {
        sim::SweepCell c;
        c.workload = wl;
        c.mode = mode;
        c.spec.warmupInstrs = 5'000;
        c.spec.measureInstrs = 6'000;
        return c;
    };
    const std::vector<sim::SweepCell> cells = {
        cell("astar", ooo::CoreMode::Cdf),
        cell("parest", ooo::CoreMode::Pre),
    };

    // Cold: every group warms and spills to disk.
    sim::SweepRunner cold(1);
    cold.setCheckpointDir(dir.string());
    const auto first = cold.runAll(cells);
    EXPECT_EQ(cold.ckptStats().misses, cells.size());
    EXPECT_EQ(cold.ckptStats().hits, 0u);
    std::size_t files = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        files += e.is_regular_file() ? 1 : 0;
    EXPECT_EQ(files, cells.size());

    // Warm: a fresh runner (standing in for the next bench process)
    // restores every cell from disk and produces identical results.
    sim::SweepRunner warmRunner(1);
    warmRunner.setCheckpointDir(dir.string());
    const auto second = warmRunner.runAll(cells);
    EXPECT_EQ(warmRunner.ckptStats().hits, cells.size());
    EXPECT_EQ(warmRunner.ckptStats().misses, 0u);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(sim::toJson(first[i]).dump(),
                  sim::toJson(second[i]).dump());
    }

    std::filesystem::remove_all(dir);
}

TEST(SweepMemoization, PayloadFreedAfterItsGroupsLastRestore)
{
    // astar/cdf is one group of three (its cells differ only in the
    // measure window); lbm/baseline and parest/pre are singletons.
    auto cell = [](const char *wl, ooo::CoreMode mode,
                   std::uint64_t measure) {
        sim::SweepCell c;
        c.workload = wl;
        c.mode = mode;
        c.spec.warmupInstrs = 4'000;
        c.spec.measureInstrs = measure;
        return c;
    };
    const std::vector<sim::SweepCell> cells = {
        cell("astar", ooo::CoreMode::Cdf, 3'000),
        cell("astar", ooo::CoreMode::Cdf, 5'000),
        cell("astar", ooo::CoreMode::Cdf, 4'000),
        cell("lbm", ooo::CoreMode::Baseline, 4'000),
        cell("parest", ooo::CoreMode::Pre, 4'000),
    };
    const std::filesystem::path dir = "sweep_payload_free_test";

    // In memory only, the singletons never snapshot; with a disk
    // cache each one holds its payload only until its file is
    // written. Serially, astar's payload is gone before lbm warms.
    for (const bool disk : {false, true}) {
        SCOPED_TRACE(disk ? "with --ckpt-dir" : "in memory");
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        sim::SweepRunner serial(1);
        if (disk)
            serial.setCheckpointDir(dir.string());
        const auto outcomes = serial.runAll(cells);
        EXPECT_EQ(serial.ckptStats().misses, 3u);
        EXPECT_EQ(serial.ckptStats().hits, 2u);
        EXPECT_EQ(serial.ckptStats().payloads.now, 0u);
        EXPECT_EQ(serial.ckptStats().payloads.peak, 1u);

        // Four threads: the followers restore while the leader may
        // still be writing; nobody may see the payload freed early.
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        sim::SweepRunner parallel(4);
        if (disk)
            parallel.setCheckpointDir(dir.string());
        const auto par = parallel.runAll(cells);
        EXPECT_EQ(parallel.ckptStats().payloads.now, 0u);
        EXPECT_EQ(parallel.ckptStats().hits +
                      parallel.ckptStats().misses,
                  cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i) {
            EXPECT_TRUE(outcomes[i].error.empty()) << outcomes[i].error;
            EXPECT_EQ(sim::toJson(outcomes[i]).dump(),
                      sim::toJson(par[i]).dump())
                << "cell " << i;
        }
    }

    // A rerun over the same directory restores every cell from disk
    // and frees each loaded payload too.
    sim::SweepRunner rerun(4);
    rerun.setCheckpointDir(dir.string());
    rerun.runAll(cells);
    EXPECT_EQ(rerun.ckptStats().hits, cells.size());
    EXPECT_EQ(rerun.ckptStats().payloads.now, 0u);
    std::filesystem::remove_all(dir);
}

TEST(SweepMemoization, FailedLeaderLeavesFollowersToWarmThemselves)
{
    // mcf cannot retire within 5 cycles of a miss, so every warmup of
    // this group panics with a deadlock: the leader fails, and each
    // follower must warm (and fail) on its own rather than wait for,
    // or restore, a checkpoint that never comes. A good group runs
    // beside it untouched.
    auto cell = [](const char *wl, std::uint64_t measure,
                   Cycle deadlock) {
        sim::SweepCell c;
        c.workload = wl;
        c.mode = ooo::CoreMode::Cdf;
        c.config.deadlockCycles = deadlock;
        c.spec.warmupInstrs = 4'000;
        c.spec.measureInstrs = measure;
        return c;
    };
    const Cycle kDefault = ooo::CoreConfig{}.deadlockCycles;
    const std::vector<sim::SweepCell> cells = {
        cell("mcf", 3'000, 5),     cell("astar", 3'000, kDefault),
        cell("mcf", 4'000, 5),     cell("astar", 4'000, kDefault),
        cell("mcf", 5'000, 5),
    };
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " thread(s)");
        sim::SweepRunner runner(threads);
        const auto outcomes = runner.runAll(cells);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].workload == "mcf") {
                EXPECT_NE(outcomes[i].error.find("deadlock"),
                          std::string::npos)
                    << "cell " << i << ": " << outcomes[i].error;
            } else {
                EXPECT_TRUE(outcomes[i].error.empty())
                    << "cell " << i << ": " << outcomes[i].error;
            }
        }
        // The failed leader counts nothing; the two mcf followers'
        // own warmups and the astar leader are misses.
        EXPECT_EQ(runner.ckptStats().misses, 3u);
        EXPECT_EQ(runner.ckptStats().hits, 1u);
        EXPECT_EQ(runner.ckptStats().payloads.now, 0u);
        EXPECT_EQ(runner.ckptStats().images.now, 0u);
    }
}

TEST(SnapshotLayout, PayloadBytesArePinned)
{
    // Pins the checkpoint payload bytes. Any change to what
    // Simulator::saveState writes — a field added, removed,
    // reordered or written at another width — moves these hashes.
    // Checkpoint files from an older build would then be misread, so
    // such a change must bump sim::kCheckpointSchemaVersion (which
    // makes old files miss cleanly) and re-pin the constants below.
    // A change of content alone (same layout, other values, e.g.
    // fewer oracle records in the window) moves them too but keeps
    // the schema: re-pin, and show that a checkpoint directory
    // written by either build restores in the other to results
    // identical to a cold run (fig14 from a fig13 --ckpt-dir).
    // The payload carries every AuditSampler's call count, which only
    // Audit builds tick, so those builds pin their own hashes.
    sim::RunSpec spec;
    spec.warmupInstrs = 3'000;
    struct Pin
    {
        const char *workload;
        ooo::CoreMode mode;
        std::uint64_t fnv;
        std::uint64_t fnvAudit;
    };
    const Pin pins[] = {
        {"astar", ooo::CoreMode::Baseline, 0xe8f862a26c91106full,
         0x094e36dc35fe82bdull},
        {"astar", ooo::CoreMode::Cdf, 0xb87e4c134438ecb6ull,
         0xe38a76b5ca71cc5full},
        {"astar", ooo::CoreMode::Pre, 0x55652028e04a565cull,
         0x14f254e486a68285ull},
        {"mcf", ooo::CoreMode::Baseline, 0x633802ecc6595820ull,
         0x7ab73437a1413a27ull},
        {"mcf", ooo::CoreMode::Cdf, 0xf9f81d11c76e7a7dull,
         0xebedb7de3436e7b6ull},
        {"mcf", ooo::CoreMode::Pre, 0x14366ed41fa6ab7aull,
         0x39f3b3f394fb68e7ull},
    };
    for (const Pin &pin : pins) {
        sim::Simulator s(configFor(pin.mode),
                         workloads::makeWorkload(pin.workload));
        s.warmup(spec);
        SnapWriter w;
        s.saveState(w);
        EXPECT_EQ(w.fnv1a(), SIM_AUDIT_ENABLED ? pin.fnvAudit : pin.fnv)
            << pin.workload << "/" << sim::toString(pin.mode)
            << ": checkpoint payload layout changed (fnv 0x" << std::hex
            << w.fnv1a() << std::dec
            << "). Bump sim::kCheckpointSchemaVersion and re-pin.";
    }

    // The warmup key names the checkpoint files, so a change to what
    // it hashes orphans every existing checkpoint directory.
    EXPECT_EQ(sim::warmupKey("astar", ooo::CoreConfig{}, spec),
              0x5be0b1b63bf824f1ull)
        << "warmup key changed (0x" << std::hex
        << sim::warmupKey("astar", ooo::CoreConfig{}, spec) << std::dec
        << "). Bump sim::kCheckpointSchemaVersion and re-pin.";
}
