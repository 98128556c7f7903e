/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's own
 * components: cache access, DRAM scheduling, TAGE prediction, the
 * functional interpreter, the fill-buffer walk and whole-core
 * simulation throughput. Not a paper figure; this keeps the
 * simulator fast enough that the figure harnesses stay cheap.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "bp/tage.hh"
#include "cdf/fill_buffer.hh"
#include "common/random.hh"
#include "isa/interpreter.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/hierarchy.hh"
#include "ooo/core.hh"
#include "workloads/workloads.hh"

using namespace cdfsim;

static void
BM_CacheAccess(benchmark::State &state)
{
    StatRegistry stats;
    mem::Cache cache({"c", 32 * 1024, 8, 2, 12}, stats);
    Random rng(1);
    Cycle now = 0;
    for (auto _ : state) {
        const Addr a = rng.below(1 << 20) * 64;
        benchmark::DoNotOptimize(cache.access(
            a, false, ++now, [](Cycle s) { return s + 100; }));
    }
}
BENCHMARK(BM_CacheAccess);

// The per-cycle MLP sample from Core::statsStage: two outstanding-
// miss queries every cycle against a miss-heavy demand/wrong-path
// stream. Dominated by the queue-prune cost.
static void
BM_MlpSample(benchmark::State &state)
{
    StatRegistry stats;
    mem::MemHierarchy mh(mem::HierarchyConfig{}, stats);
    Random rng(4);
    Cycle now = 0;
    for (auto _ : state) {
        ++now;
        if ((now & 7) == 0) {
            mh.dataAccess(rng.below(1 << 22) * 64,
                          mem::AccessKind::DemandLoad, now);
        }
        if ((now & 15) == 0) {
            mh.dataAccess(rng.below(1 << 22) * 64,
                          mem::AccessKind::WrongPathLoad, now);
        }
        benchmark::DoNotOptimize(mh.outstandingDemandMisses(now) +
                                 mh.outstandingUselessMisses(now));
    }
}
BENCHMARK(BM_MlpSample);

static void
BM_DramAccess(benchmark::State &state)
{
    StatRegistry stats;
    mem::DramModel dram(mem::DramConfig{}, stats);
    Random rng(2);
    Cycle now = 0;
    for (auto _ : state) {
        now += 20;
        benchmark::DoNotOptimize(
            dram.access(rng.below(1 << 22) * 64, false, now));
    }
}
BENCHMARK(BM_DramAccess);

static void
BM_TagePredictUpdate(benchmark::State &state)
{
    StatRegistry stats;
    bp::Tage tage(bp::TageConfig{}, stats);
    Random rng(3);
    for (auto _ : state) {
        const Addr pc = rng.below(64);
        auto info = tage.predict(pc);
        tage.update(pc, rng.chancePercent(60), info);
    }
}
BENCHMARK(BM_TagePredictUpdate);

static void
BM_Interpreter(benchmark::State &state)
{
    auto w = workloads::makeWorkload("astar");
    isa::MemoryImage mem = w.makeMemory();
    isa::Interpreter interp(w.program, mem);
    for (auto _ : state)
        benchmark::DoNotOptimize(interp.step());
}
BENCHMARK(BM_Interpreter);

static void
BM_CoreTickBaseline(benchmark::State &state)
{
    auto w = workloads::makeWorkload("astar");
    isa::MemoryImage mem = w.makeMemory();
    StatRegistry stats;
    ooo::CoreConfig cfg;
    ooo::Core core(cfg, w.program, mem, stats);
    for (auto _ : state)
        core.tick();
    state.counters["retired/cycle"] = benchmark::Counter(
        static_cast<double>(core.retired()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreTickBaseline);

// Memory-bound kernels where the hierarchy dominates host time.
static void
BM_CoreTickWorkload(benchmark::State &state, const char *name)
{
    auto w = workloads::makeWorkload(name);
    isa::MemoryImage mem = w.makeMemory();
    StatRegistry stats;
    ooo::CoreConfig cfg;
    ooo::Core core(cfg, w.program, mem, stats);
    for (auto _ : state)
        core.tick();
    state.counters["retired/cycle"] = benchmark::Counter(
        static_cast<double>(core.retired()),
        benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_CoreTickWorkload, mcf, "mcf");
BENCHMARK_CAPTURE(BM_CoreTickWorkload, lbm, "lbm");

static void
BM_CoreTickCdf(benchmark::State &state)
{
    auto w = workloads::makeWorkload("astar");
    isa::MemoryImage mem = w.makeMemory();
    StatRegistry stats;
    ooo::CoreConfig cfg;
    cfg.mode = ooo::CoreMode::Cdf;
    ooo::Core core(cfg, w.program, mem, stats);
    core.run(50'000); // warm into CDF mode
    for (auto _ : state)
        core.tick();
}
BENCHMARK(BM_CoreTickCdf);

// Stall-heavy core throughput: the mcf pointer-chase against tiny
// caches parks nearly every window on a DRAM miss, which is exactly
// the shape the idle-skip fast-forward targets. Driven through run()
// — the skip lives in the run loop, not in tick() — with the knob
// captured on and off so the pair reads as a direct speedup ratio.
static void
BM_CoreTickStallHeavy(benchmark::State &state, bool skipIdle)
{
    auto w = workloads::makeWorkload("mcf");
    ooo::CoreConfig cfg;
    cfg.skipIdleCycles = skipIdle;
    cfg.mem.l1d.sizeBytes = 4 * 1024;
    cfg.mem.llc.sizeBytes = 64 * 1024;
    cfg.mem.prefetcherEnabled = false;

    auto mem = std::make_unique<isa::MemoryImage>(w.makeMemory());
    auto stats = std::make_unique<StatRegistry>();
    auto core = std::make_unique<ooo::Core>(cfg, w.program, *mem,
                                            *stats);
    std::uint64_t cycles = 0;
    std::uint64_t skipped = 0;
    constexpr std::uint64_t kChunk = 2'000;
    for (auto _ : state) {
        if (core->halted()) {
            // The program ran out: restart it. The core holds
            // references into the memory image and stat registry, so
            // all three are rebuilt together, outside the timing.
            state.PauseTiming();
            cycles += core->cycle();
            skipped += core->skippedCycles();
            core.reset();
            stats = std::make_unique<StatRegistry>();
            mem = std::make_unique<isa::MemoryImage>(w.makeMemory());
            core = std::make_unique<ooo::Core>(cfg, w.program, *mem,
                                               *stats);
            state.ResumeTiming();
        }
        core->run(core->retired() + kChunk);
    }
    cycles += core->cycle();
    skipped += core->skippedCycles();
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
    state.counters["skipped_frac"] =
        cycles ? static_cast<double>(skipped) /
                     static_cast<double>(cycles)
               : 0.0;
}
BENCHMARK_CAPTURE(BM_CoreTickStallHeavy, skip_on, true);
BENCHMARK_CAPTURE(BM_CoreTickStallHeavy, skip_off, false);

BENCHMARK_MAIN();
