/**
 * @file
 * cdfbench measurement binary: runs one benchmark workload for a time budget and
 * prints one JSON record per line. run.py builds this binary, turns
 * the records into the benchmark's metrics and checks the stat
 * fingerprints; README.md in this directory defines every metric.
 *
 *   cdfbench --workload cdf_dense|mem_stall|fig_sequence
 *            [--seed N] [--seconds S] [--trace 0|1] [--quick]
 *            [--spec-dir DIR] [--work-dir DIR] [--reference]
 *
 * A pass runs the workload's whole cell list once. Passes repeat
 * until --seconds have elapsed (at least one). With --trace 1,
 * untraced and traced passes alternate (ABBA order), so the gap
 * between their wall times is the tracing overhead, and per-layer
 * numbers come from the traced passes only.
 *
 * Records, one JSON object per line:
 *   {"kind": "pass", "traced": b, "wall_s": ..., "cells": [...], ...}
 *   {"kind": "summary", "threads": ..., "trace_file": ...}
 * With --reference (fig_sequence only), the binary instead runs the
 * Fig. 13 "base" and "cdf" cells once, untimed, and prints
 *   {"kind": "reference", "cells": [...]}
 * so run.py can report cdf_gain_err_pp beside cdf_dense and mem_stall
 * from a process of its own (keeping their peak RSS their own).
 * Each cell carries the FNV-1a fingerprint of its compact
 * sim::toJson(SweepOutcome), as tools/stat_gate_gen computes it.
 *
 * The binary only calls the simulator's public API and reads the
 * counters it already exposes; tracing is spans around those calls
 * plus CoreConfig::profileStages.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "sim/snapshot.hh"
#include "sim/sweep.hh"
#include "sim/sweep_spec.hh"

using namespace cdfsim;
namespace fs = std::filesystem;

namespace
{

// --- Clocks ----------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point kStart = Clock::now();

/** Wall seconds since the process started. */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - kStart).count();
}

double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- Tracing ---------------------------------------------------------

/** One timed call into a layer's public API. */
struct Span
{
    std::string name; //!< "<layer>.<call>"
    double start = 0.0;
    double end = 0.0;
    int parent = -1; //!< index into Tracer::spans; -1 = root
    int cell = -1;   //!< cell index within the pass; -1 = none
    int pass = 0;
};

/** In-memory span log; records only while `on` (traced passes). */
struct Tracer
{
    bool on = false;
    int pass = 0;
    std::vector<Span> spans;

    int
    open(const char *name, int parent = -1, int cell = -1)
    {
        if (!on)
            return -1;
        spans.push_back({name, now(), 0.0, parent, cell, pass});
        return static_cast<int>(spans.size()) - 1;
    }

    void
    close(int id)
    {
        if (id >= 0)
            spans[static_cast<std::size_t>(id)].end = now();
    }
};

/** Time @p fn, recording it as a span when tracing; returns seconds. */
template <typename F>
double
timed(Tracer &tracer, const char *name, int parent, int cell, F &&fn)
{
    const int id = tracer.open(name, parent, cell);
    const double t0 = now();
    fn();
    const double dt = now() - t0;
    tracer.close(id);
    return dt;
}

/** Self seconds per layer ("<layer>" = span name up to the first
 *  '.') over spans [begin, end): duration minus child durations. */
void
addSelfTimes(Json &layers, const std::vector<Span> &spans,
             std::size_t begin, std::size_t end)
{
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = begin; i < end; ++i) {
        const double d = spans[i].end - spans[i].start;
        self[i] += d;
        if (spans[i].parent >= 0)
            self[static_cast<std::size_t>(spans[i].parent)] -= d;
    }
    std::map<std::string, double> byLayer;
    for (const char *layer :
         {"bench", "workloads", "sim", "sweep", "snapshot"})
        byLayer[layer] = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
        const std::string &n = spans[i].name;
        byLayer[n.substr(0, n.find('.'))] += self[i];
    }
    for (const auto &[layer, s] : byLayer)
        layers["self." + layer + "_s"] = s;
}

void
writeSpans(const std::vector<Span> &spans, const std::string &path)
{
    Json arr = Json::array();
    for (const Span &s : spans) {
        Json j = Json::object();
        j["name"] = s.name;
        j["start_s"] = s.start;
        j["end_s"] = s.end;
        j["parent"] = s.parent;
        j["cell"] = s.cell;
        j["pass"] = s.pass;
        arr.push_back(std::move(j));
    }
    std::ofstream out(path);
    out << arr.dump(1) << "\n";
    if (!out)
        std::fprintf(stderr, "cdfbench: cannot write %s\n", path.c_str());
}

// --- Workloads -------------------------------------------------------

/** makeWorkload's default seed, the one SweepRunner cells run with. */
constexpr std::uint64_t kDefaultSeed = 0x5EED;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool quick = false;
    bool reference = false;
    /** fig_sequence's SweepRunner threads: min(4, usable CPUs). */
    unsigned threads = 1;
    std::string specDir = "bench/specs";
    std::string workDir = ".bench_build/cdfbench";
};

/** The benchmark's own run windows (the figure specs' are 300k/200k;
 *  shorter windows let one run repeat each workload several times). */
sim::RunSpec
benchSpec(const Options &opt)
{
    sim::RunSpec spec;
    if (opt.quick) {
        spec.warmupInstrs = 2'000;
        spec.measureInstrs = 3'000;
        spec.maxCycles = 5'000'000;
    } else if (opt.workload == "fig_sequence") {
        spec.warmupInstrs = 60'000;
        spec.measureInstrs = 40'000;
    } else {
        spec.warmupInstrs = 150'000;
        spec.measureInstrs = 100'000;
    }
    return spec;
}

sim::SweepCell
makeCell(const std::string &workload, ooo::CoreMode mode,
         const sim::RunSpec &spec)
{
    sim::SweepCell cell;
    cell.workload = workload;
    cell.variant = sim::toString(mode);
    cell.mode = mode;
    cell.config.mode = mode;
    cell.spec = spec;
    return cell;
}

/** cdf_dense / mem_stall cells. */
std::vector<sim::SweepCell>
directCells(const Options &opt)
{
    const sim::RunSpec spec = benchSpec(opt);
    std::vector<sim::SweepCell> cells;
    if (opt.workload == "cdf_dense") {
        for (const char *w : {"astar", "soplex", "bzip2", "nab", "sphinx3"})
            cells.push_back(makeCell(w, ooo::CoreMode::Cdf, spec));
    } else {
        for (ooo::CoreMode mode :
             {ooo::CoreMode::Baseline, ooo::CoreMode::Pre})
            for (const char *w : {"mcf", "omnetpp", "cactu"})
                cells.push_back(makeCell(w, mode, spec));
    }
    return cells;
}

/** A checked-in figure spec, expanded at the benchmark's windows. */
std::vector<sim::SweepCell>
specCells(const Options &opt, const std::string &file)
{
    auto cells = sim::SweepSpec::fromFile(opt.specDir + "/" + file)
                     .expand(ooo::CoreConfig{});
    for (auto &cell : cells) {
        cell.spec = benchSpec(opt);
        cell.config.mode = cell.mode;
    }
    return cells;
}

/** One workload built once per pass and shared by its cells. */
struct Built
{
    std::shared_ptr<const workloads::Workload> workload;
    std::shared_ptr<const isa::MemoryImage> pristine;
};

/** makeWorkload + makeMemory into @p b, timed as one span. */
double
buildWorkload(Tracer &tracer, const std::string &name, std::uint64_t seed,
              int parent, int cell, Built &b)
{
    return timed(tracer, "workloads.build", parent, cell, [&] {
        auto w = workloads::makeWorkload(name, seed);
        b.pristine =
            std::make_shared<const isa::MemoryImage>(w.makeMemory());
        b.workload =
            std::make_shared<const workloads::Workload>(std::move(w));
    });
}

// --- Per-pass records -------------------------------------------------

struct PassTotals
{
    double wall = 0.0;
    double setup = 0.0;
    double cpu = 0.0;
    std::uint64_t cycles = 0; //!< simulated (ticked + skipped)
    std::uint64_t instrs = 0; //!< retired in warmup + measurement
    Json layers = Json::object();
};

Json
cellRecords(std::span<const sim::SweepOutcome> outcomes,
            const std::string &prefix)
{
    Json cells = Json::array();
    for (const auto &o : outcomes) {
        char fp[24];
        std::snprintf(fp, sizeof(fp), "0x%016llx",
                      static_cast<unsigned long long>(
                          fnv1a64(sim::toJson(o).dump(-1))));
        Json c = Json::object();
        c["id"] = prefix + o.cell.workload + "/" + o.cell.variant;
        c["mode"] = sim::toString(o.cell.mode);
        c["fp"] = fp;
        c["status"] = o.error.empty() ? o.run.status() : "error";
        c["ipc"] = o.run.core.ipc;
        if (!o.error.empty())
            c["error"] = o.error;
        cells.push_back(std::move(c));
    }
    return cells;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Per-layer metrics read from what the simulator exposes: the stat
 * registry and CoreResult (simulated, exact) and the StageProfile
 * (host ns, traced passes only). Sums over every cell of the pass.
 */
void
addCounterLayers(Json &layers, std::span<const sim::SweepOutcome> outs)
{
    ooo::StageProfile prof;
    std::map<std::string, double> s; // summed stat counters
    double cycles = 0, skipped = 0, skipEvents = 0, cdfCycles = 0;
    double preMlp = 0, preUseless = 0;
    for (const sim::SweepOutcome &o : outs) {
        const sim::RunResult &r = o.run;
        for (unsigned i = 0; i < ooo::StageProfile::kNumStages; ++i)
            prof.ns[i] += r.profile.ns[i];
        prof.ticks += r.profile.ticks;
        for (unsigned l = 0; l < mem::MemLevelProfile::kNumLevels; ++l) {
            prof.mem.ns[l] += r.profile.mem.ns[l];
            prof.mem.accesses[l] += r.profile.mem.accesses[l];
        }
        for (const auto &[name, v] : r.stats.all())
            s[name] += static_cast<double>(v);
        const double c = static_cast<double>(r.core.cycles);
        cycles += c;
        skipped += static_cast<double>(r.skippedCycles);
        skipEvents += static_cast<double>(r.skipEvents);
        cdfCycles += r.core.cdfModeFraction * c;
        if (o.cell.mode == ooo::CoreMode::Pre) {
            preMlp += r.core.mlp * c;
            preUseless += r.core.uselessMlp * c;
        }
    }
    const double ticks = static_cast<double>(prof.ticks);
    for (unsigned i = 0; i < ooo::StageProfile::kNumStages; ++i)
        layers[std::string("ooo.") + ooo::StageProfile::name(i) +
               "_ns_per_tick"] =
            ratio(static_cast<double>(prof.ns[i]), ticks);
    layers["ooo.ticks"] = prof.ticks;
    for (unsigned l = 0; l < mem::MemLevelProfile::kNumLevels; ++l) {
        const std::string n = mem::MemLevelProfile::name(l);
        layers[n + "_ns_per_tick"] =
            ratio(static_cast<double>(prof.mem.ns[l]), ticks);
        layers[n + "_accesses"] = prof.mem.accesses[l];
    }
    const double kinstr = s["core.retired_instrs"] / 1000.0;
    layers["ooo.skipped_frac"] = ratio(skipped, cycles);
    layers["ooo.skip_events"] = skipEvents;
    layers["ooo.fetched_per_retired"] =
        ratio(s["core.fetched_uops"], s["core.retired_instrs"]);
    layers["ooo.wrongpath_frac"] =
        ratio(s["core.fetched_wrongpath_uops"], s["core.fetched_uops"]);
    layers["mem.l1d_miss_frac"] =
        ratio(s["l1d.misses"], s["l1d.accesses"]);
    layers["mem.llc_miss_frac"] =
        ratio(s["llc.misses"], s["llc.accesses"]);
    layers["mem.l1d_mshr_stalls"] = s["l1d.mshr_stalls"];
    layers["mem.dram_row_hit_frac"] =
        ratio(s["dram.row_hits"], s["dram.row_hits"] +
                                      s["dram.row_misses"] +
                                      s["dram.row_conflicts"]);
    layers["bp.mpki"] = ratio(s["core.mispredicts"], kinstr);
    layers["bp.lookups_per_kinstr"] = ratio(s["tage.lookups"], kinstr);
    layers["cdf.mode_frac"] = ratio(cdfCycles, cycles);
    layers["cdf.critical_rename_frac"] =
        ratio(s["core.renamed_critical_uops"], s["core.renamed_uops"]);
    layers["cdf.mask_cache_hits"] = s["mask_cache.hits"];
    layers["cdf.fill_buffer_walks"] = s["fill_buffer.walks"];
    layers["cdf.uop_cache_hit_frac"] =
        ratio(s["uop_cache.hits"],
              s["uop_cache.hits"] + s["uop_cache.misses"]);
    layers["cdf.violations_pki"] =
        ratio(s["core.dependence_violations"], kinstr);
    layers["pre.runahead_episodes"] = s["core.runahead_episodes"];
    layers["pre.runahead_uops_per_kinstr"] =
        ratio(s["core.runahead_uops"], kinstr);
    layers["pre.useless_mlp_frac"] = ratio(preUseless, preMlp);
}

/** Zeroed host-layer metrics, so every workload reports every name. */
Json
emptyHostLayers()
{
    Json j = Json::object();
    for (const char *k :
         {"workloads.build_ms", "sim.ctor_ms", "sim.warmup_s",
          "sim.measure_s", "sim.measure_kips", "snapshot.save_ms",
          "snapshot.restore_ms", "snapshot.file_write_ms",
          "snapshot.file_load_ms", "snapshot.bytes", "snapshot.hit_frac",
          "snapshot.resave_mismatches", "sweep.parallel_eff",
          "sweep.ckpt_hits", "sweep.ckpt_misses",
          "sweep.replay_misses"})
        j[k] = 0.0;
    return j;
}

// --- cdf_dense / mem_stall: serial, direct Simulator calls -----------

std::vector<sim::SweepOutcome>
runDirect(const Options &opt, const std::vector<sim::SweepCell> &cells,
          bool traced, Tracer &tracer, int passSpan, PassTotals &t)
{
    std::vector<sim::SweepOutcome> outcomes(cells.size());
    std::map<std::string, Built> built;
    double buildS = 0, ctorS = 0, warmS = 0, measS = 0;
    std::uint64_t measured = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const int ci = static_cast<int>(i);
        const int cellSpan = tracer.open("bench.cell", passSpan, ci);
        sim::SweepOutcome &out = outcomes[i];
        out.cell = cells[i];
        out.cell.config.profileStages = traced;
        try {
            Built &b = built[out.cell.workload];
            if (!b.workload)
                buildS += buildWorkload(tracer, out.cell.workload,
                                        opt.seed, cellSpan, ci, b);
            std::optional<sim::Simulator> simulator;
            ctorS += timed(tracer, "sim.ctor", cellSpan, ci, [&] {
                simulator.emplace(out.cell.config, b.workload, b.pristine);
            });
            const double cpu0 = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
            bool warmupTruncated = false;
            warmS += timed(tracer, "sim.warmup", cellSpan, ci, [&] {
                warmupTruncated = simulator->warmup(out.cell.spec);
            });
            measS += timed(tracer, "sim.measure", cellSpan, ci, [&] {
                out.run = simulator->measure(out.cell.spec,
                                             warmupTruncated);
            });
            t.cpu += cpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
            t.cycles += simulator->core().cycle();
            t.instrs += simulator->core().retired();
            measured += out.run.core.retiredInstrs;
        } catch (const std::exception &e) {
            out.error = e.what();
        }
        out.run.workload = out.cell.workload;
        out.run.mode = out.cell.mode;
        tracer.close(cellSpan);
    }
    t.setup = buildS + ctorS;
    if (traced) {
        t.layers = emptyHostLayers();
        t.layers["workloads.build_ms"] = buildS * 1e3;
        t.layers["sim.ctor_ms"] = ctorS * 1e3;
        t.layers["sim.warmup_s"] = warmS;
        t.layers["sim.measure_s"] = measS;
        t.layers["sim.measure_kips"] =
            ratio(static_cast<double>(measured), measS) / 1e3;
    }
    return outcomes;
}

// --- fig_sequence: two figure specs through SweepRunner --------------

struct FigSequence
{
    std::vector<sim::SweepCell> first;  //!< fig13_speedup, cold
    std::vector<sim::SweepCell> second; //!< fig14_mlp, restores
};

/**
 * SweepRunner builds workloads and Simulators inside runAll(), where
 * they cannot be timed from outside; this times the same public calls
 * (one build per workload, one constructor per cell) before the pass.
 */
double
setupProbe(const FigSequence &seq, Tracer &tracer, int passSpan,
           std::map<std::string, Built> &built, Json &layers)
{
    double buildS = 0, ctorS = 0;
    int ci = 0;
    for (const auto *cells : {&seq.first, &seq.second}) {
        for (const sim::SweepCell &cell : *cells) {
            Built &b = built[cell.workload];
            if (!b.workload)
                buildS += buildWorkload(tracer, cell.workload,
                                        kDefaultSeed, passSpan, ci, b);
            ctorS += timed(tracer, "sim.ctor", passSpan, ci, [&] {
                sim::Simulator simulator(cell.config, b.workload,
                                         b.pristine);
            });
            ++ci;
        }
    }
    layers["workloads.build_ms"] = buildS * 1e3;
    layers["sim.ctor_ms"] = ctorS * 1e3;
    return buildS + ctorS;
}

/**
 * Snapshot-layer probe (traced passes): for every checkpoint the cold
 * pass spilled, time loading the file, restoring it into a fresh
 * Simulator, re-saving it (which must reproduce the payload byte for
 * byte) and writing it back out.
 */
void
snapshotProbe(const FigSequence &seq, const fs::path &dir,
              const std::map<std::string, Built> &built, Tracer &tracer,
              int passSpan, Json &layers)
{
    const int probeSpan = tracer.open("bench.snapshot_probe", passSpan);
    double load = 0, restore = 0, save = 0, write = 0, bytes = 0;
    int n = 0, mismatches = 0;
    const std::string scratch = (dir / "probe.cdfsnap").string();
    for (std::size_t i = 0; i < seq.first.size(); ++i) {
        const sim::SweepCell &cell = seq.first[i];
        const int ci = static_cast<int>(i);
        const std::uint64_t key =
            sim::warmupKey(cell.workload, cell.config, cell.spec);
        const std::string path =
            (dir / sim::checkpointFileName(key)).string();
        std::optional<sim::Checkpoint> ckpt;
        load += timed(tracer, "snapshot.file_load", probeSpan, ci,
                      [&] { ckpt = sim::loadCheckpointFile(path, key); });
        if (!ckpt) {
            ++mismatches;
            continue;
        }
        const Built &b = built.at(cell.workload);
        sim::Simulator simulator(cell.config, b.workload, b.pristine);
        restore += timed(tracer, "snapshot.restore", probeSpan, ci, [&] {
            SnapReader reader(ckpt->payload);
            simulator.restoreState(reader);
        });
        sim::Checkpoint again;
        again.warmupTruncated = ckpt->warmupTruncated;
        save += timed(tracer, "snapshot.save", probeSpan, ci, [&] {
            SnapWriter writer;
            simulator.saveState(writer);
            again.payload = writer.take();
        });
        if (again.payload != ckpt->payload)
            ++mismatches;
        write += timed(tracer, "snapshot.file_write", probeSpan, ci, [&] {
            sim::saveCheckpointFile(scratch, key, again);
        });
        bytes += static_cast<double>(ckpt->payload.size());
        ++n;
    }
    tracer.close(probeSpan);
    layers["snapshot.file_load_ms"] = ratio(load, n) * 1e3;
    layers["snapshot.restore_ms"] = ratio(restore, n) * 1e3;
    layers["snapshot.save_ms"] = ratio(save, n) * 1e3;
    layers["snapshot.file_write_ms"] = ratio(write, n) * 1e3;
    layers["snapshot.bytes"] = bytes;
    layers["snapshot.resave_mismatches"] = mismatches;
}

std::vector<sim::SweepOutcome>
runFigSequence(const Options &opt, const FigSequence &base, bool traced,
               Tracer &tracer, int passSpan, PassTotals &t, int pass)
{
    FigSequence seq = base;
    for (auto *cells : {&seq.first, &seq.second})
        for (auto &cell : *cells)
            cell.config.profileStages = traced;

    Json layers = emptyHostLayers();
    std::map<std::string, Built> built;
    t.setup = setupProbe(seq, tracer, passSpan, built, layers);

    const fs::path dir = fs::path(opt.workDir) /
                         ("ckpt_" + std::to_string(getpid()) + "_" +
                          std::to_string(pass));
    fs::remove_all(dir);
    fs::create_directories(dir);
    sim::SweepRunner runner(opt.threads);
    runner.setCheckpointDir(dir.string());

    const double cpu0 = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    std::vector<sim::SweepOutcome> outcomes;
    sim::SweepRunner::CkptStats first, second;
    t.wall = timed(tracer, "sweep.runAll", passSpan, -1, [&] {
        outcomes = runner.runAll(seq.first);
    });
    first = runner.ckptStats();
    t.wall += timed(tracer, "sweep.runAll", passSpan, -1, [&] {
        auto more = runner.runAll(seq.second);
        outcomes.insert(outcomes.end(), more.begin(), more.end());
    });
    second = runner.ckptStats();
    t.cpu = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;

    // Warmups are shared and restored inside runAll, which exposes
    // neither their cycles nor their instructions; count each
    // simulated warmup (a checkpoint miss) as its window.
    for (const auto &o : outcomes) {
        t.cycles += o.run.core.cycles;
        t.instrs += o.run.core.retiredInstrs;
    }
    t.instrs += (first.misses + second.misses) *
                benchSpec(opt).warmupInstrs;

    if (traced) {
        snapshotProbe(seq, dir, built, tracer, passSpan, layers);
        layers["snapshot.hit_frac"] =
            ratio(static_cast<double>(second.hits),
                  static_cast<double>(seq.second.size()));
        layers["sweep.parallel_eff"] = ratio(t.cpu, t.wall * runner.threads());
        layers["sweep.ckpt_hits"] = first.hits + second.hits;
        layers["sweep.ckpt_misses"] = first.misses + second.misses;
        layers["sweep.replay_misses"] = second.misses;
        t.layers = std::move(layers);
    }
    fs::remove_all(dir);
    return outcomes;
}

// --- Command line and main -------------------------------------------

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "cdfbench: %s\nusage: cdfbench --workload "
                 "cdf_dense|mem_stall|fig_sequence [--seed N] "
                 "[--seconds S] [--trace 0|1] [--quick] "
                 "[--spec-dir DIR] [--work-dir DIR] [--reference]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick" || arg == "--reference") {
            (arg == "--quick" ? opt.quick : opt.reference) = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = v;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(v, &end, 0);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(v, &end);
        } else if (arg == "--trace") {
            opt.trace = std::strcmp(v, "1") == 0;
        } else if (arg == "--spec-dir") {
            opt.specDir = v;
        } else if (arg == "--work-dir") {
            opt.workDir = v;
        } else {
            usage(("unknown flag " + arg).c_str());
        }
        if (end && (*end != '\0' || end == v))
            usage(("bad value for " + arg).c_str());
    }
    if (opt.workload != "cdf_dense" && opt.workload != "mem_stall" &&
        opt.workload != "fig_sequence")
        usage("unknown --workload");
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0)
        opt.threads = std::clamp(CPU_COUNT(&cpus), 1, 4);
    if (opt.reference && opt.workload != "fig_sequence")
        usage("--reference runs the fig_sequence windows only");
    return opt;
}

/** The process's peak resident set so far, in MiB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
emit(const Json &record)
{
    std::printf("%s\n", record.dump(-1).c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    fs::create_directories(opt.workDir);
    const bool fig = opt.workload == "fig_sequence";

    FigSequence seq;
    std::vector<sim::SweepCell> cells;
    try {
        if (fig) {
            seq.first = specCells(opt, "fig13_speedup.json");
            seq.second = specCells(opt, "fig14_mlp.json");
        } else {
            cells = directCells(opt);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cdfbench: %s\n", e.what());
        return 2;
    }

    Tracer tracer;
    bool anyError = false;
    auto noteErrors = [&](const std::vector<sim::SweepOutcome> &outs) {
        for (const auto &o : outs)
            anyError |= !o.error.empty();
    };

    if (opt.reference) {
        std::vector<sim::SweepCell> ref;
        for (const auto &cell : seq.first)
            if (cell.variant == "base" || cell.variant == "cdf")
                ref.push_back(cell);
        const auto outs = sim::SweepRunner(opt.threads).runAll(ref);
        noteErrors(outs);
        Json rec = Json::object();
        rec["kind"] = "reference";
        rec["cells"] = cellRecords(outs, "fig13/");
        emit(rec);
        return anyError ? 1 : 0;
    }

    const double start = now();
    for (int pass = 0;; ++pass) {
        // ABBA: untraced, traced, traced, untraced, ...
        const bool traced = opt.trace && (pass % 4 == 1 || pass % 4 == 2);
        tracer.on = traced;
        tracer.pass = pass;
        const std::size_t spanBegin = tracer.spans.size();
        const int passSpan = tracer.open("bench.pass");
        const double t0 = now();

        PassTotals t;
        std::vector<sim::SweepOutcome> outs;
        Json cellsJson = Json::array();
        if (fig) {
            outs = runFigSequence(opt, seq, traced, tracer, passSpan, t,
                                  pass);
            const std::span<const sim::SweepOutcome> all(outs);
            const std::size_t n1 = seq.first.size();
            cellsJson = cellRecords(all.first(n1), "fig13/");
            const Json second = cellRecords(all.subspan(n1), "fig14/");
            for (const Json &c : second.items())
                cellsJson.push_back(c);
        } else {
            outs = runDirect(opt, cells, traced, tracer, passSpan, t);
            t.wall = now() - t0;
            cellsJson = cellRecords(outs, "");
        }
        tracer.close(passSpan);
        noteErrors(outs);

        Json rec = Json::object();
        rec["kind"] = "pass";
        rec["pass"] = pass;
        rec["traced"] = traced;
        rec["wall_s"] = t.wall;
        rec["setup_s"] = t.setup;
        rec["cpu_s"] = t.cpu;
        rec["sim_cycles"] = t.cycles;
        rec["sim_instrs"] = t.instrs;
        rec["peak_rss_mb"] = peakRssMb();
        rec["cells"] = std::move(cellsJson);
        if (traced) {
            addCounterLayers(t.layers, outs);
            addSelfTimes(t.layers, tracer.spans, spanBegin,
                         tracer.spans.size());
            rec["layers"] = std::move(t.layers);
        }
        emit(rec);

        const bool pairDone = !opt.trace || pass % 2 == 1;
        if (pairDone && now() - start >= opt.seconds)
            break;
    }

    std::string traceFile;
    if (opt.trace) {
        traceFile = opt.workDir + "/trace_" + opt.workload + ".json";
        writeSpans(tracer.spans, traceFile);
    }
    Json summary = Json::object();
    summary["kind"] = "summary";
    summary["threads"] = fig ? opt.threads : 1u;
    summary["seed"] = opt.seed;
    summary["trace_file"] = traceFile;
    emit(summary);
    return anyError ? 1 : 0;
}
