#!/usr/bin/env python3
"""cdfbench: host speed and fidelity of cdfsim on three workloads.

Run from the repository root. Builds the simulator and the measurement
binary (cdfbench.cc) from source on first use, runs one workload for a time
budget, checks every cell's stat fingerprint, prints each metric with
its unit and, as the last line, one JSON result object.

  python3 cdfbench/run.py --workload cdf_dense --seed 7 --seconds 20 --trace 0
  python3 cdfbench/run.py --self-check   # every workload at tiny windows
  python3 cdfbench/run.py --pin          # regenerate fingerprints.json

README.md in this directory defines the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0x5EED
PAPER_CDF_GAIN_PCT = 6.1  # Fig. 13 geomean, MICRO 2021
WORKLOADS = ("cdf_dense", "mem_stall", "fig_sequence")
PINS = HERE / "fingerprints.json"

# name: (unit, better, bound). Bound = the share of the parent's
# median by which the metric may worsen; None for per-layer metrics.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "sim_kips": ("kinstr/s", "higher", 0.25),
    "host_ns_per_cycle": ("ns/cycle", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "pass_frac": ("fraction", "higher", 0.01),
    "sim_ipc_geomean": ("instr/cycle", "higher", 0.05),
    "cdf_gain_err_pp": ("pp", "lower", 0.05),
}

_NS_TICK = ("ns/tick", "lower", None)
_FRAC_LOW = ("fraction", "lower", None)
_FRAC_HIGH = ("fraction", "higher", None)
_COUNT_LOW = ("count", "lower", None)
_COUNT_HIGH = ("count", "higher", None)
PER_LAYER = {
    "workloads.build_ms": ("ms", "lower", None),
    "sim.ctor_ms": ("ms", "lower", None),
    "sim.warmup_s": ("s", "lower", None),
    "sim.measure_s": ("s", "lower", None),
    "sim.measure_kips": ("kinstr/s", "higher", None),
    "snapshot.save_ms": ("ms", "lower", None),
    "snapshot.restore_ms": ("ms", "lower", None),
    "snapshot.file_write_ms": ("ms", "lower", None),
    "snapshot.file_load_ms": ("ms", "lower", None),
    "snapshot.bytes": ("bytes", "lower", None),
    "snapshot.hit_frac": _FRAC_HIGH,
    "snapshot.resave_mismatches": _COUNT_LOW,
    "sweep.parallel_eff": _FRAC_HIGH,
    "sweep.ckpt_hits": _COUNT_HIGH,
    "sweep.ckpt_misses": _COUNT_LOW,
    "sweep.replay_misses": _COUNT_LOW,
    "ooo.fetch_ns_per_tick": _NS_TICK,
    "ooo.rename_ns_per_tick": _NS_TICK,
    "ooo.execute_ns_per_tick": _NS_TICK,
    "ooo.completion_ns_per_tick": _NS_TICK,
    "ooo.retire_ns_per_tick": _NS_TICK,
    "ooo.stats_ns_per_tick": _NS_TICK,
    "ooo.skip_ns_per_tick": _NS_TICK,
    "ooo.ticks": _COUNT_LOW,
    "ooo.skipped_frac": _FRAC_HIGH,
    "ooo.skip_events": _COUNT_HIGH,
    "ooo.fetched_per_retired": ("uops/instr", "lower", None),
    "ooo.wrongpath_frac": _FRAC_LOW,
    "mem.l1_ns_per_tick": _NS_TICK,
    "mem.llc_ns_per_tick": _NS_TICK,
    "mem.dram_ns_per_tick": _NS_TICK,
    "mem.l1_accesses": _COUNT_LOW,
    "mem.llc_accesses": _COUNT_LOW,
    "mem.dram_accesses": _COUNT_LOW,
    "mem.l1d_miss_frac": _FRAC_LOW,
    "mem.llc_miss_frac": _FRAC_LOW,
    "mem.l1d_mshr_stalls": _COUNT_LOW,
    "mem.dram_row_hit_frac": _FRAC_HIGH,
    "bp.mpki": ("1/kinstr", "lower", None),
    "bp.lookups_per_kinstr": ("1/kinstr", "lower", None),
    "cdf.mode_frac": _FRAC_HIGH,
    "cdf.critical_rename_frac": _FRAC_HIGH,
    "cdf.mask_cache_hits": _COUNT_HIGH,
    "cdf.fill_buffer_walks": _COUNT_LOW,
    "cdf.uop_cache_hit_frac": _FRAC_HIGH,
    "cdf.violations_pki": ("1/kinstr", "lower", None),
    "pre.runahead_episodes": _COUNT_HIGH,
    "pre.runahead_uops_per_kinstr": ("1/kinstr", "lower", None),
    "pre.useless_mlp_frac": _FRAC_LOW,
    "self.bench_s": ("s", "lower", None),
    "self.workloads_s": ("s", "lower", None),
    "self.sim_s": ("s", "lower", None),
    "self.sweep_s": ("s", "lower", None),
    "self.snapshot_s": ("s", "lower", None),
    "trace.overhead_s": ("s", "lower", None),
    "trace.overhead_frac": _FRAC_LOW,
}


class BenchError(Exception):
    """A failure that ends the run without a result line."""


# --- Build and run the measurement binary ------------------------------

def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "cdfbench"


def build():
    """Configure (once) and build the binary; returns its path."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not any((bdir / f).exists() for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    with open(bdir / "build.log", "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                raise BenchError("build failed: %s (see %s)"
                                 % (" ".join(cmd), bdir / "build.log"))
    return bdir / "cdfbench"


def run_binary(binary, workload, seed, seconds, trace, quick=False,
               reference=False):
    """Run the binary once; returns its JSON records."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--spec-dir", str(ROOT / "bench" / "specs"),
           "--work-dir", str(build_dir())]
    if quick:
        cmd.append("--quick")
    if reference:
        cmd.append("--reference")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + 150)
    records = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    if proc.returncode != 0:
        errors = sorted({c["id"] + ": " + c.get("error", c["status"])
                         for r in records for c in r.get("cells", [])
                         if c["status"] != "ok"})
        raise BenchError("cdfbench exited %d%s" % (
            proc.returncode, "".join("\n  " + e for e in errors)))
    return records


# --- Metrics -----------------------------------------------------------

def geomean(values):
    values = [v for v in values if v > 0]
    return math.exp(sum(map(math.log, values)) / len(values)) if values else 0.0


def cdf_gain_pct(cells):
    """Geomean CDF-over-baseline IPC gain (%) over Fig. 13's kernels:
    its "cdf" cells against its "base" cells."""
    ipc = {tuple(c["id"].split("/")[1:]): c["ipc"] for c in cells
           if c["id"].startswith("fig13/")}
    ratios = [v / ipc[(k, "base")] for (k, variant), v in ipc.items()
              if variant == "cdf" and ipc.get((k, "base"), 0) > 0]
    return (geomean(ratios) - 1.0) * 100.0


def best_pass(values, better):
    """A run's best pass: min-of-N, as the ROADMAP's host-speed
    trajectory prescribes. Neighbouring load on a shared host only
    ever slows a pass down, so the best pass tracks the simulator's
    own speed more steadily than the median (README.md, "Steadiness")."""
    return min(values) if better == "lower" else max(values)


def end_to_end(passes, reference):
    untraced = [p for p in passes if not p["traced"]]
    cells = untraced[0]["cells"]
    gain = cdf_gain_pct(cells + reference)
    return {
        "wall_s": best_pass((p["wall_s"] for p in untraced), "lower"),
        "sim_kips": best_pass(
            (p["sim_instrs"] / p["wall_s"] / 1e3 for p in untraced), "higher"),
        "host_ns_per_cycle": best_pass(
            (p["cpu_s"] * 1e9 / p["sim_cycles"] for p in untraced), "lower"),
        "setup_s": best_pass((p["setup_s"] for p in untraced), "lower"),
        # A user's sweep is one pass per process; later passes only
        # add allocator fragmentation, so take the first pass's peak.
        "peak_rss_mb": passes[0]["peak_rss_mb"],
        "sim_ipc_geomean": geomean([c["ipc"] for c in cells]),
        "cdf_gain_err_pp": abs(gain - PAPER_CDF_GAIN_PCT),
    }, gain


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    t = statistics.median(p["wall_s"] for p in traced)
    u = statistics.median(p["wall_s"] for p in untraced)
    out["trace.overhead_s"] = t - u
    out["trace.overhead_frac"] = (t - u) / u
    return out


# --- Correctness ---------------------------------------------------------

def load_pins(quick):
    if not PINS.exists():
        return {}
    return json.loads(PINS.read_text())["quick" if quick else "full"]


def pinned_fp(pins, workload, seed, cell_id):
    """The pinned fingerprint of a cell, or None. Figure-spec cells
    carry no seed, so their pins hold for every seed; the seeded
    kernels of cdf_dense and mem_stall are pinned for DEFAULT_SEED."""
    if cell_id.startswith(("fig13/", "fig14/")):
        return pins.get("fig_sequence", {}).get(cell_id)
    if seed == DEFAULT_SEED:
        return pins.get(workload, {}).get(cell_id)
    return None


def check_cells(workload, seed, records, pins):
    """Count failed cell runs: errored, halted or truncated cells, and
    cells whose fingerprint differs from the pinned one or from the
    same cell in another pass (traced passes included). Returns
    (attempted, failed, problems, note)."""
    first = {}
    attempted = failed = checked = 0
    problems = []
    for r in records:
        for c in r.get("cells", []):
            attempted += 1
            pin = pinned_fp(pins, workload, seed, c["id"])
            checked += pin is not None
            why = None
            if c["status"] != "ok":
                why = c.get("error", c["status"])
            elif pin is not None and pin != c["fp"]:
                why = "fingerprint %s, pinned %s" % (c["fp"], pin)
            elif first.setdefault(c["id"], c["fp"]) != c["fp"]:
                why = "fingerprint differs between passes"
            if why:
                failed += 1
                problems.append("%s: %s" % (c["id"], why))
    note = ("%d of %d cell runs checked against pinned fingerprints"
            % (checked, attempted))
    if checked < attempted:
        note += ("; the rest have no pin for seed %d (pins are for %d) and "
                 "are checked for status and pass-to-pass identity only"
                 % (seed, DEFAULT_SEED))
    return attempted, failed, problems, note


# --- Commands -------------------------------------------------------------

def measure(binary, workload, seed, seconds, trace, quick=False):
    """One benchmark run; returns (result dict, lines to print)."""
    records = run_binary(binary, workload, seed, seconds, trace, quick)
    if workload != "fig_sequence" and not trace:
        records += run_binary(binary, "fig_sequence", seed, 0, False, quick,
                              reference=True)
    passes = [r for r in records if r["kind"] == "pass"]
    reference = [c for r in records if r["kind"] == "reference"
                 for c in r["cells"]]
    summary = next(r for r in records if r["kind"] == "summary")
    attempted, failed, problems, note = check_cells(
        workload, seed, records, load_pins(quick))

    lines = ["cdfbench %s: seed %d, %d pass(es), %s, threads %d"
             % (workload, seed, len(passes),
                "traced" if trace else "untraced", summary["threads"])]
    lines += ["  " + note] + ["  FAIL " + p for p in problems]
    if trace:
        values = per_layer(passes)
        table = PER_LAYER
        lines.append("  spans: " + summary["trace_file"])
    else:
        values, gain = end_to_end(passes, reference)
        values["pass_frac"] = 1.0 - failed / attempted
        table = END_TO_END
    metrics = {}
    if not trace:
        walls = sorted(p["wall_s"] for p in passes)
        lines.append("  wall_s over %d passes: fastest %.4g, median %.4g, "
                     "slowest %.4g s" % (len(walls), walls[0],
                                         statistics.median(walls), walls[-1]))
    for name, (unit, better, _bound) in table.items():
        metrics[name] = {"value": values[name], "unit": unit}
        lines.append("  %-30s %14.6g %-12s (%s is better)"
                     % (name, values[name], unit, better))
    if not trace:
        lines.append("  simulated CDF gain %+.2f%% vs paper %+.1f%% (Fig. 13); "
                     "the model is not validated against hardware"
                     % (gain, PAPER_CDF_GAIN_PCT))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def pin(binary):
    pins = {}
    for mode in ("full", "quick"):
        pins[mode] = {}
        for w in WORKLOADS:
            records = run_binary(binary, w, DEFAULT_SEED, 0, False,
                                 mode == "quick")
            pins[mode][w] = {c["id"]: c["fp"] for r in records
                             for c in r.get("cells", [])}
    doc = {"about": "FNV-1a of each cell's compact sim::toJson(SweepOutcome) "
                    "at the benchmark's windows, seed %d; regenerate with "
                    "python3 cdfbench/run.py --pin" % DEFAULT_SEED}
    doc.update(pins)
    PINS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print("wrote", PINS)


def self_check(binary):
    """Every workload at tiny windows, untraced and traced, with the
    correctness check and the contract of the result line."""
    problems = []
    bench = ROOT / "BENCHMARK.json"
    if bench.exists():
        doc = json.loads(bench.read_text())
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            declared = {m["name"]: (m["unit"], m["better"], m.get("bound"))
                        for m in doc[key]}
            if declared != table:
                problems.append("BENCHMARK.json %s differs from run.py" % key)
        if [w["name"] for w in doc["workloads"]] != list(WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from run.py")
    for w in WORKLOADS:
        for trace in (False, True):
            result, _ = measure(binary, w, DEFAULT_SEED, 0, trace, quick=True)
            table = PER_LAYER if trace else END_TO_END
            if set(result["metrics"]) != set(table):
                problems.append("%s: metric names differ" % w)
            if not result["correct"]:
                problems.append("%s trace=%d: incorrect" % (w, trace))
            if trace and w == "fig_sequence":
                m = result["metrics"]
                if (m["snapshot.hit_frac"]["value"] != 1.0
                        or m["sweep.replay_misses"]["value"] != 0
                        or m["snapshot.resave_mismatches"]["value"] != 0):
                    problems.append("fig_sequence: second pass did not "
                                    "restore every warmup")
    # The checker itself must catch a wrong fingerprint.
    records = run_binary(binary, "cdf_dense", DEFAULT_SEED, 0, False, True)
    bad = load_pins(True)
    bad["cdf_dense"] = dict(bad["cdf_dense"], **{"astar/cdf": "0x0"})
    if check_cells("cdf_dense", DEFAULT_SEED, records, bad)[1] != 1:
        problems.append("a wrong pinned fingerprint went unnoticed")
    for p in problems:
        print("self-check: FAIL", p)
    print("self-check: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.self_check or args.pin):
        ap.error("one of --workload, --self-check, --pin is required")
    try:
        binary = build()
        if args.pin:
            pin(binary)
            return 0
        if args.self_check:
            return self_check(binary)
        result, lines = measure(binary, args.workload, args.seed,
                                args.seconds, args.trace == 1)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print("cdfbench: %s" % e, file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
