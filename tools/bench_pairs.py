#!/usr/bin/env python3
"""bench_pairs: cdfbench pairs of a parent and a change, each frozen.

cdfbench/run.py rebuilds the checkout it runs in on every call, so a
pair series run from a live checkout measures whatever src/ held at
each call. This tool exports both revisions once (git archive; the
change may also be the working tree, copied once at start), gives each
its own build tree (CARGO_TARGET_DIR), builds each once, then runs N
pairs per workload, alternating which side runs first, and prints per
metric the two medians, the median of the per-pair change/parent
ratios, the parent's interquartile range and how many pairs the change
won. Run from the repository root:

  python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
      --workload fig_sequence --pairs 4 --seconds 15 \\
      --work-dir /tmp/pairs

  # Append host-trajectory lines for chosen metrics:
  python3 tools/bench_pairs.py --parent main --change WORKTREE \\
      --workload cdf_dense --pairs 8 --seconds 30 --work-dir /tmp/pairs \\
      --record cdf_dense:host_ns_per_cycle \\
      --note "what the change does" --host "4-vCPU x86 container" \\
      --trajectory bench/host_trajectory.jsonl

Every run's result line is kept in WORK_DIR/pairs.jsonl.
"""

import argparse
import datetime
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"


def git(*args, **kw):
    return subprocess.run(["git", "-C", str(ROOT)] + list(args), check=True,
                          stdout=subprocess.PIPE, **kw).stdout


def export(rev, dest):
    """Freeze @rev (a git revision or WORKTREE) into @dest; returns a
    label naming exactly what was exported."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if rev != WORKTREE:
        commit = git("rev-parse", "--short", rev + "^{commit}",
                     text=True).strip()
        with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(dest, filter="data")
            else:
                tar.extractall(dest)
        return commit
    # Tracked and untracked-but-not-ignored files, as they are now.
    names = git("ls-files", "-z", "--cached", "--others",
                "--exclude-standard").split(b"\0")
    for name in filter(None, names):
        src = ROOT / os.fsdecode(name)
        if src.is_file():
            (dest / os.fsdecode(name)).parent.mkdir(parents=True,
                                                   exist_ok=True)
            shutil.copy2(src, dest / os.fsdecode(name))
    base = git("rev-parse", "--short", "HEAD", text=True).strip()
    return "%s+worktree" % base


class Side:
    def __init__(self, name, rev, work):
        self.name = name
        self.src = work / name
        self.label = export(rev, self.src)
        self.env = dict(os.environ,
                        CARGO_TARGET_DIR=str(work / (name + "-target")))

    def build(self):
        """Build once; later run.py calls find nothing to rebuild."""
        code = ("import sys; sys.path.insert(0, 'cdfbench'); import run; "
                "run.build()")
        subprocess.run([sys.executable, "-c", code], cwd=self.src,
                       env=self.env, check=True)

    def run(self, workload, seconds):
        proc = subprocess.run(
            [sys.executable, "cdfbench/run.py", "--workload", workload,
             "--seconds", str(seconds), "--trace", "0"],
            cwd=self.src, env=self.env, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise SystemExit("%s: cdfbench/run.py --workload %s exited %d"
                             % (self.name, workload, proc.returncode))
        return json.loads(proc.stdout.strip().splitlines()[-1])


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def summarize(runs, better):
    """Per metric: parent/change medians, median per-pair ratio,
    parent IQR and change wins, over @runs = [(parent, change)]."""
    out = {}
    for name in runs[0][0]["metrics"]:
        p = [r[0]["metrics"][name]["value"] for r in runs]
        c = [r[1]["metrics"][name]["value"] for r in runs]
        lower = better.get(name, "lower") == "lower"
        wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        ratios = [cv / pv for pv, cv in zip(p, c) if pv]
        out[name] = {
            "unit": runs[0][0]["metrics"][name]["unit"],
            "parent_median": statistics.median(p),
            "change_median": statistics.median(c),
            "median_ratio": statistics.median(ratios) if ratios else None,
            "parent_iqr": iqr(p),
            "change_wins": wins,
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--change", default=WORKTREE,
                    help="git revision, or WORKTREE (default)")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=4)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--work-dir", required=True, type=Path,
                    help="scratch directory outside the repository")
    ap.add_argument("--record", action="append", default=[],
                    metavar="WORKLOAD:METRIC",
                    help="emit a host-trajectory line for this metric")
    ap.add_argument("--note", default="", help="trajectory 'change' text")
    ap.add_argument("--host", default="", help="trajectory 'host' text")
    ap.add_argument("--trajectory", type=Path,
                    help="append the emitted lines to this file")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    work = args.work_dir.resolve()
    if work == ROOT or ROOT in work.parents:
        ap.error("--work-dir must be outside the repository")
    work.mkdir(parents=True, exist_ok=True)

    sides = [Side("parent", args.parent, work),
             Side("change", args.change, work)]
    for s in sides:
        print("%s: %s, building" % (s.name, s.label), flush=True)
        s.build()
    bench = json.loads((sides[0].src / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    log = open(work / "pairs.jsonl", "a")
    results = {}
    for w in args.workload:
        runs = []
        for i in range(args.pairs):
            order = sides if i % 2 == 0 else sides[::-1]
            got = {}
            for s in order:
                got[s.name] = s.run(w, args.seconds)
                log.write(json.dumps({"workload": w, "pair": i,
                                      "side": s.name, "rev": s.label,
                                      "first": order[0].name,
                                      "result": got[s.name]}) + "\n")
                log.flush()
            runs.append((got["parent"], got["change"]))
            print("%s pair %d/%d (%s first) done" % (w, i + 1, args.pairs,
                                                   order[0].name), flush=True)
        bad = sum(not r["correct"] for pair in runs for r in pair)
        results[w] = summarize(runs, better)
        print("\n%s: %d pairs, %d incorrect run(s), parent %s, change %s"
              % (w, len(runs), bad, sides[0].label, sides[1].label))
        print("  %-20s %12s %12s %8s %12s %5s" % (
            "metric", "parent", "change", "ratio", "parent IQR", "wins"))
        for name, m in results[w].items():
            ratio = m["median_ratio"]
            print("  %-20s %12.6g %12.6g %8s %12.4g %2d/%d" % (
                name, m["parent_median"], m["change_median"],
                "-" if ratio is None else "%.3f" % ratio, m["parent_iqr"],
                m["change_wins"], len(runs)))

    lines = []
    for spec in args.record:
        w, _, name = spec.partition(":")
        if w not in results or name not in results[w]:
            raise SystemExit("--record %s: not measured" % spec)
        m = results[w][name]
        ratio = m["median_ratio"]
        lines.append(json.dumps({
            "change": args.note, "parent_commit": sides[0].label,
            "date": datetime.date.today().isoformat(), "workload": w,
            "metric": name, "unit": m["unit"], "pairs": args.pairs,
            "parent_median": round(m["parent_median"], 4),
            "change_median": round(m["change_median"], 4),
            "median_ratio": None if ratio is None else round(ratio, 3),
            "parent_iqr": round(m["parent_iqr"], 4),
            "change_wins": m["change_wins"],
            "recipe": "tools/bench_pairs.py --pairs %d --seconds %d: "
                      "cdfbench/run.py --trace 0 on frozen copies of both "
                      "sides, each with its own build tree, alternating "
                      "which side runs first" % (args.pairs, args.seconds),
            "host": args.host}))
    if lines:
        print()
        print("\n".join(lines))
    if lines and args.trajectory:
        with open(args.trajectory, "a") as f:
            f.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
