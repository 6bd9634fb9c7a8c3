#!/usr/bin/env python3
"""Runs the whole benchmark: every workload, each run in a fresh process.

Called by run.sh when no --workload is given. Modes:

  (default)   one set: every workload REPS times untraced, the workloads
              interleaved, plus one traced run each; prints every end-to-end
              and per-layer metric by name with its unit and the operation
              counts, and appends one line per workload to
              results/trajectory.jsonl.
  --sets N    N such sets, then a metric x workload table of each later set's
              medians against the first's; exits 1 if one differs, in either
              direction, by more than the metric's bound in BENCHMARK.json,
              or if an exact metric is not bit-identical.
  --smoke     every workload at 1/20 scale with 10 windows, untraced and
              traced, all checks on. Records nothing.

Workloads, metric names, bounds and the run length come from
BENCHMARK.json; nothing here changes what the program under test does.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Untraced runs per workload per set.
REPS = 3
# With fixed work these repeat bit for bit for a seed.
EXACT_END_TO_END = ["plan_time_ratio", "store_disk_mb"]
EXACT_PER_LAYER = ["rlcut.train.migrations", "geodur.wal.bytes_per_window"]


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(args, workload, trace, seconds):
    """One workload in one fresh process. Returns (result, host) or exits."""
    cmd = [args.bin, "--work-dir", args.work_dir, "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    started = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    host = json.loads(lines[0])["host"]
    result["wall_s"] = time.time() - started
    for line in lines:
        if line.startswith("FAILED:"):
            print(f"  {workload}: {line}")
    return result, host


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_set(args, spec):
    """One set: per workload, REPS untraced runs and one traced run. The
    workloads take turns, so that a slow stretch of the host falls on all
    of them and not on every run of one."""
    names = [w["name"] for w in spec["workloads"]]
    runs = {name: [] for name in names}
    for _ in range(REPS):
        for name in names:
            runs[name].append(run_once(args, name, 0, spec["run_seconds"])[0])
    out = {}
    for name in names:
        traced, host = run_once(args, name, 1, spec["run_seconds"])
        out[name] = {
            "host": host,
            "values": {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs[name]]
                       for m in spec["end_to_end"]},
            "layers": {k: v["value"] for k, v in traced["metrics"].items()},
            "attempted": sum(r["attempted"] for r in runs[name]) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs[name]) + traced["failed"],
            "wall_s": sum(r["wall_s"] for r in runs[name]) + traced["wall_s"],
        }
    return out


def print_set(spec, result, index):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, w in result.items():
        print(f"\n== set {index} / {name}: median [q1 .. q3] of {REPS} runs, {w['wall_s']:.0f} s ==")
        for metric, values in w["values"].items():
            q1, med, q3 = quartiles(values)
            print(f"  {metric:<44} {med:>14.6f} [{q1:.6f} .. {q3:.6f}] {units[metric]}")
        for metric, value in w["layers"].items():
            print(f"  {metric:<44} {value:>14.6f} {units[metric]}")
        print(f"  {'ops_attempted':<44} {w['attempted']:>14}")
        print(f"  {'ops_failed':<44} {w['failed']:>14}")


def append_trajectory(spec, result, seed):
    path = os.path.join(HERE, "results", "trajectory.jsonl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as f:
        for name, w in result.items():
            line = {"time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                    "workload": name, "seed": seed, **w["host"],
                    "run_seconds": spec["run_seconds"], "runs": REPS,
                    "medians": {k: statistics.median(v) for k, v in w["values"].items()},
                    "ops_attempted": w["attempted"], "ops_failed": w["failed"]}
            f.write(json.dumps(line) + "\n")
    print(f"\nappended {len(result)} lines to {os.path.relpath(path)}")


def agreement(spec, sets):
    """Later sets against the first: a median may differ from the first
    set's, in either direction, by at most the bound. Returns #failures."""
    bad = 0
    print("\n== later sets against the first: largest change of the median ==")
    print(f"  {'metric':<24}" + "".join(f"{w['name']:>18}" for w in spec["workloads"]) + "   bound")
    for m in spec["end_to_end"]:
        cells = []
        for w in spec["workloads"]:
            medians = [statistics.median(s[w["name"]]["values"][m["name"]]) for s in sets]
            change = max(((b - medians[0]) / abs(medians[0]) for b in medians[1:]), key=abs)
            ok = abs(change) <= m["bound"]
            bad += not ok
            cells.append(f"{change:>+12.4f} {'ok' if ok else 'OVER':<5}")
        print(f"  {m['name']:<24}" + "".join(cells) + f"   {m['bound']}")
    print("\n== exact metrics: identical in every run of every set ==")
    for w in spec["workloads"]:
        for metric in EXACT_END_TO_END:
            seen = {v for s in sets for v in s[w["name"]]["values"][metric]}
            bad += report_exact(w["name"], metric, seen)
        for metric in EXACT_PER_LAYER:
            seen = {s[w["name"]]["layers"][metric] for s in sets}
            bad += report_exact(w["name"], metric, seen)
    return bad


def report_exact(workload, metric, seen):
    ok = len(seen) == 1
    print(f"  {workload:<18} {metric:<32} {'identical' if ok else 'DIFFERS: ' + str(sorted(seen))}")
    return 0 if ok else 1


def smoke(args, spec):
    started = time.time()
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, _ = run_once(args, w["name"], trace, 1)
            print(f"  smoke {w['name']:<16} trace {trace}: {result['attempted']:>8} ops, "
                  f"{result['failed']} failed, {result['wall_s']:.1f} s")
            if not result["correct"]:
                sys.exit(f"smoke run of {w['name']} (trace {trace}) failed its checks")
    print(f"smoke ok: all checks passed in {time.time() - started:.1f} s; nothing recorded")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--bin", required=True, help="the built pipeline-bench binary")
    p.add_argument("--work-dir", required=True, help="where stores and traces are written")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seed", type=int, default=42, help="42 by default; 7 is the hold-out seed")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    spec = load_spec()

    if args.smoke:
        return smoke(args, spec)

    sets = []
    for index in range(1, args.sets + 1):
        sets.append(run_set(args, spec))
        print_set(spec, sets[-1], index)
        append_trajectory(spec, sets[-1], args.seed)
    failed = sum(w["failed"] for s in sets for w in s.values())
    if failed:
        sys.exit(f"{failed} operations failed")
    if args.sets > 1 and agreement(spec, sets):
        sys.exit("sets disagree")


if __name__ == "__main__":
    main()
