#!/usr/bin/env python3
"""Measure every workload over several seeds and record the result.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads closure] [--out FILE]

For each workload, runs `run.py --trace 0` once per seed, one after the
other, and `run.py --trace 1` on the first seed.  Prints, per end-to-end
metric, the median and the quartile spread (q3 - q1) / median that the
acceptance rule compares with the metric's bound.  It checks that the
traced and untraced runs of the same seed agree on every output digest
they share.  The result is written as JSON (default:
perfbench/out/baseline.json).  Exit status is 1 if any run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("membership", "closure", "frobenius")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    digests = {}
    for line in lines:
        if line.startswith("digests at power-of-two counts:"):
            digests = dict(pair.split(":")
                           for pair in line.split(":", 1)[1].split())
    ok = done.returncode == 0 and result.get("correct")
    if not ok:
        print(f"FAILED: {' '.join(cmd)}\n{done.stderr[-3000:]}",
              file=sys.stderr)
    return ok, result, digests, time.monotonic() - start, lines[:-1]


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", default=str(BENCH / "out" / "baseline.json"))
    args = parser.parse_args()
    seeds = seed_range(args.seeds)
    report, all_ok = {}, True
    for workload in args.workloads.split(","):
        values, walls, untraced = {}, [], {}
        for seed in seeds:
            ok, result, digests, wall, _ = run(workload, seed, args.seconds, 0)
            all_ok &= bool(ok)
            walls.append(wall)
            untraced.setdefault(seed, digests)
            for name, m in result.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
        entry = {"seeds": seeds, "wall_s": walls, "end_to_end": {}}
        print(f"{workload}: run wall {min(walls):.1f}-{max(walls):.1f} s")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3,
                                         "spread": spread, "values": vals}
            print(f"  {name:16s} median {med:10.5g}  spread {spread:.3f}")
        if not args.no_trace:
            ok, result, digests, wall, lines = run(workload, seeds[0],
                                                   args.seconds, 1)
            all_ok &= bool(ok)
            common = set(digests) & set(untraced[seeds[0]])
            same = all(digests[n] == untraced[seeds[0]][n] for n in common)
            all_ok &= same and bool(common)
            print(f"  traced run (seed {seeds[0]}, {wall:.1f} s): digests "
                  f"{'agree' if same else 'DIFFER'} with the untraced run "
                  f"at counts {sorted(map(int, common))[-1:]}")
            entry["per_layer"] = {name: m["value"] for name, m
                                  in result.get("metrics", {}).items()}
            entry["traced_report"] = lines
        report[workload] = entry
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
