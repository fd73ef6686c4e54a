#!/usr/bin/env python3
"""tcone benchmark: seeded `tc check` / `tc closure` problems, end to end.

    python3 perfbench/run.py --workload membership --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; `tcone` is imported from `src/`.
One process per workload runs a closed loop with one client: the next
problem is drawn (clock stopped), written to `perfbench/out/`, and passed
to `tcone.cli.main([command, file])` in-process; the clock runs only
around that call.  The loop ends once the timed calls of the seeded
problems add up to `--seconds`, in seconds at the calibration kernel's
reference speed (calibrate.py); frobenius instead runs a fixed number of
seeded problems sized to `--seconds` (corpus.SEEDED_PER_S).

Every output is checked: against the committed golden bytes and exit
code when the seed is the golden seed, and on every seed by the
cross-checks that need no golden (see `check_output`).  The last stdout
line is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
every problem runs twice, traced and untraced in alternating order, the
two outputs must be identical, and the metrics are the per-layer ones
(see tracer.py).  Exit status is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden"
GOLDEN_SEED = 0
# At least SETUP_REPEATS set-ups, and more while they add up to less than
# SETUP_MIN_S, so that a cheap set-up still gives a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# Hard stop for the loop, so that a run ends well inside three minutes
# even when the clock-stopped work (drawing, checking) is slow.
WALL_LIMIT_S = 150.0
# The budget is counted in reference-speed seconds, but a run on a slow
# machine stops after this many times the budget in wall seconds.
RAW_BUDGET_FACTOR = 1.2

SETUP_CODE = "import sys; from run import set_up; print(*set_up(sys.argv[1]))"


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(workload):
    """Import tcone and build every field and curve the workload uses, as a
    `tc` call pays it; (seconds, calibration kernel seconds around it)."""
    from corpus import curves_used, fields_used
    before = calibrate.kernel()
    start = time.perf_counter()
    import tcone.cli  # noqa: F401  (what a `tc` call imports)
    from tcone.field import make_field
    from tcone.polyring import CubicCurve, parse_polynomial
    for p, k in fields_used(workload):
        make_field(p, k)
    for p, k, cubic in curves_used(workload):
        K = make_field(p, k)
        CubicCurve(parse_polynomial(cubic, K), K).supersingular
    elapsed = time.perf_counter() - start
    return elapsed, (before + calibrate.kernel()) / 2


def measure_setup(workload):
    """Median set-up time, normalised to the kernel's reference speed.

    The first set-up is this process's own, which also leaves the field
    tables warm for the loop; the others run in fresh interpreters."""
    times = [calibrate.normalised(*set_up(workload))]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    while len(times) < SETUP_REPEATS or (
            sum(times) < SETUP_MIN_S and len(times) < 5 * SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, workload],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(calibrate.normalised(*map(float, done.stdout.split())))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# one problem
# ---------------------------------------------------------------------------

class Outcome:
    """One CLI call: wall seconds, the calibration kernel's time around it
    (and after it alone), exit code (None after a crash), stdout and the
    error text."""

    def __init__(self, seconds, before, after, code, out, err):
        self.seconds, self.kernel_s = seconds, (before + after) / 2
        self.after = after
        self.code, self.out, self.err = code, out, err


def run_problem(problem, path, before=None):
    """Run one problem; `before` is a kernel time taken just before (the
    previous call's `after`), so that each call costs one kernel run."""
    import tcone.cli
    path.write_text(problem.text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    if before is None:
        before = calibrate.kernel()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = tcone.cli.main([problem.command, str(path)])
        except Exception:  # a crash is a failed problem, not a dead run
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
    return Outcome(elapsed, before, calibrate.kernel(), code, out.getvalue(),
                   error or err.getvalue())


def _field(out, key):
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line[len(key) + 1:].strip()
    return None


def parse_degrees(out):
    """(degree, regime, dim_ideal, dim_closure) rows of a closure output."""
    rows = []
    lines = out.splitlines()
    if "degrees:" not in lines:
        return rows
    for line in lines[lines.index("degrees:") + 2:]:
        m, regime, di, dc = line.split()
        rows.append((int(m), regime, int(di), int(dc)))
    return rows


def check_output(problem, code, out, golden):
    """Reasons this output is wrong; empty when it checks out."""
    bad = []
    if golden is not None:
        if golden["input"] != problem.sha:
            bad.append("problem text differs from the golden corpus")
        elif (golden["exit"], golden["stdout"]) != (code, out):
            bad.append(f"output differs from golden (exit {code}, "
                       f"golden {golden['exit']})")
    if problem.command == "check":
        verdict = _field(out, "verdict")
        expected = {0: "member", 1: "non-member"}.get(code)
        if expected is None or verdict != expected:
            bad.append(f"exit {code} with verdict {verdict!r}")
        if _field(out, "in ideal") == "yes" and verdict != "member":
            bad.append("in-ideal candidate judged outside the closure")
        if problem.facts.get("constructed_in_ideal") and \
                _field(out, "in ideal") != "yes":
            bad.append("candidate built inside the ideal not seen as such")
        expect = problem.facts.get("expect_verdict")
        if expect is not None and verdict != expect:
            bad.append(f"verdict {verdict!r} where {expect!r} is known")
        oracle = _field(out, "frobenius oracle (supersingular curve)")
        if problem.workload == "membership" and oracle is not None:
            bad.append("oracle ran on a curve drawn as ordinary")
        if problem.workload == "frobenius":
            if oracle is None:
                bad.append("no oracle on a supersingular curve")
            elif oracle.startswith("found") and verdict != "member":
                bad.append("Frobenius witness for a criterion non-member")
    else:
        rows = parse_degrees(out)
        if code != 0 or not rows:
            bad.append(f"closure exit {code} without a degree table")
        if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
            bad.append("closure degrees are not 1..bound")
        for m, regime, di, dc in rows:
            if dc < di:
                bad.append(f"degree {m}: closure piece misses the ideal piece")
            if regime == "ideal" and dc != di:
                bad.append(f"degree {m}: 'ideal' regime with a larger piece")
            if regime == "all" and dc != 3 * m:
                bad.append(f"degree {m}: 'all' regime below dim R_m")
    return bad


# ---------------------------------------------------------------------------
# corpus properties a change may target
# ---------------------------------------------------------------------------

def _char_and_q(problem):
    keys = dict(line.split(" = ", 1) for line in problem.text.splitlines()
                if " = " in line and not line.startswith("#"))
    p = int(keys["char"])
    return p, p ** int(keys.get("ext_degree", 1))


def properties(problem, code, out):
    """Per-problem properties that the share report counts."""
    p, q = _char_and_q(problem)
    props = {f"slot_{problem.facts.get('kind', 'demo')}": 1}
    if problem.command == "closure":
        lines = sum((q ** (3 * m - di) - 1) // (q - 1)
                    for m, regime, di, dc in parse_degrees(out)
                    if regime == "criterion")
        props["window" if lines else "window_free"] = 1
        props["lines"] = lines
        return props
    if _field(out, "in ideal") == "yes":
        props["in_ideal"] = 1
    elif code == 0:
        props["member_outside_ideal"] = 1
    else:
        props["non_member"] = 1
    if _field(out, "splitting extension degree") not in (None, "1"):
        props["splitting_extension"] = 1
    oracle = _field(out, "frobenius oracle (supersingular curve)")
    if oracle is not None:
        m = int(_field(out, "candidate").rsplit("degree", 1)[1].rstrip(")"))
        if oracle.startswith("found"):
            props["witness_found"] = 1
            e = int(oracle.rsplit("=", 1)[1])
        else:
            props["searched_to_e_max" if code == 1
                  else "member_not_found"] = 1
            e = int(oracle.rsplit("<=", 1)[1])
        props["D"] = p ** e * m
    return props


def share_report(workload, props):
    n = len(props)
    total = {}
    for entry in props:
        for key, val in entry.items():
            if key not in ("D", "lines"):
                total[key] = total.get(key, 0) + val
    lines = [f"shares over {n} problems: " + ", ".join(
        f"{k} {v / n:.3f}" for k, v in sorted(total.items()))]
    if workload == "closure":
        per = [entry["lines"] for entry in props]
        lines.append(f"candidate lines per problem: mean "
                     f"{statistics.mean(per):.2f}, max {max(per)}")
    if workload == "frobenius":
        ds = sorted(entry["D"] for entry in props if "D" in entry)
        bins = [(0, 30), (31, 100), (101, 400), (401, 10 ** 9)]
        lines.append("oracle degree D searched: " + ", ".join(
            f"{lo}..{hi if hi < 10 ** 9 else 'inf'}: "
            f"{sum(lo <= d <= hi for d in ds)}" for lo, hi in bins)
            + f"; max {max(ds)}")
    return lines


# ---------------------------------------------------------------------------
# digests and summary statistics
# ---------------------------------------------------------------------------

class Digest:
    """sha256 over (index, input, exit, stdout) of every problem, with the
    value kept at each power-of-two count so runs of different lengths can
    be compared on their common prefix."""

    def __init__(self):
        self._h = hashlib.sha256()
        self.n = 0
        self.checkpoints = {}

    def add(self, problem, code, out):
        self._h.update(f"{problem.index}\0{problem.sha}\0{code}\0{out}\0"
                       .encode())
        self.n += 1
        if self.n & (self.n - 1) == 0:
            self.checkpoints[self.n] = self._h.hexdigest()[:16]

    def lines(self):
        marks = " ".join(f"{n}:{d}" for n, d in sorted(self.checkpoints.items()))
        return [f"digests at power-of-two counts: {marks}",
                f"digest of all {self.n}: {self._h.hexdigest()[:16]}"]


def tail(times):
    """(percentile, value): the highest whole percentile with at least ten
    samples above it (nearest rank); the maximum when there are fewer than
    eleven samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return 100, ordered[-1]
    pct = (100 * (n - 10)) // n
    return pct, ordered[math.ceil(pct * n / 100) - 1]


def load_golden(workload):
    path = GOLDEN / f"{workload}.jsonl"
    if not path.is_file():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, workload, seed, seconds, trace):
        from corpus import Corpus
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.stream = iter(Corpus(workload, seed))
        self.golden = load_golden(workload) if seed == GOLDEN_SEED else []
        self.path = OUT / f"problem-{workload}.tc"
        self.untraced, self.traced = [], []     # Outcome per problem
        self.props, self.failures = [], []
        self.golden_checked = 0
        self.digest = Digest()

    def loop(self, deadline):
        tracer = None
        if self.trace:
            from tracer import Tracer
            tracer = Tracer()
        from corpus import HEAD_ALLOWANCE_S, SEEDED_PER_S
        budget = self.seconds - HEAD_ALLOWANCE_S.get(self.workload, 0.0)
        quota = None
        if self.workload in SEEDED_PER_S:
            quota = round(SEEDED_PER_S[self.workload] * budget)
        kernels, timed, raw, seeded = [], 0.0, 0.0, 0
        kernel = None

        def more():
            if quota is not None:
                return seeded < quota
            return timed < budget and raw < RAW_BUDGET_FACTOR * budget

        while more() and time.monotonic() < deadline:
            problem = next(self.stream)
            if tracer is None:
                outcome = timing = run_problem(problem, self.path, kernel)
                kernel = outcome.after
            else:
                runs = {}
                for traced in ((False, True) if problem.index % 2 == 0
                               else (True, False)):
                    if traced:
                        tracer.start_problem(problem.index)
                        tracer.install()
                    try:
                        runs[traced] = run_problem(problem, self.path, kernel)
                        kernel = runs[traced].after
                    finally:
                        if traced:
                            tracer.uninstall()
                outcome, timing = runs[False], runs[True]
                self.traced.append(timing)
                if (runs[True].code, runs[True].out) != (outcome.code,
                                                         outcome.out):
                    self.fail(problem, ["traced output differs from "
                                        "untraced output"], "")
            self.untraced.append(outcome)
            # The budget is spent in reference-speed seconds, so that the
            # number of problems a run holds does not follow machine speed.
            kernels.append(timing.kernel_s)
            if "demo" not in problem.facts:
                seeded += 1
                raw += timing.seconds
                timed += calibrate.normalised(
                    timing.seconds,
                    statistics.median(kernels[-calibrate.WINDOW:]))
            code, out = outcome.code, outcome.out
            golden = None
            if problem.index < len(self.golden):
                golden = self.golden[problem.index]
                self.golden_checked += 1
            bad = check_output(problem, code, out, golden)
            if bad:
                self.fail(problem, bad, outcome.err)
            else:
                self.props.append(properties(problem, code, out))
            self.digest.add(problem, code, out)
        return tracer

    def fail(self, problem, reasons, err):
        self.failures.append((problem.index, reasons))
        print(f"FAIL {self.workload} seed {self.seed} problem "
              f"{problem.index}: {'; '.join(reasons)}", file=sys.stderr)
        if err:
            print(err.rstrip(), file=sys.stderr)

    @property
    def failed(self):
        return len({i for i, _ in self.failures})


def end_to_end(run, setup_s):
    times = calibrate.normalised_series(
        [(o.seconds, o.kernel_s) for o in run.untraced])
    pct, tail_s = tail(times)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "problem_s.p50": (statistics.median(times), "s"),
        "problem_s.tail": (tail_s, "s"),
        "problems_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }, pct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("membership", "closure", "frobenius"))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "tcone" / "__init__.py").is_file():
        print(f"error: no tcone sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    setup_s = measure_setup(args.workload)
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    tracer = run.loop(started + WALL_LIMIT_S)

    n = len(run.untraced)
    wall = sum(o.seconds for o in run.untraced)
    speed = statistics.median(o.kernel_s for o in run.untraced)
    print(f"workload {args.workload}, seed {args.seed}: {n} problems, "
          f"closed loop, 1 client, {wall:.2f} s timed untraced"
          + (f" + {sum(o.seconds for o in run.traced):.2f} s traced"
             if args.trace else "")
          + f"; calibration kernel {speed * 1e3:.2f} ms (reference "
          f"{calibrate.REFERENCE_S * 1e3:.2f} ms)")
    print(f"golden-checked {run.golden_checked} of {n} problems"
          + ("" if args.seed == GOLDEN_SEED
             else f" (golden seed is {GOLDEN_SEED})"))
    for line in run.digest.lines() + share_report(args.workload, run.props):
        print(line)
    if args.trace:
        from layers import layer_metrics, sum_check
        metrics = layer_metrics(tracer, run.traced, run.untraced)
        print(sum_check(tracer, [o.seconds for o in run.traced]))
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics, pct = end_to_end(run, setup_s)
        raw = [o.seconds for o in run.untraced]
        print(f"unnormalised: problem_s.p50 {statistics.median(raw):.6g} s, "
              f"problem_s.tail {tail(raw)[1]:.6g} s, problems_per_s "
              f"{len(raw) / sum(raw):.6g} 1/s")
        print(f"problem_s.tail is p{pct} of {n} samples "
              f"({n - math.ceil(pct * n / 100)} beyond it)")
    print(f"failed_frac: {run.failed / n:.4f} (share of problems attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": n,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
