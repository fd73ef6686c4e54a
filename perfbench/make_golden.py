#!/usr/bin/env python3
"""Write the golden outputs of the golden seed.

    python3 perfbench/make_golden.py [--workload NAME]

Runs the first GOLDEN_COUNT problems of each workload's golden-seed
stream through `tcone.cli.main` and stores the input digest, exit code and
stdout bytes of each in `perfbench/golden/<workload>.jsonl`.  Counts leave
room for a program a few times faster than the one that wrote them; past
the end, run.py still applies the cross-checks.  An output that fails a
cross-check is not written.
"""

import argparse
import json
import sys

import run
from corpus import Corpus, WORKLOADS

GOLDEN_COUNT = {"membership": 500, "closure": 300, "frobenius": 150}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    run.GOLDEN.mkdir(exist_ok=True)
    for workload in [args.workload] if args.workload else WORKLOADS:
        run.set_up(workload)
        stream = iter(Corpus(workload, run.GOLDEN_SEED))
        path = run.OUT / f"problem-{workload}.tc"
        entries = []
        for _ in range(GOLDEN_COUNT[workload]):
            problem = next(stream)
            outcome = run.run_problem(problem, path)
            bad = run.check_output(problem, outcome.code, outcome.out, None)
            if bad:
                sys.exit(f"{workload} problem {problem.index}: "
                         f"{'; '.join(bad)}\n{outcome.err}")
            entries.append({"index": problem.index, "input": problem.sha,
                            "exit": outcome.code, "stdout": outcome.out})
        with open(run.GOLDEN / f"{workload}.jsonl", "w",
                  encoding="utf-8") as fh:
            for entry in entries:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"{workload}: {len(entries)} golden outputs")


if __name__ == "__main__":
    main()
