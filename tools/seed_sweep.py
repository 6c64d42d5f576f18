"""Seed sweep of the statistical gates: pass rate and margin per gate.

Usage, from the repository root:

    python3 tools/seed_sweep.py 1 2 3 4 5 --workers 2
    python3 tools/seed_sweep.py 1 2 3 --gate "drift floor" --gate "fitness planting law"

Runs every gate registered in tests/gates.py (or only those named by
--gate) once per seed given on the command line, in place of the fixed
seed its test uses, and reports the gate's own pass rule and margin. The
gates, in the order of the report:

- criterion 1, the RLS closed form from a fixed and from a uniform start,
  and the closed form through execute_plan;
- criterion 7, token Monte Carlo means against the exact solver;
- criterion 2, the exact Hamming drift law at one level, the drift grid,
  the EA fitness drift floor, and the rows planted at a fitness level
  against the exact law of the one-unit-at-a-time loop;
- criteria 3 to 6, the uniform and +-1 EA scaling fits, and the pooled
  test that EA runs raise the Hamming distance at the plain loop's rate;
- the trace rows of every algorithm x operator x metric after 1 and 4
  iterations against the exact transition law of a tiny instance, the RLS
  mean of every operator x metric against that instance's exact E[T], and
  one EA iteration from a fixed start against the law, for uniform and for
  +-1 steps;
- ea pm1 ring ties, the +-1 EA's trace rows after 1 and 4 iterations at
  n=3, r=3 on the ring, where every unfinished position is at a tie,
  against the exact transition law;
- ea pm1 ring ties mean, the +-1 EA's mean hitting time on that instance
  against its exact E[T].

The margin is how far the measured value lies inside the rule's bounds, in
the rule's own units (negative when the gate fails). A gate that passes at
its fixed seed but not at most seeds rests on a lucky seed. This is a
report, not a test: it asserts nothing and is not part of the test suite.

--workers N runs N seeds of a gate at once, one per process; the report
is the same at any N, in seed order. On a 2-core x86 box one seed of every
gate takes about a minute on one process (criteria 4 and 6 dominate), and
two seeds take about 77 s with --workers 2.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gates import GATES  # noqa: E402


def outcomes(gate, seeds, workers):
    """The gate's outcome at each seed, in seed order; workers > 1 runs that
    many seeds at once, one per process."""
    if workers == 1:
        yield from map(gate, seeds)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(gate, seeds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", help="seeds to run each gate at")
    parser.add_argument("--workers", type=int, default=1,
                        help="seeds of a gate to run at once, one per process (default: 1)")
    parser.add_argument("--gate", action="append", choices=[name for name, _, _ in GATES],
                        help="run only this gate (repeatable); default: every gate")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    summary = []
    for name, fixed_seed, gate in GATES:
        if args.gate and name not in args.gate:
            continue
        margins, passed = [], 0
        for seed, (ok, margin, uncapped, detail) in zip(
                args.seeds, outcomes(gate, args.seeds, args.workers)):
            passed += ok
            margins.append(margin)
            print(f"{name}: seed {seed}: {'pass' if ok else 'FAIL'} margin={margin:.4g} "
                  f"({detail}{'' if uncapped else ', capped runs'})", flush=True)
        summary.append((name, fixed_seed, passed, margins))
    print(f"{'gate':<20} {'test seed':>9} {'passed':>8} {'min margin':>11} {'median margin':>14}")
    for name, fixed_seed, passed, margins in summary:
        print(f"{name:<20} {fixed_seed:>9} {passed:>4}/{len(margins):<3} "
              f"{min(margins):>11.4g} {statistics.median(margins):>14.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
