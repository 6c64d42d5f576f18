"""The four benchmark workloads and the checks that read their CSV output.

Each workload is a fixed list of `rvonemax` CLI invocations whose only
free input is the `--seed` the benchmark passes through. The replicate and
sample counts below size one pass of a workload at roughly 1.5 to 7 seconds
on a 2-core x86 box, so a 25-second run repeats it a few times and reports
medians.

Every statistical check uses a 4-standard-error tolerance: the benchmark
runs on many seeds, and at 4 SE a correct program fails a single check
with probability about 6e-5. The acceptance tests keep their own 3-SE
gates.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable

SE_TOL = 4.0

PLAN_LONG_REPS = 24
PLAN_SHORT_REPS = 1000
TOKEN_REPS = 15000
DRIFT_RLS_SAMPLES = 6000
DRIFT_EA_SAMPLES = 3000

TOKEN_LAWS = ("unit", "uniform", "harmonic")


@dataclass
class Verdict:
    """What one pass of a workload produced, read back from its CSV."""

    replicates: int = 0       # simulated runs (or drift samples) in the pass
    capped: int = 0           # runs that hit the iteration cap
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    iterations: int = 0       # simulated iterations (or rounds, or samples)
    # per-cell iteration sums and means, keyed by a short cell label
    cell_iterations: dict[str, int] = field(default_factory=dict)
    cell_means: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)


def harmonic_number(k: int) -> float:
    # computed here rather than taken from rvonemax, so the check does not
    # trust the program it checks
    return math.fsum(1.0 / i for i in range(1, k + 1))


def read_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _run_cells(verdict: Verdict, rows: list[dict[str, str]]) -> None:
    """Account replicates, capped runs and hitting-time sums of `run` rows."""
    for row in rows:
        reps, capped = int(row["replicates"]), int(row["capped"])
        done = round(float(row["mean"]) * (reps - capped)) if reps > capped else 0
        label = f"{row['algorithm']}.{row['operator']}.n{row['n']}.r{row['r']}"
        verdict.replicates += reps
        verdict.capped += capped
        verdict.iterations += done
        verdict.cell_iterations[label] = done
        verdict.cell_means[label] = float(row["mean"])


def plan_long_argv(seed: int) -> list[list[str]]:
    return [["run", "--n", "50", "--r", "256", "--algo", "rls,ea",
             "--op", "uniform,pm1,harmonic", "--metric", "interval",
             "--reps", str(PLAN_LONG_REPS), "--seed", str(seed)]]


def plan_long_check(outputs: list[str]) -> Verdict:
    verdict = Verdict()
    rows = read_rows(outputs[0])
    _run_cells(verdict, rows)
    verdict.check(len(rows) == 6, f"plan_long: expected 6 cells, got {len(rows)}")
    verdict.check(verdict.capped == 0, f"plan_long: {verdict.capped} capped run(s)")
    means = {(row["algorithm"], row["operator"]): float(row["mean"]) for row in rows}
    for algo in ("rls", "ea"):
        harm = means.get((algo, "harmonic"), math.nan)
        for other in ("pm1", "uniform"):
            ref = means.get((algo, other), math.nan)
            verdict.check(harm <= 0.5 * ref,
                          f"plan_long: {algo} harmonic mean {harm} > half the {other} mean {ref}")
    return verdict


def plan_short_argv(seed: int) -> list[list[str]]:
    return [["run", "--n", "20", "--r", "2,4,8", "--algo", "rls", "--op", "uniform",
             "--start", "hamming", "--hamming-k", "20",
             "--reps", str(PLAN_SHORT_REPS), "--seed", str(seed)]]


def plan_short_check(outputs: list[str]) -> Verdict:
    verdict = Verdict()
    rows = read_rows(outputs[0])
    _run_cells(verdict, rows)
    verdict.check(len(rows) == 3, f"plan_short: expected 3 cells, got {len(rows)}")
    for row in rows:
        n, r = int(row["n"]), int(row["r"])
        exact = n * (r - 1) * harmonic_number(20)
        mean, se = float(row["mean"]), float(row["std_error"])
        verdict.check(abs(mean - exact) <= SE_TOL * se,
                      f"plan_short: r={r} mean {mean} vs exact {exact:.4f} (SE {se})")
    return verdict


def token_batch_argv(seed: int) -> list[list[str]]:
    return [["token", "--r", "255", "--dist", law, "--reps", str(TOKEN_REPS),
             "--seed", str(seed)] for law in TOKEN_LAWS]


def token_batch_check(outputs: list[str]) -> Verdict:
    verdict = Verdict()
    for law, text in zip(TOKEN_LAWS, outputs):
        rows = read_rows(text)
        verdict.check(len(rows) == 1, f"token {law}: expected 1 row, got {len(rows)}")
        for row in rows:
            reps, capped = int(row["replicates"]), int(row["capped"])
            mean, se, exact = float(row["mean"]), float(row["std_error"]), float(row["exact"])
            done = round(mean * (reps - capped))
            verdict.replicates += reps
            verdict.capped += capped
            verdict.iterations += done
            verdict.cell_iterations[law] = done
            verdict.cell_means[law] = mean
            verdict.check(abs(mean - exact) <= SE_TOL * se,
                          f"token {law}: mean {mean} vs exact {exact} (SE {se})")
    return verdict


DRIFT_N, DRIFT_R = 20, 8
DRIFT_RLS_LEVELS = (1, 10, 20)
DRIFT_EA_LEVELS = (10, 40, 100)


def drift_planted_argv(seed: int) -> list[list[str]]:
    common = ["--n", str(DRIFT_N), "--r", str(DRIFT_R), "--seed", str(seed)]
    return [["drift", *common, "--algo", "rls", "--op", "uniform", "--potential", "hamming",
             "--levels", ",".join(map(str, DRIFT_RLS_LEVELS)),
             "--samples", str(DRIFT_RLS_SAMPLES)],
            ["drift", *common, "--algo", "ea", "--op", "harmonic", "--potential", "fitness",
             "--levels", ",".join(map(str, DRIFT_EA_LEVELS)),
             "--samples", str(DRIFT_EA_SAMPLES)]]


def drift_planted_check(outputs: list[str]) -> Verdict:
    verdict = Verdict()
    rls_rows, ea_rows = read_rows(outputs[0]), read_rows(outputs[1])
    verdict.check(len(rls_rows) == len(DRIFT_RLS_LEVELS) and len(ea_rows) == len(DRIFT_EA_LEVELS),
                  f"drift: expected {len(DRIFT_RLS_LEVELS)}+{len(DRIFT_EA_LEVELS)} rows, "
                  f"got {len(rls_rows)}+{len(ea_rows)}")
    for row in rls_rows + ea_rows:
        samples = int(row["samples"])
        verdict.replicates += samples
        verdict.iterations += samples
        label = f"{row['algorithm']}.{row['potential']}.{row['level']}"
        verdict.cell_iterations[label] = samples
        verdict.cell_means[label] = float(row["mean_drop"])
    for row in rls_rows:
        k = float(row["level"])
        exact = k / (DRIFT_N * (DRIFT_R - 1))
        drop, se = float(row["mean_drop"]), float(row["ci95_halfwidth"]) / 1.96
        verdict.check(abs(drop - exact) <= SE_TOL * se,
                      f"drift rls hamming k={k:g}: drop {drop} vs exact {exact:.6f} (SE {se})")
    for row in ea_rows:
        drop = float(row["mean_drop"])
        verdict.check(drop >= 0.0, f"drift ea fitness s={row['level']}: negative drop {drop}")
    return verdict


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[list[str]]]   # seed -> CLI argument lists
    check: Callable[[list[str]], Verdict]    # stdout of each invocation -> verdict
    setup_r: tuple[int, ...]  # alphabet sizes whose lazy tables the set-up builds


WORKLOADS = {
    "plan_long": Workload("plan_long", plan_long_argv, plan_long_check, (256,)),
    "plan_short": Workload("plan_short", plan_short_argv, plan_short_check, (2, 4, 8)),
    "token_batch": Workload("token_batch", token_batch_argv, token_batch_check, (255,)),
    "drift_planted": Workload("drift_planted", drift_planted_argv, drift_planted_check,
                              (DRIFT_R,)),
}
