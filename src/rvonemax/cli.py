"""Command-line front end: run plans, estimate drift, simulate the token
process, fit scaling models, and print the harmonic step-size law.

Data goes to the chosen destination (file or stdout) as CSV or JSON with a
stable column order and numbers formatted to 10 significant digits, so
fixed-seed invocations are byte-identical. Progress and warnings go to
stderr.

Exit codes: 0 success, 1 usage or invalid-input error, 2 I/O error, 3 capacity
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .algorithms import AlgorithmKind, DEFAULT_ITERATION_CAP, RunConfig
from .drift import estimate_drift
from .experiments import (AggregateResult, ExperimentPlan, StartKind, StartPolicy, TargetPolicy,
                          build_target, column_summary, execute_plan, fit_scaling, MODELS,
                          stable_seed)
from .operators import StepOperatorKind, harmonic_pmf
from .potentials import Potential
from .space import MetricKind, ProblemInstance, SpaceParams
from .token_process import (CapacityError, NAMED_DISTRIBUTIONS, TokenConfig,
                            token_expected_hitting_time_exact, token_run_batch)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CAPACITY = 3

AGGREGATE_COLUMNS = ("n", "r", "algorithm", "operator", "metric", "mean",
                     "std_error", "median", "replicates", "capped")
DRIFT_COLUMNS = ("n", "r", "algorithm", "operator", "metric", "potential",
                 "level", "mean_drop", "ci95_halfwidth", "samples")
TOKEN_COLUMNS = ("r", "distribution", "mean", "std_error", "median",
                 "replicates", "capped", "exact")
FIT_COLUMNS = ("model", "term", "coefficient", "r_squared")
PMF_COLUMNS = ("j", "probability")


class _Parser(argparse.ArgumentParser):
    # exit status 2 is taken by I/O errors, so usage errors exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> _Parser:
    parser = _Parser(prog="rvonemax",
                     description="Run-time and drift experiments for randomized search "
                                 "heuristics on r-valued OneMax functions.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_output(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default: csv)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="destination file (default: stdout)")

    p_run = sub.add_parser("run", help="execute an experiment plan")
    p_run.add_argument("--plan", default=None, metavar="PATH",
                       help="plan file with flat key = value lines")
    p_run.add_argument("--n", default=None, metavar="LIST", help="dimension(s), e.g. 50 or 50,100")
    p_run.add_argument("--r", default=None, metavar="LIST", help="alphabet size(s), e.g. 4 or 4,8")
    p_run.add_argument("--algo", default="rls", metavar="LIST", help="rls and/or ea")
    p_run.add_argument("--op", default="uniform", metavar="LIST",
                       help="uniform, pm1 and/or harmonic")
    p_run.add_argument("--metric", default="interval", choices=("interval", "ring"))
    p_run.add_argument("--target", default="zero", choices=("zero", "center", "random"))
    p_run.add_argument("--start", default="random", choices=("random", "maxdist", "hamming"))
    p_run.add_argument("--hamming-k", type=int, default=None, metavar="K",
                       help="start Hamming distance (with --start hamming)")
    p_run.add_argument("--reps", type=int, default=100, metavar="N")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--cap", type=int, default=DEFAULT_ITERATION_CAP, metavar="T",
                       help="iteration cap per run")
    add_output(p_run)

    p_drift = sub.add_parser("drift", help="estimate one-step drift at planted levels")
    p_drift.add_argument("--n", type=int, required=True)
    p_drift.add_argument("--r", type=int, required=True)
    p_drift.add_argument("--algo", default="rls")
    p_drift.add_argument("--op", default="uniform")
    p_drift.add_argument("--metric", default="interval", choices=("interval", "ring"))
    p_drift.add_argument("--target", default="zero", choices=("zero", "center", "random"))
    p_drift.add_argument("--potential", default="hamming",
                         help="hamming or fitness")
    p_drift.add_argument("--levels", required=True, metavar="LIST",
                         help="comma-separated potential levels, e.g. 1,5,10")
    p_drift.add_argument("--samples", type=int, default=10000)
    p_drift.add_argument("--seed", type=int, required=True)
    add_output(p_drift)

    p_token = sub.add_parser("token", help="simulate the token-movement process")
    p_token.add_argument("--r", type=int, required=True)
    p_token.add_argument("--dist", default="harmonic", choices=NAMED_DISTRIBUTIONS)
    p_token.add_argument("--reps", type=int, default=10000)
    p_token.add_argument("--seed", type=int, required=True)
    p_token.add_argument("--cap", type=int, default=None)
    add_output(p_token)

    p_fit = sub.add_parser("fit", help="fit a named scaling model to aggregates")
    p_fit.add_argument("--model", required=True, choices=sorted(MODELS))
    p_fit.add_argument("--input", required=True, metavar="PATH",
                       help="aggregates as emitted by 'run' (csv or json)")
    add_output(p_fit)

    p_pmf = sub.add_parser("pmf", help="print the harmonic step-size law")
    p_pmf.add_argument("--r", type=int, required=True)
    add_output(p_pmf)

    return parser


def load_plan_file(path: str) -> list[str]:
    """Read a flat plan document of 'key = value' lines as the `run` flags it
    stands for, e.g. ['--r', '3,4', '--reps', '4'].

    A value is its flag's text, quotes dropped; an [a, b, c] list of n, r,
    algorithms or operators is given as a,b,c. '#' starts a comment.
    """
    names = {"n": "--n", "r": "--r", "algorithms": "--algo", "operators": "--op",
             "metric": "--metric", "target": "--target", "start": "--start",
             "hamming_k": "--hamming-k", "replicates": "--reps", "seed": "--seed", "cap": "--cap"}
    flags, unknown = [], []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in names:
                unknown.append(key)
                continue
            listed = (key in ("n", "r", "algorithms", "operators")
                      and value.startswith("[") and value.endswith("]"))
            items = value[1:-1].split(",") if listed else [value]
            flags += [names[key], ",".join(item.strip().strip("'\"") for item in items)]
    if unknown:
        raise ValueError(f"unknown plan key(s): {', '.join(sorted(unknown))}")
    return flags


def _split(text: str) -> list[str]:
    """A flag's list text split at commas."""
    return [part for part in text.split(",") if part.strip()]


def parse_args(argv) -> argparse.Namespace:
    """Parse arguments and build the library objects the subcommand runs:
    `experiment` (an ExperimentPlan) for run; `config` (a RunConfig),
    `potential` and `levels` for drift; `config` (a TokenConfig) for token.

    A run plan file is read as the flags it names, placed before the inline
    flags, so one parser checks every value and an inline flag wins.

    Exits with status 1 on usage errors, including a ValueError raised by a
    constructor.
    """
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.subcommand == "run":
            if ns.plan:
                ns = parser.parse_args(["run", *load_plan_file(ns.plan), *argv[1:]])
            ns.experiment = _build_experiment(ns)
        elif ns.subcommand == "drift":
            params = SpaceParams(n=ns.n, r=ns.r)
            target_rng = np.random.default_rng(stable_seed(ns.seed, "target"))
            target = build_target(TargetPolicy.parse(ns.target), params, target_rng)
            instance = ProblemInstance(params=params, metric=MetricKind.parse(ns.metric),
                                       target=target)
            ns.config = RunConfig(algorithm=AlgorithmKind.parse(ns.algo),
                                  operator=StepOperatorKind.parse(ns.op),
                                  instance=instance, seed=ns.seed)
            ns.potential = Potential.parse(ns.potential)
            ns.levels = [int(level) for level in _split(ns.levels)]
        elif ns.subcommand == "token":
            cap = {} if ns.cap is None else {"iteration_cap": ns.cap}
            ns.config = TokenConfig(r=ns.r, distribution=ns.dist, seed=ns.seed, **cap)
    except ValueError as exc:
        parser.error(str(exc))
    return ns


def _build_experiment(ns) -> ExperimentPlan:
    if ns.n is None or ns.r is None:
        raise ValueError("run needs --n and --r (flags or plan file)")
    if ns.seed is None:
        raise ValueError("--seed is required (runs must be reproducible)")
    if (ns.start == "hamming") != (ns.hamming_k is not None):
        raise ValueError("--start hamming needs --hamming-k" if ns.hamming_k is None
                         else "--hamming-k is only valid with --start hamming")
    return ExperimentPlan(
        grid=tuple((n, r) for n in _split(ns.n) for r in _split(ns.r)),
        algorithms=tuple(AlgorithmKind.parse(a) for a in _split(ns.algo)),
        operators=tuple(StepOperatorKind.parse(o) for o in _split(ns.op)),
        metric=MetricKind.parse(ns.metric),
        target_policy=TargetPolicy.parse(ns.target),
        start_policy=StartPolicy(StartKind(ns.start), ns.hamming_k),
        replicates=ns.reps,
        base_seed=ns.seed,
        iteration_cap=ns.cap)


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _json_ready(value):
    if isinstance(value, float):
        # JSON has no NaN or infinity: a censored cell's mean is written as null
        return float(f"{value:.10g}") if math.isfinite(value) else None
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def render_rows(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        payload = [{k: _json_ready(v) for k, v in row.items()} for row in rows]
        return json.dumps(payload, indent=1, allow_nan=False) + "\n"
    header = ",".join(rows[0].keys())
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row.values()) for row in rows)
    return "\n".join(lines) + "\n"


def emit_results(rows: list[dict], fmt: str, destination: str | None) -> int:
    """Write rows to the destination; returns the process exit status."""
    text = render_rows(rows, fmt)
    if destination in (None, "-"):
        sys.stdout.write(text)
        return EXIT_OK
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return EXIT_OK


def _row(columns: tuple[str, ...], *values) -> dict:
    assert len(columns) == len(values)
    return dict(zip(columns, values))


def aggregate_rows(aggregates: list[AggregateResult]) -> list[dict]:
    return [_row(AGGREGATE_COLUMNS, agg.n, agg.r, agg.algorithm.value, agg.operator.value,
                 agg.metric.value, agg.mean, agg.std_error, agg.median, agg.replicates,
                 agg.capped_count)
            for agg in aggregates]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_run(ns) -> int:
    plan = ns.experiment
    cells = len(plan.grid) * len(plan.algorithms) * len(plan.operators)
    print(f"running {cells} cell(s) x {plan.replicates} replicate(s)", file=sys.stderr)
    aggregates = execute_plan(plan)
    rows = aggregate_rows(aggregates)
    censored = [agg for agg in aggregates if agg.censored]
    if censored:
        print(f"warning: {len(censored)} aggregate(s) are right-censored "
              f"(capped runs excluded from means)", file=sys.stderr)
    return emit_results(rows, ns.format, ns.out)


def _cmd_drift(ns) -> int:
    config = ns.config
    estimates = estimate_drift(config, ns.potential, ns.levels, ns.samples)
    rows = [_row(DRIFT_COLUMNS, ns.n, ns.r, config.algorithm.value, config.operator.value,
                 config.instance.metric.value, ns.potential.label, est.level, est.mean_drop,
                 est.confidence_halfwidth, est.samples)
            for est in estimates]
    return emit_results(rows, ns.format, ns.out)


def _cmd_token(ns) -> int:
    config = ns.config
    exact = token_expected_hitting_time_exact(config.r, config.distribution)
    batch = token_run_batch(config, ns.reps)
    mean, std_error, median, capped = column_summary(batch.rounds, batch.capped)
    rows = [_row(TOKEN_COLUMNS, config.r, config.distribution, mean, std_error, median,
                 ns.reps, capped, exact)]
    if capped:
        print(f"warning: {capped} run(s) hit the iteration cap", file=sys.stderr)
    return emit_results(rows, ns.format, ns.out)


def read_aggregate_points(path: str) -> list[tuple[int, int, float]]:
    """Read (n, r, mean) triples from a CSV or JSON aggregates file; a JSON
    null mean (a censored cell) reads as nan."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("[") or stripped.startswith("{"):
        rows = json.loads(text)
    else:
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError(f"{path}: empty aggregates file")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    points = []
    for row in rows:
        try:
            mean = row["mean"]
            points.append((int(row["n"]), int(row["r"]),
                           math.nan if mean is None else float(mean)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: rows need n, r and mean columns ({exc})") from exc
    return points


def _cmd_fit(ns) -> int:
    fit = fit_scaling(read_aggregate_points(ns.input), ns.model)
    rows = [_row(FIT_COLUMNS, fit.model, term, coef, fit.r_squared)
            for term, coef in zip(fit.terms, fit.coefficients)]
    return emit_results(rows, ns.format, ns.out)


def _cmd_pmf(ns) -> int:
    rows = [_row(PMF_COLUMNS, j, float(p)) for j, p in enumerate(harmonic_pmf(ns.r), start=1)]
    return emit_results(rows, ns.format, ns.out)


def main(argv=None) -> int:
    handlers = {"run": _cmd_run, "drift": _cmd_drift, "token": _cmd_token,
                "fit": _cmd_fit, "pmf": _cmd_pmf}
    try:
        ns = parse_args(sys.argv[1:] if argv is None else list(argv))
        return handlers[ns.subcommand](ns)
    except SystemExit as exc:
        return int(exc.code or 0)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
