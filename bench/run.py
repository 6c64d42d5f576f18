"""Benchmark of the rvonemax CLI: four fixed workloads run in-process.

Usage, from the repository root:

    python3 bench/run.py --workload plan_long --seed 1 --seconds 25 --trace 0

A pass of a workload is its list of `rvonemax.cli.main` calls with stdout
captured. A run repeats the pass in one thread for `--seconds` seconds and
reports medians over passes. With `--trace 0` the last stdout line carries
the end-to-end metrics, with pass times rescaled by a reference loop (see
REF_NOMINAL_S). With `--trace 1` the run alternates untraced and traced
passes and carries the per-layer metrics; the spans of the last traced
pass go to `bench/out/`. Every pass's CSV is checked for
correctness, every pass at one seed must print the same bytes, and a
traced pass must print exactly what an untraced one does. Metric names and
units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import tracer as tracing
from workloads import TOKEN_LAWS, WORKLOADS, Verdict

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPS = 7  # fresh interpreters timed per run; the median is reported

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rvonemax
for r in sys.argv[2:]:
    rvonemax.harmonic_table(int(r))
print(repr(time.perf_counter() - t0))
"""

# Other tenants of the box make its speed drift by 10-50% over minutes, so
# wall_s, iters_per_s and setup_s are rescaled by a reference loop timed
# after every pass (for about REF_SHARE of the pass time) and after every
# set-up interpreter: a time T measured while one reference unit takes R
# seconds (median over the run) is reported as T * REF_NOMINAL_S / R, the
# time at the speed where the unit takes REF_NOMINAL_S. The unit is plain
# Python that shares no code or state with rvonemax, so a change to the
# program cannot move it.
REF_NOMINAL_S = 0.002
REF_SHARE = 0.05

CELLS = [(a, o) for a in ("rls", "ea") for o in ("uniform", "pm1", "harmonic")]


def measure_setup(setup_r, reference: list[float]) -> float:
    """Median seconds for a fresh interpreter to import rvonemax and build
    the workload's harmonic tables, with reference units timed after each
    interpreter. The first interpreter only warms the bytecode cache and is
    not counted."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, setup_r)]
    times = []
    for _ in range(SETUP_REPS + 1):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=60,
                              cwd=ROOT, check=True)
        times.append(float(done.stdout.split()[-1]))
        reference += reference_times(0.0)
    return statistics.median(times[1:])


def reference_times(seconds: float) -> list[float]:
    """Seconds per reference unit, for units run back to back for `seconds`."""
    times = []
    stop = perf_counter() + seconds
    while len(times) < 4 or perf_counter() < stop:
        start = perf_counter()
        total = 0
        for i in range(30000):
            total = total + i * i if i & 1 else total - i
        times.append(perf_counter() - start)
    return times


@dataclass
class Pass:
    wall_s: float
    outputs: list[str]
    digest: str
    verdict: Verdict


def run_pass(argvs, main, check) -> Pass:
    """Run every invocation of a workload once; time first call to last row."""
    codes, outputs = [], []
    start = perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            codes.append(main(argv))
        outputs.append(out.getvalue())
    wall = perf_counter() - start
    try:
        verdict = check(outputs)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        verdict = Verdict()
        verdict.check(False, f"unreadable CLI output: {exc!r}")
    for argv, code in zip(argvs, codes):
        verdict.check(code == 0, f"rvonemax {' '.join(argv)} exited with {code}")
    digest = hashlib.sha256("\0".join(outputs).encode()).hexdigest()
    return Pass(wall, outputs, digest, verdict)


def enough(deadline: float, *walls: list[float]) -> bool:
    """True once another round of passes would overrun the deadline."""
    return perf_counter() + sum(statistics.median(w) for w in walls) > deadline


# ---------------------------------------------------------------------------
# Per-layer figures from one traced pass
# ---------------------------------------------------------------------------

def layer_metrics(tr: tracing.Tracer, traced: Pass) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and each span name's inclusive
    share of the CLI's busy time."""
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    own_ns: dict[str, int] = {}
    self_ns = dict.fromkeys(tracing.LAYERS, 0)
    run_ns = dict.fromkeys(CELLS, 0)
    token_ns = dict.fromkeys(TOKEN_LAWS, 0)
    token_reps = dict.fromkeys(TOKEN_LAWS, 0)
    for sid, _, _, name, start, end, own in tr.spans():
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + end - start
        own_ns[name] = own_ns.get(name, 0) + own
        self_ns[name.split(".", 1)[0]] += own
        if name == "algorithms.run":
            config = tr.tags[name][sid][0]
            run_ns[(config.algorithm.value, config.operator.value)] += end - start
        elif name == "token_process.token_run_batch":
            config, reps = tr.tags[name][sid]
            token_ns[config.distribution] += end - start
            token_reps[config.distribution] += reps

    def per_call_us(name):
        return total[name] / calls[name] / 1e3 if calls.get(name) else 0.0

    verdict = traced.verdict
    m = {}
    for algo, op in CELLS:
        iters = sum(v for k, v in verdict.cell_iterations.items()
                    if k.startswith(f"{algo}.{op}."))
        busy = run_ns[(algo, op)]
        m[f"algorithms.iters_per_s.{algo}.{op}"] = iters / (busy / 1e9) if busy else 0.0
    m["algorithms.run_calls"] = calls.get("algorithms.run", 0)
    m["algorithms.run_busy_s"] = total.get("algorithms.run", 0) / 1e9
    m["algorithms.capped"] = verdict.capped
    m["experiments.config_us_per_rep"] = per_call_us("experiments.replicate_config")
    m["experiments.aggregate_s"] = own_ns.get("experiments.execute_plan", 0) / 1e9
    m["drift.plant_hamming_us_per_call"] = per_call_us("drift.plant_state_at_hamming")
    m["drift.plant_fitness_us_per_call"] = per_call_us("drift.plant_state_at_fitness")
    m["algorithms.one_iteration_us_per_call"] = per_call_us("algorithms.one_iteration")
    m["algorithms.mutate_us_per_call"] = per_call_us("algorithms.mutate")
    m["operators.step_calls"] = calls.get("operators.step", 0)
    m["operators.step_us_per_call"] = per_call_us("operators.step")
    m["space.fitness_calls"] = calls.get("space.fitness", 0)
    m["space.fitness_us_per_call"] = per_call_us("space.fitness")
    m["potentials.value_calls"] = calls.get("potentials.potential_value", 0)
    m["potentials.value_us_per_call"] = per_call_us("potentials.potential_value")
    for law in TOKEN_LAWS:
        busy = token_ns[law]
        m[f"token_process.us_per_rep.{law}"] = busy / token_reps[law] / 1e3 if busy else 0.0
        rounds = verdict.cell_iterations.get(law, 0)
        m[f"token_process.rounds_per_s.{law}"] = rounds / (busy / 1e9) if busy else 0.0
    m["cli.overhead_s"] = own_ns.get("cli.main", 0) / 1e9
    m["cli.bytes_out"] = sum(len(text.encode()) for text in traced.outputs)
    for layer, ns in self_ns.items():
        m[f"self_s.{layer}"] = ns / 1e9
    busy = total.get("cli.main", 0)
    shares = {name: t / busy for name, t in sorted(total.items())} if busy else {}
    return m, shares


def computed_metrics(tr: tracing.Tracer, setup_r) -> dict:
    """Figures produced by replaying one step outside the traced run."""
    import numpy as np
    from rvonemax.algorithms import subseed
    from rvonemax.operators import HarmonicTable
    from rvonemax.space import sample_uniform_point

    m = {}
    run_configs = [tag[0] for tag in tr.tags["algorithms.run"].values()]
    token_tags = tr.tags["token_process.token_run_batch"].values()

    # Generator construction plus the start sample, as algorithms.run does it
    start = perf_counter_ns()
    for config in run_configs:
        rng = np.random.default_rng(subseed(config.seed, 0))
        if config.initial_point is None:
            sample_uniform_point(config.instance.params, rng)
        else:
            np.array(config.initial_point, dtype=np.int64)
    elapsed = perf_counter_ns() - start
    m["algorithms.run_setup_us_per_call"] = elapsed / len(run_configs) / 1e3 if run_configs else 0.0

    # Generator construction per token replicate, as token_run_batch does it
    count = 0
    start = perf_counter_ns()
    for config, reps in token_tags:
        for k in range(reps):
            np.random.default_rng(subseed(config.seed, k))
        count += reps
    elapsed = perf_counter_ns() - start
    m["token_process.rng_setup_us_per_rep"] = elapsed / count / 1e3 if count else 0.0

    # Uncached harmonic table build at the workload's largest alphabet
    builds = []
    for _ in range(5):
        start = perf_counter_ns()
        HarmonicTable(max(setup_r))
        builds.append(perf_counter_ns() - start)
    m["operators.harmonic_table_build_ms"] = statistics.median(builds) / 1e6
    return m


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def untraced_run(workload, argvs, seconds, main):
    passes, reference = [], []
    deadline = perf_counter() + seconds
    while not passes or not enough(deadline, [p.wall_s for p in passes]):
        passes.append(run_pass(argvs, main, workload.check))
        reference += reference_times(REF_SHARE * passes[-1].wall_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = measure_setup(workload.setup_r, reference)
    scale = REF_NOMINAL_S / statistics.median(reference)
    wall = statistics.median(p.wall_s for p in passes) * scale
    values = {"wall_s": wall,
              "iters_per_s": passes[0].verdict.iterations / wall,
              "peak_rss_mb": peak_rss_mb,
              "setup_s": setup * scale}
    return passes, values, {"speed_scale": scale, "raw_wall_s": wall / scale,
                            "raw_setup_s": setup}


def traced_run(workload, argvs, seconds, main, spans_path):
    plain, traced, layer_runs, share_runs = [], [], [], []
    tr = tracing.Tracer()
    traced_main = tr.invocation(main)
    deadline = perf_counter() + seconds
    while not traced or not enough(deadline, [p.wall_s for p in plain],
                                   [p.wall_s for p in traced]):
        plain.append(run_pass(argvs, main, workload.check))
        tr.clear()
        with tr:
            traced.append(run_pass(argvs, traced_main, workload.check))
        values, shares = layer_metrics(tr, traced[-1])
        layer_runs.append(values)
        share_runs.append(shares)
    tracing.write_spans(tr, spans_path)
    values = {key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]}
    values.update(computed_metrics(tr, workload.setup_r))
    values["trace_overhead_frac"] = (statistics.median(p.wall_s for p in traced)
                                     / statistics.median(p.wall_s for p in plain) - 1.0)
    shares = {key: statistics.median(run.get(key, 0.0) for run in share_runs)
              for key in share_runs[0]}
    return plain + traced, values, {"span_shares": shares}


def environment() -> dict:
    import numpy as np
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"commit": commit, "cpu_count": os.cpu_count(), "numpy": np.__version__,
            "python": platform.python_version(), "machine": platform.machine()}


def record(path: Path, key: str, entry: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {}
    data["environment"] = environment()
    data.setdefault("runs", {})[key] = entry
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None, metavar="PATH",
                        help="merge the full result into this JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "rvonemax" / "__init__.py").is_file():
        print(f"error: no rvonemax sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rvonemax.cli
    if Path(rvonemax.cli.__file__).resolve().parent.parent != SRC:
        print(f"error: imported rvonemax from {rvonemax.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    argvs = workload.argv(args.seed)
    for r in workload.setup_r:
        rvonemax.harmonic_table(r)  # lazy set-up, timed as setup_s

    if args.trace:
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.csv.gz"
        passes, values, extra = traced_run(workload, argvs, args.seconds,
                                           rvonemax.cli.main, spans_path)
    else:
        passes, values, extra = untraced_run(workload, argvs, args.seconds,
                                             rvonemax.cli.main)

    attempted = failed = 0
    failures = []
    for p in passes:
        if p is not passes[0]:
            # traced passes included, so this also asserts tracing changes no output
            p.verdict.check(p.digest == passes[0].digest,
                            "stdout differs from the first (untraced) pass at this seed")
        attempted += p.verdict.replicates + p.verdict.checks
        failed += p.verdict.capped + len(p.verdict.failures)
        failures.extend(p.verdict.failures)
    for message in dict.fromkeys(failures):
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed}: {len(passes)} pass(es), walls "
          + " ".join(f"{p.wall_s:.3f}" for p in passes)
          + f" s, stdout sha256 {passes[0].digest}", file=sys.stderr)
    scalars = " ".join(f"{k}={v:.6g}" for k, v in extra.items() if isinstance(v, float))
    if scalars:
        print(scalars, file=sys.stderr)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.record:
        verdict = passes[0].verdict
        record(args.record, f"{workload.name}/seed{args.seed}/trace{args.trace}", {
            "argv": [" ".join(a) for a in argvs], "seconds": args.seconds,
            "pass_wall_s": [p.wall_s for p in passes], "stdout_sha256": passes[0].digest,
            "iterations_per_pass": verdict.iterations, "cell_means": verdict.cell_means,
            **extra, **result})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
