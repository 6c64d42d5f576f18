import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rvonemax
from rvonemax import (AlgorithmKind, ExperimentPlan, MetricKind, Potential, RunConfig,
                      StepOperatorKind, TokenConfig)
from rvonemax.algorithms import DEFAULT_ITERATION_CAP
from rvonemax.cli import (AGGREGATE_COLUMNS, aggregate_rows, build_parser, main, parse_args,
                          render_rows, load_plan_file)
from rvonemax.experiments import AggregateResult


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_args_direct_mapping():
    ns = parse_args(["run", "--n", "20", "--r", "4", "--algo", "rls", "--op", "uniform",
                     "--metric", "interval", "--reps", "2000", "--seed", "42"])
    assert ns.subcommand == "run"
    plan = ns.experiment
    assert isinstance(plan, ExperimentPlan)
    assert plan.grid == ((20, 4),)
    assert plan.algorithms == (AlgorithmKind.RLS,)
    assert plan.operators == (StepOperatorKind.UNIFORM,)
    assert plan.metric == MetricKind.INTERVAL
    assert plan.replicates == 2000
    assert plan.base_seed == 42


def test_parse_args_builds_drift_config():
    ns = parse_args(["drift", "--n", "10", "--r", "4", "--algo", "ea", "--op", "pm1",
                     "--metric", "ring", "--potential", "fitness", "--levels", "1,5",
                     "--seed", "3"])
    config = ns.config
    assert isinstance(config, RunConfig)
    assert config.algorithm == AlgorithmKind.ONE_PLUS_ONE_EA
    assert config.operator == StepOperatorKind.PLUS_MINUS_ONE
    assert (config.instance.params.n, config.instance.params.r) == (10, 4)
    assert config.instance.metric == MetricKind.RING
    assert config.seed == 3
    assert ns.potential == Potential.fitness()
    assert ns.levels == [1, 5]


def test_parse_args_builds_token_config():
    ns = parse_args(["token", "--r", "15", "--dist", "unit", "--seed", "4", "--cap", "50"])
    config = ns.config
    assert isinstance(config, TokenConfig)
    assert (config.r, config.distribution, config.seed) == (15, "unit", 4)
    assert config.iteration_cap == 50
    default_cap = parse_args(["token", "--r", "15", "--seed", "4"]).config
    assert default_cap.iteration_cap == TokenConfig(r=15).iteration_cap


def test_one_parser_serves_every_parse_and_keeps_nothing_from_the_last(capsys):
    assert build_parser() is build_parser()
    ns = parse_args(["token", "--r", "7", "--dist", "unit", "--reps", "3", "--seed", "1",
                     "--cap", "9", "--format", "json", "--out", "token.json"])
    assert (ns.dist, ns.reps, ns.cap, ns.format, ns.out) == ("unit", 3, 9, "json", "token.json")
    ns = parse_args(["token", "--r", "7", "--seed", "1"])
    assert (ns.dist, ns.reps, ns.cap, ns.format, ns.out) == ("harmonic", 10000, None, "csv", None)
    parse_args(["run", "--n", "5", "--r", "3", "--seed", "1", "--metric", "ring",
                "--target", "center", "--reps", "4"])
    ns = parse_args(["run", "--n", "5", "--r", "3", "--seed", "1"])
    assert (ns.algo, ns.op, ns.metric, ns.target, ns.start, ns.reps, ns.cap) == \
        ("rls", "uniform", "interval", "zero", "random", 100, DEFAULT_ITERATION_CAP)
    assert ns.experiment.replicates == 100
    # a usage error after a successful parse still exits 1
    code, out, err = run_cli(capsys, ["token", "--r", "7"])
    assert code == 1 and out == "" and "seed" in err


def test_parse_args_rejects_r_below_two(capsys):
    with pytest.raises(SystemExit) as err:
        parse_args(["run", "--n", "5", "--r", "1", "--seed", "1"])
    assert err.value.code == 1
    assert "r must be >= 2" in capsys.readouterr().err


def test_unknown_flag_rejected(capsys):
    code, _, err = run_cli(capsys, ["run", "--n", "5", "--r", "3", "--seed", "1",
                                    "--frobnicate", "7"])
    assert code == 1
    assert "frobnicate" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0
    for sub in ("run", "drift", "token", "fit", "pmf"):
        assert sub in out
    code, out, _ = run_cli(capsys, ["run", "--help"])
    assert code == 0
    for flag in ("--n", "--r", "--algo", "--op", "--metric", "--target", "--start",
                 "--reps", "--seed", "--cap", "--format", "--out", "--plan"):
        assert flag in out


def test_seed_is_required(capsys):
    for argv in (["run", "--n", "5", "--r", "3"],
                 ["token", "--r", "7"],
                 ["drift", "--n", "5", "--r", "3", "--levels", "1"]):
        code, _, err = run_cli(capsys, argv)
        assert code == 1, argv
        assert "seed" in err.lower()


def test_conflicting_and_malformed_flags(capsys):
    code, _, err = run_cli(capsys, ["run", "--n", "5", "--r", "3", "--seed", "1",
                                    "--hamming-k", "2"])
    assert code == 1
    assert "--start hamming" in err
    code, _, err = run_cli(capsys, ["run", "--n", "5", "--r", "3", "--seed", "1",
                                    "--start", "hamming"])
    assert code == 1
    assert "--hamming-k" in err
    code, _, _ = run_cli(capsys, ["run", "--n", "5", "--r", "3", "--seed", "1",
                                  "--reps", "many"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["run", "--n", "5", "--r", "3", "--seed", "1", "--reps", "0"],
    ["run", "--n", "5", "--r", "3", "--seed", "1", "--cap", "0"],
    ["run", "--r", "3", "--seed", "1", "--start", "hamming", "--hamming-k", "9", "--n", "5"],
    ["drift", "--n", "10", "--r", "4", "--levels", "1", "--seed", "3", "--samples", "50"],
], ids=["reps-0", "cap-0", "hamming-k-above-n", "drift-samples-50"])
def test_invalid_values_exit_usage(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert "error" in err


def test_fit_on_too_few_cells_exits_usage(tmp_path, capsys):
    data = tmp_path / "agg.csv"
    data.write_text("n,r,mean\n5,3,10\n5,4,12\n")
    code, out, err = run_cli(capsys, ["fit", "--model", "linear_r", "--input", str(data)])
    assert code == 1
    assert out == ""
    assert "at least 4 cells" in err


def test_pmf_output_values(capsys):
    code, out, _ = run_cli(capsys, ["pmf", "--r", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,probability"
    probs = [float(line.split(",")[1]) for line in lines[1:]]
    assert probs == pytest.approx([6 / 11, 3 / 11, 2 / 11], abs=1e-9)
    code, out, _ = run_cli(capsys, ["pmf", "--r", "4", "--format", "json"])
    rows = json.loads(out)
    assert [row["j"] for row in rows] == [1, 2, 3]


def test_run_output_deterministic_and_schema(capsys):
    argv = ["run", "--n", "8", "--r", "3", "--algo", "rls,ea", "--op", "uniform,pm1",
            "--metric", "ring", "--reps", "5", "--seed", "9"]
    code, first, _ = run_cli(capsys, argv)
    assert code == 0
    code, second, _ = run_cli(capsys, argv)
    assert first == second  # byte-identical rerun
    lines = first.strip().splitlines()
    assert lines[0] == ",".join(AGGREGATE_COLUMNS)
    assert len(lines) == 1 + 4  # one row per algorithm x operator
    assert first.endswith("\n")
    row = lines[1].split(",")
    assert row[:5] == ["8", "3", "rls", "uniform", "ring"]


def test_json_round_trip_random_result_sets():
    rng = np.random.default_rng(123)
    for _ in range(100):
        aggs = [AggregateResult(n=int(rng.integers(1, 500)), r=int(rng.integers(2, 1000)),
                                algorithm=AlgorithmKind.RLS, operator=StepOperatorKind.HARMONIC,
                                metric=MetricKind.INTERVAL,
                                mean=float(rng.exponential(1000.0)),
                                std_error=float(rng.exponential(10.0)),
                                median=float(rng.exponential(900.0)),
                                replicates=int(rng.integers(1, 10**6)),
                                capped_count=int(rng.integers(0, 5)))
                for _ in range(rng.integers(1, 6))]
        rows = aggregate_rows(aggs)
        text = render_rows(rows, "json")
        parsed = json.loads(text)
        for row, back in zip(rows, parsed):
            for key, value in row.items():
                if isinstance(value, float):
                    assert back[key] == float(f"{value:.10g}")
                else:
                    assert back[key] == value
        assert render_rows(parsed, "json") == text  # idempotent re-emission


def test_output_to_file_and_io_error(tmp_path, capsys):
    dest = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, ["pmf", "--r", "3", "--out", str(dest)])
    assert code == 0
    assert out == ""
    assert dest.read_text().startswith("j,probability\n")
    code, _, err = run_cli(capsys, ["pmf", "--r", "3", "--out",
                                    str(tmp_path / "missing_dir" / "x.csv")])
    assert code == 2
    assert "error" in err.lower()


def test_censored_aggregates_warn_but_exit_zero(capsys):
    code, out, err = run_cli(capsys, ["run", "--n", "30", "--r", "16", "--algo", "rls",
                                      "--op", "pm1", "--start", "maxdist",
                                      "--reps", "3", "--seed", "5", "--cap", "10"])
    assert code == 0
    assert "right-censored" in err
    row = out.strip().splitlines()[1].split(",")
    assert row[-1] == "3"  # capped count
    assert row[5] == "nan"  # mean of an all-capped cell


def test_censored_aggregates_json_is_strict_and_fit_rejects_it(tmp_path, capsys):
    data = tmp_path / "agg.json"
    code, _, _ = run_cli(capsys, ["run", "--n", "5", "--r", "3,4,5,8", "--reps", "3",
                                  "--seed", "1", "--cap", "1", "--format", "json",
                                  "--out", str(data)])
    assert code == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    rows = json.loads(data.read_text(), parse_constant=reject)
    assert [(row["mean"], row["median"], row["capped"]) for row in rows] == [(None, None, 3)] * 4
    code, out, err = run_cli(capsys, ["fit", "--model", "linear_r", "--input", str(data)])
    assert code == 1
    assert out == ""
    assert "non-finite cell means" in err


def test_token_cli_and_capacity_exit(capsys):
    code, out, _ = run_cli(capsys, ["token", "--r", "15", "--dist", "harmonic",
                                    "--reps", "500", "--seed", "4"])
    assert code == 0
    header, row = out.strip().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["exact"]) == pytest.approx(6.1577, abs=1e-3)
    assert abs(float(values["mean"]) - float(values["exact"])) < 1.0
    code, _, err = run_cli(capsys, ["token", "--r", str(2**20 + 1), "--dist", "unit",
                                    "--reps", "10", "--seed", "1"])
    assert code == 3
    assert "1048576" in err


def test_drift_cli_smoke(capsys):
    code, out, _ = run_cli(capsys, ["drift", "--n", "10", "--r", "4", "--algo", "rls",
                                    "--op", "uniform", "--levels", "1,5", "--samples", "500",
                                    "--seed", "3", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [row["level"] for row in rows] == [1.0, 5.0]
    assert all(row["samples"] == 500 for row in rows)


@pytest.mark.parametrize("potential", ["expweight", "expweight:1.5"])
def test_drift_cli_expweight_needs_a_distance_vector(capsys, potential):
    # --levels carries integers only, and an exp_weight level is a distance vector
    code, out, err = run_cli(capsys, ["drift", "--n", "10", "--r", "4", "--potential", potential,
                                      "--levels", "1", "--seed", "3"])
    assert code == 1
    assert out == ""
    assert err == "error: exp_weight conditioning requires an explicit distance vector\n"


def test_fit_cli_reads_run_output(tmp_path, capsys):
    data = tmp_path / "agg.csv"
    code, _, _ = run_cli(capsys, ["run", "--n", "6", "--r", "3,4,5,6", "--algo", "rls",
                                  "--op", "uniform", "--reps", "30", "--seed", "11",
                                  "--out", str(data)])
    assert code == 0
    code, out, _ = run_cli(capsys, ["fit", "--model", "uniform_rnlogn",
                                    "--input", str(data)])
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "model,term,coefficient,r_squared"
    fields = dict(zip(header.split(","), row.split(",")))
    assert 1.0 < float(fields["coefficient"]) < 2.0  # RLS constant is 1, not e
    # same fit from json input
    data_json = tmp_path / "agg.json"
    run_cli(capsys, ["run", "--n", "6", "--r", "3,4,5,6", "--algo", "rls",
                     "--op", "uniform", "--reps", "30", "--seed", "11",
                     "--format", "json", "--out", str(data_json)])
    code, out_json, _ = run_cli(capsys, ["fit", "--model", "uniform_rnlogn",
                                         "--input", str(data_json)])
    assert code == 0
    assert out_json == out


@pytest.mark.parametrize("payload", ['{"n": 1}', "[1, 2, 3, 4]"], ids=["object", "numbers"])
def test_fit_cli_wrong_json_shape_exits_usage(tmp_path, capsys, payload):
    data = tmp_path / "agg.json"
    data.write_text(payload)
    code, out, err = run_cli(capsys, ["fit", "--model", "linear_r", "--input", str(data)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "n, r and mean" in err
    assert "Traceback" not in err


def test_fit_cli_missing_input_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["fit", "--model", "linear_r",
                                    "--input", str(tmp_path / "nope.csv")])
    assert code == 2


def test_run_missing_plan_file_is_io_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, ["run", "--plan", str(tmp_path / "nope.txt"),
                                      "--n", "5", "--r", "3", "--seed", "1"])
    assert code == 2
    assert out == ""
    assert "nope.txt" in err


def test_plan_file_with_inline_override(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("# small sweep\n"
                    "n = [6]\n"
                    "r = [3, 4]\n"
                    "algorithms = rls\n"
                    "operators = [uniform, pm1]\n"
                    "metric = interval\n"
                    "target = zero\n"
                    "start = random\n"
                    "replicates = 4\n"
                    "seed = 21\n")
    code, out, _ = run_cli(capsys, ["run", "--plan", str(plan)])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 4  # (r=3, r=4) x (uniform, pm1)
    # inline --r overrides the plan grid
    code, out, _ = run_cli(capsys, ["run", "--plan", str(plan), "--r", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 2
    assert all(line.split(",")[1] == "5" for line in lines[1:])
    assert load_plan_file(str(plan)) == [
        "--n", "6", "--r", "3,4", "--algo", "rls", "--op", "uniform,pm1", "--metric", "interval",
        "--target", "zero", "--start", "random", "--reps", "4", "--seed", "21"]


def test_plan_file_syntax_error(tmp_path, capsys):
    broken = tmp_path / "broken.txt"
    broken.write_text("replicates 4\n")
    code, _, err = run_cli(capsys, ["run", "--plan", str(broken), "--n", "5",
                                    "--r", "3", "--seed", "1"])
    assert code == 1
    assert "key = value" in err


def test_plan_file_unknown_key(tmp_path, capsys):
    typo = tmp_path / "typo.txt"
    typo.write_text("n = 5\nr = 3\nseed = 1\nreplicate = 3\nalgorithm = ea\n")
    code, out, err = run_cli(capsys, ["run", "--plan", str(typo)])
    assert code == 1
    assert out == ""
    assert "algorithm, replicate" in err


PLAN_VALUE_CASES = [  # a plan line, and the same value as its inline flag
    ("replicates = 2.7", "--reps", "2.7"), ("seed = 1.9", "--seed", "1.9"),
    ("hamming_k = 2.5", "--hamming-k", "2.5"), ("cap = 1e3", "--cap", "1e3"),
    ("n = 5.0", "--n", "5.0"), ("r = [4, 3.5]", "--r", "4,3.5"), ("seed = [1]", "--seed", "[1]"),
    ("metric = RING", "--metric", "RING"), ("target = Zero", "--target", "Zero"),
    ("start = far", "--start", "far"), ("algorithms = [rls, sa]", "--algo", "rls,sa"),
    ("operators = jump", "--op", "jump")]


@pytest.mark.parametrize("line, flag, value", PLAN_VALUE_CASES,
                         ids=[line for line, _, _ in PLAN_VALUE_CASES])
def test_plan_value_fails_as_its_inline_flag_fails(tmp_path, capsys, line, flag, value):
    # a plan value is read by its flag: 2.7 replicates is the error --reps 2.7 is
    plan = tmp_path / "plan.txt"
    key = line.partition(" = ")[0]
    values = {"n": "5", "r": "4", "seed": "1", "replicates": "2", "start": "hamming",
              "hamming_k": "2", "cap": "1000", key: line.partition(" = ")[2]}
    plan.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    flags = {"--n": "5", "--r": "4", "--seed": "1", "--reps": "2", "--start": "hamming",
             "--hamming-k": "2", "--cap": "1000", flag: value}
    code, out, err = run_cli(capsys, ["run", "--plan", str(plan)])
    inline = run_cli(capsys, ["run", *(item for pair in flags.items() for item in pair)])
    assert (code, out, err) == inline
    assert code == 1 and out == "" and "error" in err


def test_plan_file_accepts_every_key_of_its_flag(tmp_path, capsys):
    # each known plan key means what its inline flag means
    plan = tmp_path / "all.txt"
    plan.write_text("n = 5\nr = 4\nalgorithms = [rls, ea]\noperators = pm1\nmetric = ring\n"
                    "target = random\nstart = hamming\nhamming_k = 3\nreplicates = 6\n"
                    "seed = 9\ncap = 400\n")
    code, from_file, _ = run_cli(capsys, ["run", "--plan", str(plan)])
    assert code == 0
    code, inline, _ = run_cli(capsys, ["run", "--n", "5", "--r", "4", "--algo", "rls,ea",
                                       "--op", "pm1", "--metric", "ring", "--target", "random",
                                       "--start", "hamming", "--hamming-k", "3", "--reps", "6",
                                       "--seed", "9", "--cap", "400"])
    assert code == 0
    assert from_file == inline
    assert len(from_file.strip().splitlines()) == 1 + 2


def test_module_entry_point():
    # the child imports rvonemax from the same tree as this process
    src = str(Path(rvonemax.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-m", "rvonemax", "pmf", "--r", "3"],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "j,probability"
