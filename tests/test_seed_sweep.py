"""`tools/seed_sweep.py` runs a gate's seeds over worker processes; its
report must not depend on how many."""

import subprocess
import sys
from pathlib import Path

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "seed_sweep.py"


def _run(*args):
    return subprocess.run([sys.executable, str(SWEEP), *args], capture_output=True,
                          text=True, timeout=300)


def _sweep(*args):
    result = _run(*args)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_seed_sweep_report_is_the_same_at_any_worker_count():
    serial = _sweep("1", "2", "--gate", "drift exact law", "--workers", "1")
    assert serial.startswith("drift exact law: seed 1: ")
    assert "\ndrift exact law: seed 2: " in serial
    assert _sweep("1", "2", "--gate", "drift exact law", "--workers", "2") == serial


def test_seed_sweep_rejects_fewer_than_one_worker():
    result = _run("1", "--gate", "drift exact law", "--workers", "0")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "--workers must be >= 1, got 0" in result.stderr
