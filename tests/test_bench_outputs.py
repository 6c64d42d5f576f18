"""The benchmark workloads' output at seeds 1 and 2 is fixed.

Each workload of `bench/workloads.py` is run once at each seed through
`rvonemax.cli.main`, as `bench/run.py` runs a pass, and the sha256 of its
stdouts joined by NUL must be the recorded one. A change that means to
keep outputs byte-identical is checked here; one that changes a
workload's draws must re-record its digest and say so.
"""

import hashlib
import importlib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from rvonemax.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"

DIGESTS = {
    "plan_long": "5ea8be22b0962e00ce6932ffdf1f822059f48ef60f6a2f29a7f6a10bbddf5c64",
    "plan_short": "e834d1c99ac2a4c88671051662638d28dbf2a5cf7ad5acb9eb1de95cc235b39e",
    "token_batch": "f105b03d87f3c0ffb7169926f9bd8095880e1230c4d778663373b12651381caa",
    "drift_planted": "50a38b8cb2dc416809f9193902e6a4d3cd969862f098a7add5dd1baa303cad7a",
}
DIGESTS_SEED_2 = {
    "plan_long": "c507de6b73a2ca361b1488fd6ddedcdd363a8b150d04890a7366ebfcd7532840",
    "plan_short": "c429cd869e7065158176cde69caaae954923bf6b61d0b8c6fd8f1e5a2f8328dc",
    "token_batch": "c8cd3dc0675226b5a4f0a88eef0aa727d84a86e6b62a084c6ed8bd9387e2e01e",
    "drift_planted": "baa4d7fe4bda3b353b73ab1cc8ad9fe9264f4292ba3d18d0dcfb5e6a0983ac2f",
}


def _workloads():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads").WORKLOADS
    finally:
        sys.path.remove(str(BENCH))


def _digest(name, seed):
    outputs = []
    for argv in _workloads()[name].argv(seed):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0, argv
        outputs.append(out.getvalue())
    return hashlib.sha256("\0".join(outputs).encode()).hexdigest()


def test_every_workload_has_a_digest():
    assert set(_workloads()) == set(DIGESTS) == set(DIGESTS_SEED_2)


@pytest.mark.parametrize("name", list(DIGESTS))
def test_workload_stdout_at_seed_1_is_the_recorded_one(name):
    assert _digest(name, 1) == DIGESTS[name]


@pytest.mark.parametrize("name", list(DIGESTS_SEED_2))
def test_workload_stdout_at_seed_2_is_the_recorded_one(name):
    assert _digest(name, 2) == DIGESTS_SEED_2[name]
