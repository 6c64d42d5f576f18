"""The benchmark workloads' output at seed 1 is fixed.

Each workload of `bench/workloads.py` is run once at seed 1 through
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


def _workloads():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads").WORKLOADS
    finally:
        sys.path.remove(str(BENCH))


def test_every_workload_has_a_digest():
    assert set(_workloads()) == set(DIGESTS)


@pytest.mark.parametrize("name", list(DIGESTS))
def test_workload_stdout_at_seed_1_is_the_recorded_one(name):
    outputs = []
    for argv in _workloads()[name].argv(1):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0, argv
        outputs.append(out.getvalue())
    assert hashlib.sha256("\0".join(outputs).encode()).hexdigest() == DIGESTS[name]
