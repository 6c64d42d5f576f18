"""Every name the benchmark tracer swaps must exist in the library.

`bench/tracer.py` replaces module-level names of `rvonemax` modules with
span-recording wrappers; a rename or removal there would break
`python3 bench/run.py --trace 1`.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_call_sites_resolve():
    sys.path.insert(0, str(BENCH))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))
    assert tracer.CALL_SITES
    for module_name, attr, _ in tracer.CALL_SITES:
        module = importlib.import_module(f"rvonemax.{module_name}")
        assert callable(getattr(module, attr, None)), f"rvonemax.{module_name}.{attr}"
