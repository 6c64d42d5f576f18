"""Every name the benchmark tracer swaps must exist in the library.

`bench/tracer.py` replaces module-level names of `rvonemax` modules with
span-recording wrappers; a rename or removal there would break
`python3 bench/run.py --trace 1`.
"""

import importlib
import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Leading positional parameters that `bench/run.py` reads from each tagged span.
TAGGED_PARAMETERS = {
    "algorithms.run": ("config",),
    "token_process.token_run_batch": ("config", "replicates"),
}


def _tracer():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


def test_tracer_call_sites_resolve():
    tracer = _tracer()
    assert tracer.CALL_SITES
    for module_name, attr, _ in tracer.CALL_SITES:
        module = importlib.import_module(f"rvonemax.{module_name}")
        assert callable(getattr(module, attr, None)), f"rvonemax.{module_name}.{attr}"


def test_tagged_callees_take_the_arguments_the_benchmark_reads():
    tracer = _tracer()
    assert set(tracer.TAGGED) == set(TAGGED_PARAMETERS)
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    checked = set()
    for module_name, attr, span_name in tracer.CALL_SITES:
        if span_name not in tracer.TAGGED:
            continue
        module = importlib.import_module(f"rvonemax.{module_name}")
        params = list(inspect.signature(getattr(module, attr)).parameters.values())
        leading = params[:tracer.TAGGED[span_name]]
        assert tuple(p.name for p in leading) == TAGGED_PARAMETERS[span_name], \
            f"rvonemax.{module_name}.{attr}"
        assert all(p.kind in positional for p in leading), f"rvonemax.{module_name}.{attr}"
        checked.add(span_name)
    assert checked == set(tracer.TAGGED)
