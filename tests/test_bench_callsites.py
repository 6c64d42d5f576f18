"""Every name the benchmark tracer swaps or imports must exist in the library.

`bench/tracer.py` replaces module-level names of `rvonemax` modules with
span-recording wrappers, and `bench/run.py` imports library names itself;
a rename or removal there would break `python3 bench/run.py --trace 1`.
"""

import ast
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


def _resolve(dotted: str):
    """The object a dotted `rvonemax` name stands for, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def test_bench_library_names_resolve():
    # `from rvonemax.x import y`, `import rvonemax.x` and `rvonemax.x.y` in bench/*.py
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rvonemax"):
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(a.name for a in node.names if a.name.startswith("rvonemax"))
            elif isinstance(node, ast.Attribute):
                chain = [node.attr]
                value = node.value
                while isinstance(value, ast.Attribute):
                    chain.append(value.attr)
                    value = value.value
                if isinstance(value, ast.Name) and value.id == "rvonemax":
                    names.add(".".join(["rvonemax", *reversed(chain)]))
    assert {"rvonemax.operators.HarmonicTable", "rvonemax.algorithms.subseed",
            "rvonemax.space.sample_uniform_point", "rvonemax.cli.main"} <= names
    for name in sorted(names):
        try:
            _resolve(name)
        except (ImportError, AttributeError) as exc:
            raise AssertionError(f"bench/ uses {name}, which does not resolve: {exc}") from None
