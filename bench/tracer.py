"""Span tracing of `rvonemax` from outside the library.

The tracer swaps module-level names through which one layer calls another
for wrappers that record a span (id, parent, CLI invocation, name, start,
end) and puts the originals back on exit, so untraced passes run the
unmodified program. Spans stay in memory in a flat integer array; the
benchmark folds them into per-layer figures and writes them out when it
ends.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from time import perf_counter_ns

# (module whose global is replaced, name in it, span name "<layer>.<callee>").
# The layer is the module that defines the callee, whichever module calls it.
CALL_SITES = (
    ("cli", "execute_plan", "experiments.execute_plan"),
    ("cli", "stable_seed", "experiments.stable_seed"),
    ("cli", "build_target", "experiments.build_target"),
    ("cli", "estimate_drift", "drift.estimate_drift"),
    ("cli", "token_run_batch", "token_process.token_run_batch"),
    ("cli", "token_expected_hitting_time_exact", "token_process.exact"),
    ("experiments", "_replicate_config", "experiments.replicate_config"),
    ("experiments", "build_start", "experiments.build_start"),
    ("experiments", "plant_state_at_hamming", "drift.plant_state_at_hamming"),
    ("experiments", "run", "algorithms.run"),
    ("algorithms", "sample_uniform_point", "space.sample_uniform_point"),
    ("algorithms", "harmonic_table", "operators.harmonic_table"),
    ("algorithms", "mutate", "algorithms.mutate"),
    ("algorithms", "step", "operators.step"),
    ("algorithms", "fitness", "space.fitness"),
    ("drift", "plant_state_at_hamming", "drift.plant_state_at_hamming"),
    ("drift", "plant_state_at_fitness", "drift.plant_state_at_fitness"),
    ("drift", "potential_value", "potentials.potential_value"),
    ("drift", "one_iteration", "algorithms.one_iteration"),
    ("potentials", "fitness", "space.fitness"),
    ("potentials", "hamming_distance", "space.hamming_distance"),
)

LAYERS = ("space", "operators", "algorithms", "potentials", "drift", "token_process",
          "experiments", "cli")

# Spans that keep their first argument(s), which the per-layer figures need.
TAGGED = {"algorithms.run": 1, "token_process.token_run_batch": 2}

FIELDS = 7  # id, parent, invocation, name index, start_ns, end_ns, self_ns


class Tracer:
    """Records spans while active; one id per CLI invocation."""

    def __init__(self):
        self.names: list[str] = []
        self.data = array("q")
        # span name -> {span id: leading call arguments}, for names in TAGGED
        self.tags: dict[str, dict[int, tuple]] = {name: {} for name in TAGGED}
        self._stack: list[list[int]] = []  # [span id, child time in ns]
        self._next_id = 1
        self._invocation = 0
        self._saved: list[tuple] = []

    def _wrap(self, fn, name):
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        keep = TAGGED.get(name, 0)
        tags = self.tags.get(name)
        data, stack = self.data, self._stack

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                parent = 0
                if stack:
                    stack[-1][1] += end - start
                    parent = stack[-1][0]
                data.extend((sid, parent, self._invocation, index, start, end,
                             end - start - frame[1]))
                if keep:
                    tags[sid] = args[:keep]
        return wrapper

    def invocation(self, main):
        """Wrap the CLI entry point as the root span of a new invocation."""
        root = self._wrap(main, "cli.main")

        def call(argv):
            self._invocation += 1
            return root(argv)
        return call

    def spans(self):
        """Yield (id, parent, invocation, name, start_ns, end_ns, self_ns)."""
        data, names = self.data, self.names
        for i in range(0, len(data), FIELDS):
            sid, parent, inv, index, start, end, self_ns = data[i:i + FIELDS]
            yield sid, parent, inv, names[index], start, end, self_ns

    def clear(self) -> None:
        del self.data[:]
        for tags in self.tags.values():
            tags.clear()

    def __enter__(self):
        for module_name, attr, span_name in CALL_SITES:
            module = importlib.import_module(f"rvonemax.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def write_spans(tracer: Tracer, path) -> None:
    """Write spans as gzipped CSV: id, parent, invocation, name, start_ns, end_ns."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        handle.write("id,parent,invocation,name,start_ns,end_ns\n")
        for sid, parent, inv, name, start, end, _ in tracer.spans():
            handle.write(f"{sid},{parent},{inv},{name},{start},{end}\n")
