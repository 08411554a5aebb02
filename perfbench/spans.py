"""In-memory span recorder for the traced benchmark run.

The recorder wraps public stoplab functions from outside the package: each
function is replaced at every module attribute that holds it, so a caller
that imported it by name (``from .solver import solve_backward``) sees the
wrapper too.  ``ScalarField.row`` and ``ScalarField.__call__`` are replaced on
the class.  A span is ``[name, start, end, parent, op, counts]``; spans stay
in memory and are written once, by ``write``.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

SETUP_OP = -1


def _solver_counts(surface):
    sweeps = surface.meta.psor_sweeps
    return {"solver.iterations": int(sweeps.sum()),
            "solver.iterations_per_step.max": int(sweeps.max()) if sweeps.size else 0}


def _path_counts(*bundles):
    return {"simulate.path_steps": sum(b.n_paths * b.n_steps for b in bundles),
            "simulate.poisoned": sum(int(b.poisoned.sum()) for b in bundles)}


def _traced_functions():
    """(span name, module, attribute, counter) for every traced function."""
    from stoplab import checks

    targets = [
        ("cli.main", "cli", "main", None),
        ("pipeline.run_problem", "pipeline", "run_problem", None),
        ("pipeline.export_artifacts", "pipeline", "export_artifacts", None),
        ("pipeline.export_surface", "pipeline", "export_surface", None),
        ("problems.validate_problem", "problems", "validate_problem", None),
        ("problems.flip_orientation", "problems", "flip_orientation", None),
        ("solver.solve_backward", "solver", "solve_backward", _solver_counts),
        ("solver.extract_boundary", "solver", "extract_boundary", None),
        ("solver.residual_complementarity", "solver", "residual_complementarity", None),
        ("solver.unflip_surface", "solver", "unflip_surface", None),
        ("simulate.value_lsmc", "simulate", "value_lsmc", None),
        ("simulate.simulate_paths", "simulate", "simulate_paths", _path_counts),
        ("simulate.simulate_coupled", "simulate", "simulate_coupled",
         lambda cb: _path_counts(cb.late, cb.early)),
        ("simulate.comparison_report", "simulate", "comparison_report", None),
        ("config.builtin_examples", "config", "builtin_examples", None),
    ]
    check_names = sorted(n for n in vars(checks)
                         if n.startswith("check_") or n == "classify_regions")
    targets += [(f"checks.{n}", "checks", n, None) for n in check_names]
    return [(name, sys.modules[f"stoplab.{mod}"], attr, counter)
            for name, mod, attr, counter in targets]


class SpanRecorder:
    """Records nested spans while installed; ``install``/``uninstall`` are cheap."""

    def __init__(self):
        import stoplab

        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = SETUP_OP
        self._patches = []  # (owner, attribute, original, wrapper)
        modules = [m for name, m in sys.modules.items()
                   if name == "stoplab" or name.startswith("stoplab.")]
        for name, module, attr, counter in _traced_functions():
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, key, original, wrapper))
        field_cls = stoplab.ScalarField
        for attr in ("row", "__call__"):
            original = field_cls.__dict__[attr]
            self._patches.append((field_cls, attr, original,
                                  self._wrap(f"fields.{attr}", original, None)))

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span[5] = counter(result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def root(self, name, fn, *args):
        """Call ``fn(*args)`` under a root span, as one benchmark operation."""
        return self._wrap(name, fn, None)(*args)

    def install(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "counts"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans, ops):
    """Calls and summed self time per span name, and counter values, over spans of ``ops``.

    Self time is a span's duration minus the time its direct children cover;
    spans are strictly nested, so the children never overlap.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, op, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    seconds = defaultdict(float)
    counts = defaultdict(list)
    for i, (name, start, end, _, op, extra) in enumerate(spans):
        if op not in ops:
            continue
        calls[name] += 1
        seconds[name] += (end - start) - child_time[i]
        for key, value in (extra or {}).items():
            counts[key].append(value)
    return calls, seconds, counts
